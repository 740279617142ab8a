#!/usr/bin/env bash
# Console smoke checks of the fano3 command line on a tiny PALP input: the
# pentagon pyramid (id 1) and the simplex of P^3 (id 2); the hand-written
# expected.json pins the verdicts independently.
#
# Usage: tools/smoke.sh [DIR]
#
# The checks write their files into DIR (default: the current directory).
# FANO3 is the command that runs the CLI (default: fano3, the installed
# entry point), e.g. FANO3="python3 -m fano3.cli" with src/ on PYTHONPATH.
# The script stops with a non-zero exit at the first failed check.
set -e
FANO3=${FANO3:-fano3}
cd "${1:-.}"
printf '3 6\n1 1 0 -1 0 0\n0 1 1 0 -1 0\n1 1 1 1 1 -1\n4 3\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n' > smoke.palp
$FANO3 lists smoke.palp --out lists.json
cat lists.json
$FANO3 verify smoke.palp --expected lists.json
$FANO3 inspect smoke.palp --id 1
# --lift also prints the lifted rays of each decomposition of each facet
# polygon, which inspect charts with facet_to_polygon
$FANO3 inspect smoke.palp --id 1 --lift
printf '{"L_smooth": [2], "L_isol": [1], "L_nodes": [], "L_low": [], "L_indec": [], "L_aft": []}\n' > expected.json
$FANO3 verify smoke.palp --expected expected.json
$FANO3 classify smoke.palp --out r.csv --report csv
# an id sidecar renumbers the PALP records: pyramid 7, simplex 9
printf '[7, 9]\n' > ids.json
printf '{"L_smooth": [9], "L_isol": [7]}\n' > e.json
$FANO3 verify smoke.palp --sidecar ids.json --expected e.json
# a leading UTF-8 byte-order mark is ignored: the same lists
printf '\357\273\277' | cat - smoke.palp > bom.palp
$FANO3 lists bom.palp --out bomlists.json
cmp lists.json bomlists.json
# and a mark that starts a later file of a concatenation too
cat smoke.palp smoke.palp > smoke2.palp
cat bom.palp bom.palp > bom2.palp
$FANO3 lists smoke2.palp --out lists2x.json
$FANO3 lists bom2.palp --out bomlists2x.json
cmp lists2x.json bomlists2x.json
# a lattice point inside an edge leaves the hull, and so the report, as
# it is: (0, -1, -1) halves the edge of length 2 of the simplex of
# P(1, 1, 2, 2), so each of its two A_1-triangles has four members in its
# plane, which the facet wrap reads by its in-plane walk
printf '4 3\n1 0 0\n0 1 0\n0 0 1\n-1 -2 -2\n' > simplex.palp
printf '5 3\n1 0 0\n0 1 0\n0 0 1\n-1 -2 -2\n0 -1 -1\n' > edgepoint.palp
$FANO3 classify simplex.palp --out simplex.json
$FANO3 classify edgepoint.palp --out edgepoint.json
cmp simplex.json edgepoint.json
# the exit-code contract: 1 on a verify mismatch, 2 on an input
# error, which prints one "error: " line and no traceback
printf '{"L_smooth": [1]}\n' > wrong.json
rc=0; $FANO3 verify smoke.palp --expected wrong.json || rc=$?; test "$rc" -eq 1
rc=0; $FANO3 lists missing.palp 2> err.txt || rc=$?; test "$rc" -eq 2
grep -q '^error: ' err.txt
if grep -q Traceback err.txt; then exit 1; fi
rc=0; $FANO3 verify smoke.palp --expected missing.json 2> err.txt || rc=$?; test "$rc" -eq 2
grep -q '^error: ' err.txt
# ... and 2 with stderr closed, where the line cannot be printed
rc=0; $FANO3 lists missing.palp > out.txt 2>&- || rc=$?; test "$rc" -eq 2
test ! -s out.txt
# a stdout whose reader is gone, as under `| head` once head is done:
# exit 141 and nothing printed, also when --out names that stdout; the
# pipe's read end is closed before the command starts, so its first write
# fails every time
closed_stdout() {
  python3 -c 'import os, subprocess, sys; r, w = os.pipe(); os.close(r)
sys.exit(subprocess.run(sys.argv[1:], stdout=w).returncode)' "$@"
}
for args in "inspect smoke.palp --id 1" "classify smoke.palp --out /dev/stdout" \
    "lists smoke.palp --out /dev/stdout"; do
  rc=0; closed_stdout $FANO3 $args 2> err.txt || rc=$?; test "$rc" -eq 141
  test ! -s err.txt
done
# JSON nested deeper than the recursion limit is an input error too
python3 -c "print('[' * 200000)" > deep.json
rc=0; $FANO3 lists deep.json 2> err.txt || rc=$?; test "$rc" -eq 2
grep -q '^error: ' err.txt
if grep -q Traceback err.txt; then exit 1; fi
# a JSON record that is no object, and a PALP entry and header
# over the int/str conversion digit limit: each message names its
# cause
printf '["x"]\n' > notobj.json
rc=0; $FANO3 lists notobj.json 2> err.txt || rc=$?; test "$rc" -eq 2
grep -q '^error: record 0: must be a JSON object$' err.txt
if grep -q Traceback err.txt; then exit 1; fi
python3 -c "print('4 3\n' + '1' * 5000 + ' 0 0\n0 1 0\n0 0 1\n-1 -1 -1')" > longint.palp
rc=0; $FANO3 lists longint.palp 2> err.txt || rc=$?; test "$rc" -eq 2
grep -q '^error: record 1: entry over the [0-9]*-digit limit$' err.txt
if grep -q Traceback err.txt; then exit 1; fi
python3 -c "print('1' * 5000 + ' 3')" > longheader.palp
rc=0; $FANO3 lists longheader.palp 2> err.txt || rc=$?; test "$rc" -eq 2
grep -q '^error: record 1: header over the [0-9]*-digit limit$' err.txt
if grep -q Traceback err.txt; then exit 1; fi
# int() alone would read "1_0" as 10 and the Arabic-Indic digit
# one as 1; a PALP integer is ASCII digits with an optional sign
for entry in '1_0' "$(printf '\331\241')"; do
  printf '4 3\n%s 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n' "$entry" > nondigit.palp
  rc=0; $FANO3 lists nondigit.palp 2> err.txt || rc=$?; test "$rc" -eq 2
  grep -q '^error: record 1: non-integer entry$' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
done
# the two records 20 times (ids 1..40): two chunks of 32, so
# --jobs 2 runs the real process pool, and its output must match
for i in $(seq 20); do cat smoke.palp; done > smoke40.palp
$FANO3 lists smoke40.palp --jobs 1 --out lists1.json
$FANO3 lists smoke40.palp --jobs 2 --out lists2.json
cmp lists1.json lists2.json
# the full reports, witness facet indices included
$FANO3 classify smoke40.palp --out c1.json --jobs 1
$FANO3 classify smoke40.palp --out c2.json --jobs 2
cmp c1.json c2.json
# the report is laid out as this Python's json module lays it out
# with indent=1
python3 -m json.tool --indent 1 c1.json | cmp - c1.json
# and so is a report with an AFT pair (id 1) and two non-reflexive
# polytopes (ids 2, 3), whose reflexive-only fields and Hilbert
# coefficients are null: together they meet every branch of the writer
printf '5 3\n1 1 0\n-1 1 0\n0 1 1\n0 0 -1\n0 -1 0\n' > branches.palp
printf '4 3\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -2\n' >> branches.palp
printf '4 3\n-1 1 -1\n-2 -1 -2\n0 2 1\n1 -2 0\n' >> branches.palp
$FANO3 classify branches.palp --out branches.json
python3 -m json.tool --indent 1 branches.json | cmp - branches.json
grep -q '^  "aft_witnesses": \[$' branches.json
grep -q '^  "hilbert": null$' branches.json
# record 35 a flat square: the error raised in a worker process is
# one "error: polytope" line, with exit 2 and no traceback
{ for i in $(seq 17); do cat smoke.palp; done
  printf '4 3\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n'
  printf '4 3\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n'
  cat smoke.palp smoke.palp; } > bad40.palp
rc=0; $FANO3 lists bad40.palp --jobs 2 2> err.txt || rc=$?; test "$rc" -eq 2
test "$(wc -l < err.txt)" -eq 1
grep -q '^error: polytope 35: ' err.txt
if grep -q Traceback err.txt; then exit 1; fi
