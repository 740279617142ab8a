"""Command line driver: classify, lists, verify, inspect.

The commands are batch oriented: they read a polytope database, run the
classification and write static reports.  Output ordering is by polytope id,
so results are bit-identical across runs and across worker counts.

Exit codes: 0 on success (and on a clean verify match), 1 when verify finds
a mismatch, 2 on input errors and on a failed guard of the hull, 141, with
nothing printed, when stdout (or ``--out``) is a pipe that its reader
closed.  ``main`` is the one error boundary: it prints such an error, also
one raised in a worker process, as one ``error: `` line (``polytope N:
hull: ...`` for a guard), and returns 2 even when stderr is closed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import db
from .criteria import ClassificationReport, classify
from .polygon import facet_to_polygon, maximal_decompositions
from .polytope import convex_hull


_CHUNK = 32  # records per task sent to a worker process
# the largest --mmax: a report holds mmax + 1 Hilbert coefficients, of
# size O(mmax^3), and every report is kept until the writer runs
MMAX = 1000


class InputError(Exception):
    pass


def _hull_and_classify(record, m_max: int):
    """The hull of one record and its report; a bad record names its id."""
    try:
        poly = convex_hull(record.vertices)
        return poly, classify(poly, polytope_id=record.id, m_max=m_max)
    except ValueError as exc:
        raise InputError(f"polytope {record.id}: {exc}") from exc
    except AssertionError as exc:  # only the hull's own guards raise it
        raise InputError(f"polytope {record.id}: hull: {exc}") from exc


def _classify_record(task) -> ClassificationReport:
    return _hull_and_classify(*task)[1]


def _classify_all(records, jobs: int, m_max: int) -> list[ClassificationReport]:
    """The reports in record order; the writers order them by id."""
    if jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {jobs}")
    tasks = [(rec, m_max) for rec in records]
    # a fork pool starts all its workers at once: no more than chunks or CPUs
    workers = min(jobs, -(-len(tasks) // _CHUNK), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_classify_record, tasks, chunksize=_CHUNK))
    return [_classify_record(t) for t in tasks]


def _computed_lists(reports) -> dict[str, list[int]]:
    """Sorted ids per list; a non-reflexive report's verdicts are None."""
    return {
        name: sorted(rep.polytope_id for rep in reports if getattr(rep, verdict))
        for name, verdict in db.LIST_VERDICTS
    }


def _union_size(lists) -> int:
    return len(set(lists["L_indec"]) | set(lists["L_aft"]))


def _check_mmax(m_max: int) -> None:
    if m_max < 0:
        raise InputError(f"--mmax must be nonnegative, got {m_max}")
    if m_max > MMAX:
        raise InputError(f"--mmax must be at most {MMAX}, got {m_max}")


def _write_output(path: str, write) -> None:
    try:
        write(path)
    except BrokenPipeError:  # --out /dev/stdout to a pipe whose reader is gone
        raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_classify(args) -> int:
    _check_mmax(args.mmax)
    records = db.read_records(args.input, args.sidecar)
    reports = _classify_all(records, args.jobs, args.mmax)
    _write_output(
        args.out, lambda path: db.write_reports(reports, path, format=args.report)
    )
    return 0


def cmd_lists(args) -> int:
    records = db.read_records(args.input, args.sidecar)
    reports = _classify_all(records, args.jobs, 0)
    payload = _computed_lists(reports)
    payload[db.UNION_KEY] = _union_size(payload)
    text = json.dumps(payload, indent=1) + "\n"
    if args.out is not None:
        _write_output(args.out, lambda path: Path(path).write_text(text))
    else:
        sys.stdout.write(text)
    return 0


_SHOWN_IDS = 10  # missing and extra ids that verify prints per list


def _diff_line(name, computed: set[int], expected: set[int]) -> tuple[str, bool]:
    missing = sorted(expected - computed)
    extra = sorted(computed - expected)
    ok = not missing and not extra
    line = f"{name}: computed {len(computed)}, expected {len(expected)}"
    if ok:
        return line + ", match", True

    def clip(ids):
        suffix = "" if len(ids) <= _SHOWN_IDS else f" (+{len(ids) - _SHOWN_IDS} more)"
        return str(ids[:_SHOWN_IDS]) + suffix

    if missing:
        line += f"\n  missing: {clip(missing)}"
    if extra:
        line += f"\n  extra:   {clip(extra)}"
    return line, False


def cmd_verify(args) -> int:
    records = db.read_records(args.input, args.sidecar)
    # a bad expected file fails before the database is classified
    expected = (
        db.load_expected_lists(args.expected)
        if args.expected is not None
        else db.reference_lists()
    )
    lists = _computed_lists(_classify_all(records, args.jobs, 0))
    all_match = True
    for name, ids in expected.items():
        if name in lists:
            line, ok = _diff_line(name, set(lists[name]), ids)
            print(line)
            all_match = all_match and ok
    union = _union_size(lists)
    print(f"|L_indec u L_aft| = {union}")
    if db.UNION_KEY in expected and expected[db.UNION_KEY] != union:
        print(f"{db.UNION_KEY}: computed {union}, expected {expected[db.UNION_KEY]}")
        all_match = False
    print("all lists match" if all_match else "MISMATCH")
    return 0 if all_match else 1


def cmd_inspect(args) -> int:
    _check_mmax(args.mmax)
    records = db.read_records(args.input, args.sidecar)
    matches = [rec for rec in records if rec.id == args.id]
    if not matches:
        raise InputError(f"no polytope with id {args.id}")
    record = matches[0]
    poly, report = _hull_and_classify(record, args.mmax)

    print(f"polytope {record.id}")
    print(f"  vertices ({len(poly.vertices)}):")
    for v in poly.vertices:
        print(f"    {v}")
    print("  edge lattice lengths:", [poly.edge_lattice_length(i) for i in range(len(poly.edges))])
    for key, value in report.to_dict().items():
        print(f"  {key}: {json.dumps(value)}")
    for fi, facet in enumerate(poly.facets):
        cls = report.facet_classes[fi]
        print(f"  facet {fi}: {cls.label()}  normal {facet.normal} height {facet.height}")
        print(f"    cycle: {[poly.vertices[i] for i in facet.vertex_indices]}")
        decs = maximal_decompositions(facet_to_polygon(poly, fi))
        for di, dec in enumerate(decs):
            parts = [list(s.vertices) for s in dec.summands]
            print(f"    maximal decomposition {di}: {parts}")
            if args.lift:
                print(f"      lifted rays: {[list(r) for r in dec.lifted_rays]}")
    return 0


def _common(parser: argparse.ArgumentParser, jobs: bool = True) -> None:
    parser.add_argument("input", help="polytope database (JSON if named *.json, else PALP)")
    parser.add_argument(
        "--sidecar", default=None, help="JSON id sidecar for palp input"
    )
    if jobs:
        parser.add_argument("--jobs", type=int, default=1, help="worker processes")


@functools.cache  # once per process: parse_args keeps no state in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fano3",
        description="classify reflexive 3-polytopes by smoothability criteria",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="write a full classification report")
    _common(p)
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p.add_argument("--mmax", type=int, default=5, help="hilbert coefficients up to m")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("lists", help="emit the six classification id lists")
    _common(p)
    p.add_argument("--out", default=None, help="output path (stdout when absent)")
    p.set_defaults(func=cmd_lists)

    p = sub.add_parser("verify", help="compare computed lists against expected ones")
    _common(p)
    p.add_argument(
        "--expected",
        default=None,
        help="expected-lists JSON (bundled reference lists when absent)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inspect", help="dump one polytope in detail")
    _common(p, jobs=False)
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--mmax", type=int, default=5)
    p.add_argument("--lift", action="store_true", help="print lifted cone rays")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone: stop quietly, with the status a shell
        # gives a writer that SIGPIPE stopped; fd 1 on /dev/null keeps the
        # interpreter's flush at exit quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except (InputError, db.DatabaseFormatError, OSError) as exc:
        # with fd 2 closed at start, sys.stderr is None (and print would
        # pick stdout) or a file on fd 2 that refuses writes; the status
        # alone tells then
        try:
            if sys.stderr is not None:
                print(f"error: {exc}", file=sys.stderr)
        except OSError:
            pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
