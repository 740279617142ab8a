"""A seeded mutation test of the PALP reader against the oracle reader.

Each text is a small valid PALP file, its entries of one digit or, moved by
a shear, of several, with one to three mutations: a token
inserted or written over a character, a character deleted, the text cut
short, or a line or a slice of it repeated.  The tokens are digits, signs,
"_", an Arabic-Indic digit, byte-order marks, NUL, "\\r", "\\x0b", "\\x85",
spaces, line ends, and runs of 4000 and 5000 digits.  For every text,
``db.parse_palp`` and ``oracles.read_palp`` must both reject it or both
return the same ids and vertices.  ``fano3 lists``, ``classify``, ``verify``
and ``inspect`` on every eighth text, as a file, must exit 0 (or 1 for a
``verify`` mismatch) or 2, with one ``error:`` line and no traceback on 2,
and 2 exactly when the oracle rejects the text as a file reads it or a
record that the command classifies fails the hull or ``classify`` in
process.  On 0 the report holds the oracle's ids, and its bytes are what
``json.dumps`` writes at indent 1 for the rows of the reports classified in
process; ``verify`` matches the lists of those reports, and finds an id
moved from one list to another; ``inspect`` shows the oracle's first id.
"""

from __future__ import annotations

import json
import random
import re

import oracles
from conftest import AFT_FIXTURE, OCTAHEDRON, PYRAMID, TETRAHEDRON, apply_matrix, large_shear
from fano3 import db
from fano3.cli import main
from fano3.criteria import classify
from fano3.polytope import convex_hull

TOKENS = (
    "0", "1", "7", "-", "+", "_", "\u0661", "\ufeff", "\x00", "\r", "\x0b", "\x85",
    " ", "\n", "7" * 4000, "7" * 5000,
)
CASES = 2000
# each list with the report verdict that puts a polytope in it (README)
LISTS = {"L_smooth": "smooth", "L_isol": "isolated_singular", "L_nodes": "nodes",
         "L_low": "low_degree", "L_indec": "indec_obstruction", "L_aft": "aft_obstruction"}
CLI_EVERY = 8  # the command line runs on every eighth text: a few ms each


def _block(rng: random.Random, vertices) -> str:
    """One PALP block, with the vertices as columns or as rows."""
    if rng.random() < 0.5:
        rows = list(zip(*vertices))
        head = f"3 {len(vertices)}"
    else:
        rows = vertices
        head = f"{len(vertices)} 3"
    return head + "\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _mutate(rng: random.Random, text: str) -> str:
    op = rng.choice(("insert", "insert", "replace", "delete", "truncate", "duplicate"))
    if op == "truncate":
        return text[:rng.randrange(len(text) + 1)]
    if op == "duplicate":
        lines = text.split("\n")
        if rng.random() < 0.5:
            k = rng.randrange(len(lines))
            return "\n".join(lines[:k + 1] + lines[k:])
        i = rng.randrange(len(text) + 1)
        j = rng.randrange(i, len(text) + 1)
        return text[:j] + text[i:j] + text[j:]
    if op == "delete":
        i = rng.randrange(len(text)) if text else 0
        return text[:i] + text[i + 1:]
    token = rng.choice(TOKENS)
    # a quarter of the tokens go to the start of a line, where a byte-order
    # mark is dropped, a quarter to a space, between two entries, and a
    # quarter between two digits of one entry
    place = rng.choice(("line", "space", "digits", "any"))
    if place == "line":
        places = [0] + [m.end() for m in re.finditer("\n", text)]
    elif place == "space":
        places = [m.start() for m in re.finditer(" ", text)]
    elif place == "digits":
        places = [m.start() for m in re.finditer("(?<=[0-9])[0-9]", text)]
    i = rng.choice(places) if place != "any" and places else rng.randrange(len(text) + 1)
    if op == "replace" and i < len(text):
        return text[:i] + token + text[i + 1:]
    return text[:i] + token + text[i:]


def _cases(rng: random.Random):
    shapes = (TETRAHEDRON, OCTAHEDRON, PYRAMID, AFT_FIXTURE)
    for _ in range(CASES):
        text = ""
        for _ in range(rng.randrange(1, 4)):
            vertices = rng.choice(shapes)
            if rng.random() < 0.5:  # entries of several digits
                vertices = apply_matrix(large_shear(rng, bound=99), vertices)
            text += _block(rng, vertices)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            text = _mutate(rng, text)
        yield text


def _file_text(text: str) -> str:
    """The text as the CLI reads it from a UTF-8 file: a leading byte-order
    mark dropped.  Its "\\r\\n" and "\\r" read as "\\n", as the reader
    reads them in a str too."""
    return text[1:] if text.startswith("\ufeff") else text


def _reports(records) -> dict:
    """Each record's report, classified in process; None for a record that
    fails the hull or ``classify``, which the command line rejects."""
    reports = {}
    for i, vertices in records:
        try:
            reports[i] = classify(convex_hull(vertices), polytope_id=i)
        except (ValueError, AssertionError):
            reports[i] = None
    return reports


def _assert_one_error_line(out: str, err: str, case: int) -> None:
    assert out == "" and err.startswith("error: "), case
    assert err.count("\n") == 1 and "Traceback" not in err, case


def _check_verify(path, expected, reports, failed, capsys, case) -> bool:
    """``fano3 verify`` against the lists of the reports classified in
    process: a match, then one id moved to a list that lacks it.  True when
    the mismatch ran."""
    lists = {name: sorted(i for i, rep in reports.items() if rep and getattr(rep, verdict))
             for name, verdict in LISTS.items()}
    expected.write_text(json.dumps(lists))
    code = main(["verify", str(path), "--expected", str(expected)])
    out, err = capsys.readouterr()
    assert code == (2 if failed else 0), case
    if code == 2:
        _assert_one_error_line(out, err, case)
        return False
    assert err == "" and out.endswith("\nall lists match\n"), case
    held = [name for name, ids in lists.items() if ids]
    if not held:
        return False
    moved = lists[held[0]][0]
    to = next(name for name, ids in lists.items() if moved not in ids)
    n, m = len(lists[held[0]]), len(lists[to])
    wrong = dict(lists, **{held[0]: lists[held[0]][1:], to: sorted(lists[to] + [moved])})
    expected.write_text(json.dumps(wrong))
    assert main(["verify", str(path), "--expected", str(expected)]) == 1, case
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\nMISMATCH\n"), case
    assert f"{held[0]}: computed {n}, expected {n - 1}\n  extra:   [{moved}]\n" in out, case
    assert f"{to}: computed {m}, expected {m + 1}\n  missing: [{moved}]\n" in out, case
    return True


def test_parse_palp_agrees_with_the_oracle(tmp_path, capsys):
    path, report = tmp_path / "db.palp", tmp_path / "report.json"
    seen, outcomes = set(), set()
    for case, text in enumerate(_cases(random.Random(0xF022))):
        expected = oracles.read_palp(text)
        try:
            got = [(rec.id, rec.vertices) for rec in db.parse_palp(text)]
        except db.DatabaseFormatError:
            got = None
        assert got == expected, (case, text[:200])
        mid_bom = any(line.startswith("\ufeff") for line in text.split("\n")[1:])
        kinds = {"\r": "\r" in text, "\x0b": "\x0b" in text, "\x85": "\x85" in text,
                 "mid-file bom": mid_bom, "4000 digits": "7" * 4000 in text,
                 "_": "_" in text, "\u0661": "\u0661" in text, "\x00": "\x00" in text}
        seen.update((kind, expected is not None) for kind, hit in kinds.items() if hit)

        if case % CLI_EVERY:
            continue
        # the same text as a file, through the command line
        path.write_bytes(text.encode())
        records = oracles.read_palp(_file_text(text))
        code = main(["lists", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2), case
        if code == 2:
            _assert_one_error_line(out, err, case)
        else:
            assert err == "" and records is not None, case
        # and the full report
        reports = {} if records is None else _reports(records)
        failed = records is None or None in reports.values()
        outcomes.add("rejected" if records is None else "failed" if failed else "written")
        code = main(["classify", str(path), "--out", str(report)])
        out, err = capsys.readouterr()
        assert code == (2 if failed else 0), case
        if code == 2:
            _assert_one_error_line(out, err, case)
        else:
            got = report.read_text()
            assert [row["id"] for row in json.loads(got)] == sorted(reports), case
            rows = [rep.to_dict() for _, rep in sorted(reports.items())]
            assert out == err == "" and got == json.dumps(rows, indent=1) + "\n", case
        if _check_verify(path, tmp_path / "expected.json", reports, failed, capsys, case):
            outcomes.add("mismatch")
        # inspect classifies only the record that it shows; with none, id 1
        # is unknown
        first = records[0][0] if records else 1
        code = main(["inspect", str(path), "--id", str(first)])
        out, err = capsys.readouterr()
        assert code == (0 if reports.get(first) else 2), case
        if code == 2:
            _assert_one_error_line(out, err, case)
        else:
            assert err == "" and out.startswith(f"polytope {first}\n"), case
            outcomes.add("inspected")
    # the command slice met a text the oracle rejects, one whose record fails
    # the hull or classify, one that gives a report, an inspected record and
    # a verify mismatch
    assert outcomes == {"rejected", "failed", "written", "inspected", "mismatch"}
    # each token class reached a rejected text, and each that a valid text
    # may hold reached an accepted one
    for kind in ("\r", "\x0b", "\x85", "mid-file bom", "4000 digits", "_", "\u0661", "\x00"):
        assert (kind, False) in seen, kind
    for kind in ("\r", "\x0b", "\x85", "mid-file bom", "4000 digits"):
        assert (kind, True) in seen, kind
