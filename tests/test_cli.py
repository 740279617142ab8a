import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    AFT_FIXTURE,
    CUBE,
    NODES_FIXTURE,
    OCTAHEDRON,
    PYRAMID,
    RIGID_FIXTURE,
    TETRAHEDRON,
)
import fano3
from fano3 import cli, db
from fano3.cli import main

FIXTURE_DB = [
    {"id": 1, "vertices": [list(v) for v in TETRAHEDRON]},
    {"id": 2, "vertices": [list(v) for v in OCTAHEDRON]},
    {"id": 3, "vertices": [list(v) for v in CUBE]},
    {"id": 4, "vertices": [list(v) for v in PYRAMID]},
    {"id": 5, "vertices": [list(v) for v in NODES_FIXTURE]},
    {"id": 6, "vertices": [list(v) for v in AFT_FIXTURE]},
    {"id": 7, "vertices": [list(v) for v in RIGID_FIXTURE]},
]

# the pentagon pyramid (id 1) and the simplex of P^3 (id 2), the records
# of the CI smoke test
SMOKE_PALP = "3 6\n1 1 0 -1 0 0\n0 1 1 0 -1 0\n1 1 1 1 1 -1\n4 3\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"
NOT_FANO = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]]
# a unit square in the plane z = 0: no 3-polytope
FLAT_PALP = "4 3\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n"


@pytest.fixture()
def db_path(tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(FIXTURE_DB))
    return path


@pytest.fixture()
def pool_workers(monkeypatch):
    """The max_workers of each process pool the CLI asks for; none is started."""
    workers = []

    class FakePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return workers


def repeated_db(tmp_path, count: int) -> Path:
    """The fixtures repeated under ids 1..count."""
    rows = [
        {"id": i, "vertices": FIXTURE_DB[(i - 1) % len(FIXTURE_DB)]["vertices"]}
        for i in range(1, count + 1)
    ]
    path = tmp_path / f"fixtures-{count}.json"
    path.write_text(json.dumps(rows))
    return path


class TestClassifyCommand:
    def test_json_report(self, db_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["classify", str(db_path), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [r["id"] for r in rows] == [1, 2, 3, 4, 5, 6, 7]
        pyramid = rows[3]
        assert pyramid["degree"] == 56
        assert pyramid["hilbert"] == [1, 31, 145, 399, 849, 1551]

    def test_csv_report(self, db_path, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["classify", str(db_path), "--out", str(out), "--report", "csv"]) == 0
        assert len(out.read_text().splitlines()) == 8

    def test_jobs_do_not_change_output(self, tmp_path):
        # more records than one chunk of 32, so --jobs 2 runs a real pool
        path = repeated_db(tmp_path, 70)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["classify", str(path), "--out", str(a)]) == 0
        assert main(["classify", str(path), "--out", str(b), "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert [row["id"] for row in json.loads(a.read_text())] == list(range(1, 71))

    @pytest.mark.parametrize(
        "records, jobs, started", [(10, 64, []), (70, 2, [2]), (70, 64, [3])]
    )
    def test_pool_workers_capped_at_chunks(
        self, tmp_path, monkeypatch, pool_workers, records, jobs, started
    ):
        # a fork pool starts all its workers at once, so it gets at most one
        # per chunk of 32 records, and a single chunk runs inline; there are
        # more CPUs than any case asks for
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
        path = repeated_db(tmp_path, records)
        out = tmp_path / "lists.json"
        assert main(["lists", str(path), "--out", str(out), "--jobs", str(jobs)]) == 0
        assert pool_workers == started
        assert json.loads(out.read_text())["L_smooth"][:2] == [1, 2]

    @pytest.mark.parametrize(
        "jobs, cpus, started", [(10000, 4, [4]), (3, 4, [3]), (10000, 1, []), (10000, None, [])]
    )
    def test_pool_workers_capped_at_cpus(
        self, tmp_path, monkeypatch, pool_workers, jobs, cpus, started
    ):
        # 320 records are ten chunks: the CPU count caps the pool below that,
        # and one CPU, or an unknown count (None), runs inline
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        path = repeated_db(tmp_path, 320)
        out = tmp_path / "lists.json"
        assert main(["lists", str(path), "--out", str(out), "--jobs", str(jobs)]) == 0
        assert pool_workers == started
        assert json.loads(out.read_text())["L_smooth"][:4] == [1, 2, 8, 9]

    def test_palp_input(self, tmp_path):
        palp = tmp_path / "db.txt"
        palp.write_text("3 6\n1 1 0 -1 0 0\n0 1 1 0 -1 0\n1 1 1 1 1 -1\n")
        out = tmp_path / "report.json"
        assert main(["classify", str(palp), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["degree"] == 56

    @pytest.mark.parametrize("role", ["palp", "json", "sidecar", "expected"])
    def test_missing_file_is_input_error(self, db_path, tmp_path, capsys, role):
        missing = tmp_path / ("nope.palp" if role == "palp" else "nope.json")
        palp = tmp_path / "db.palp"
        palp.write_text(SMOKE_PALP)
        out = tmp_path / "report.json"
        argv = {
            "palp": ["lists", str(missing)],
            "json": ["classify", str(missing), "--out", str(out)],
            "sidecar": ["lists", str(palp), "--sidecar", str(missing)],
            "expected": ["verify", str(db_path), "--expected", str(missing)],
        }[role]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{{{")
        out = tmp_path / "report.json"
        assert main(["classify", str(bad), "--out", str(out)]) == 2

    def test_negative_mmax_is_input_error(self, db_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["classify", str(db_path), "--out", str(out), "--mmax", "-1"]) == 2
        assert not out.exists()
        assert main(["inspect", str(db_path), "--id", "4", "--mmax", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --mmax must be nonnegative, got -1"] * 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_input_error(self, db_path, tmp_path, capsys, jobs):
        out = tmp_path / "report.json"
        assert main(["classify", str(db_path), "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --jobs must be at least 1, got {jobs}"]

    @pytest.mark.parametrize("command", ["classify", "lists"])
    def test_unwritable_out_is_input_error(self, db_path, tmp_path, capsys, command):
        out = tmp_path / "no-such-dir" / "out.json"
        assert main([command, str(db_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}")

    def test_degenerate_record_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"id": 1, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}]))
        out = tmp_path / "report.json"
        assert main(["classify", str(bad), "--out", str(out)]) == 2

    @pytest.mark.parametrize("command", ["lists", "verify", "inspect"])
    def test_failed_hull_guard_is_input_error(self, tmp_path, monkeypatch, capsys, command):
        # a facet wrap that walks each cycle backwards makes the cube's hull
        # fail a guard: one "hull" error line and exit 2, not verify's 1
        wrap = fano3.polytope._wrap

        def backwards_wrap(pts, u, v, m):
            normal, height, area2, cycle, others = wrap(pts, u, v, m)
            return normal, height, area2, cycle[::-1], others

        monkeypatch.setattr(fano3.polytope, "_wrap", backwards_wrap)
        path = tmp_path / "cube.json"
        path.write_text(json.dumps([{"id": 3, "vertices": [list(v) for v in CUBE]}]))
        argv = {
            "lists": ["lists", str(path), "--jobs", "1"],
            "verify": ["verify", str(path), "--jobs", "1"],
            "inspect": ["inspect", str(path), "--id", "3"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: polytope 3: hull: hull edge on a single facet"
        ]

    @pytest.mark.parametrize("command", ["lists", "classify"])
    def test_error_in_process_pool_is_input_error(self, tmp_path, capsys, command):
        # 40 records are two chunks of 32, so --jobs 2 runs a real pool, and
        # record 35, a flat square, fails in the second worker's chunk
        simplex = SMOKE_PALP[SMOKE_PALP.index("4 3"):]
        palp = tmp_path / "bad40.palp"
        palp.write_text(SMOKE_PALP * 17 + FLAT_PALP + simplex + SMOKE_PALP * 2)
        out = tmp_path / "out.json"
        assert main([command, str(palp), "--out", str(out), "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: polytope 35: points are coplanar, expected dimension 3"
        ]
        assert not out.exists()


class TestListsCommand:
    def test_lists_output(self, db_path, tmp_path, capsys):
        assert main(["lists", str(db_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["L_smooth"] == [1, 2]
        assert payload["L_isol"] == [4, 5, 7]
        assert payload["L_nodes"] == [5]
        assert payload["L_low"] == [3]
        assert payload["L_indec"] == [7]
        assert payload["L_aft"] == [6]
        assert payload["union_indec_aft"] == 2

    def test_lists_to_file(self, db_path, tmp_path):
        out = tmp_path / "lists.json"
        assert main(["lists", str(db_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["L_smooth"] == [1, 2]

    def test_json_extension_in_any_case(self, db_path, tmp_path, capsys):
        upper = tmp_path / "DB.JSON"
        upper.write_text(db_path.read_text())
        assert main(["lists", str(db_path)]) == 0
        lower_out = capsys.readouterr().out
        assert main(["lists", str(upper)]) == 0
        assert capsys.readouterr().out == lower_out

    def test_sidecar_renumbers_palp_records(self, tmp_path, capsys):
        palp = tmp_path / "db.palp"
        palp.write_text(SMOKE_PALP)
        sidecar = tmp_path / "ids.json"
        sidecar.write_text("[7, 9]")
        assert main(["lists", str(palp), "--sidecar", str(sidecar)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["L_smooth"] == [9]
        assert payload["L_isol"] == [7]

    def test_carriage_returns_end_palp_lines(self, tmp_path, capsys):
        # a lone "\r" ends a line in a str as in a file, so parse_palp and
        # the command line read one record from it, the record of "\n"
        text = "3 4\r1 0 0 -1\r0 1 0 -1\r0 0 1 -1\r"
        vertices = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
        assert [(rec.id, rec.vertices) for rec in db.parse_palp(text)] == [(1, vertices)]
        outputs = []
        for name, ending in (("cr.palp", "\r"), ("lf.palp", "\n")):
            path = tmp_path / name
            path.write_bytes(text.replace("\r", ending).encode())
            assert main(["lists", str(path)]) == 0
            assert main(["inspect", str(path), "--id", "1"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0].out.split("\npolytope 1\n")[0])["L_smooth"] == [1]
        assert "".join(f"    {v}\n" for v in vertices) in outputs[0].out

    def test_bool_ids_are_input_errors(self, tmp_path, capsys):
        verts = [list(v) for v in OCTAHEDRON]
        as_json = tmp_path / "bool.json"
        as_json.write_text(json.dumps([{"id": True, "vertices": verts}]))
        palp = tmp_path / "db.txt"
        palp.write_text("6 3\n" + "\n".join(" ".join(map(str, v)) for v in verts) + "\n")
        sidecar = tmp_path / "ids.json"
        sidecar.write_text(json.dumps([True]))
        assert main(["lists", str(as_json)]) == 2
        assert main(["lists", str(palp), "--sidecar", str(sidecar)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    @pytest.mark.parametrize("coordinate", [1.7, "1", True])
    def test_non_integer_coordinate_is_input_error(self, tmp_path, capsys, coordinate):
        verts = [[coordinate, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
        path = tmp_path / "coords.json"
        path.write_text(json.dumps([{"id": 1, "vertices": verts}]))
        assert main(["lists", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: record 0: coordinates must be integers"]

    def test_square_palp_block_is_input_error(self, tmp_path, capsys):
        # three points under either reading of the block: never a 3-polytope
        palp = tmp_path / "square.txt"
        palp.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
        assert main(["lists", str(palp)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: polytope 1: ")

    def test_empty_database(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["lists", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload[name] == [] for name in
                   ("L_smooth", "L_isol", "L_nodes", "L_low", "L_indec", "L_aft"))
        assert payload["union_indec_aft"] == 0


def test_main_calls_share_no_state(db_path, tmp_path, capsys):
    # the parser is built once per process; an option of one call must not
    # carry over to the next
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "lists.json"
    assert main(["lists", str(db_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["lists", str(db_path)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())
    report = tmp_path / "report"
    assert main(["classify", str(db_path), "--out", str(report), "--report", "csv"]) == 0
    assert report.read_text().startswith("id,")
    assert main(["classify", str(db_path), "--out", str(report)]) == 0
    assert [row["id"] for row in json.loads(report.read_text())] == list(range(1, 8))


class TestVerifyCommand:
    def expected(self):
        return {
            "L_smooth": [1, 2],
            "L_isol": [4, 5, 7],
            "L_nodes": [5],
            "L_low": [3],
            "L_indec": [7],
            "L_aft": [6],
        }

    def test_match(self, db_path, tmp_path, capsys):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps(self.expected()))
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 0
        out = capsys.readouterr().out
        assert "all lists match" in out
        assert "|L_indec u L_aft| = 2" in out

    def test_mismatch_exit_code_and_diff(self, db_path, tmp_path, capsys):
        wrong = self.expected()
        wrong["L_smooth"] = [1, 2, 3]
        wrong["L_aft"] = []
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps(wrong))
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 1
        out = capsys.readouterr().out
        assert "missing: [3]" in out
        assert "extra:   [6]" in out

    def test_diff_shows_ten_ids_per_list(self, db_path, tmp_path, capsys):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({"L_smooth": [1, 2, *range(100, 112)], "L_nodes": []}))
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == [
            "L_smooth: computed 2, expected 14",
            f"  missing: {list(range(100, 110))} (+2 more)",
            "L_nodes: computed 1, expected 0",
            "  extra:   [5]",
        ]

    def test_subset_of_lists(self, db_path, tmp_path):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({"L_nodes": [5]}))
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 0

    def test_malformed_expected_is_input_error(self, db_path, tmp_path):
        exp = tmp_path / "expected.json"
        exp.write_text("oops")
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 2

    @pytest.mark.parametrize("text", ["oops", "[1]"], ids=["not_json", "not_object"])
    def test_bad_expected_fails_before_classifying(
        self, db_path, tmp_path, monkeypatch, capsys, text
    ):
        def no_classify(*args):
            raise AssertionError("classified before the expected file was read")

        monkeypatch.setattr(cli, "_classify_all", no_classify)
        exp = tmp_path / "expected.json"
        exp.write_text(text)
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_lists_output_round_trips(self, db_path, tmp_path, capsys):
        lists = tmp_path / "lists.json"
        assert main(["lists", str(db_path), "--out", str(lists)]) == 0
        assert main(["verify", str(db_path), "--expected", str(lists)]) == 0
        assert "all lists match" in capsys.readouterr().out

    def test_union_size_mismatch(self, db_path, tmp_path, capsys):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({**self.expected(), "union_indec_aft": 3}))
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "union_indec_aft: computed 2, expected 3" in out
        assert out[-1] == "MISMATCH"

    def test_bool_union_size_is_input_error(self, db_path, tmp_path, capsys):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({**self.expected(), "union_indec_aft": True}))
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: union_indec_aft must be an integer"]

    def test_bool_expected_id_is_input_error(self, db_path, tmp_path, capsys):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({"L_smooth": [True, 2]}))
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: list L_smooth must hold integer ids"]


@pytest.mark.parametrize("bad_file", ["palp", "json", "sidecar", "expected"])
def test_non_utf8_input_is_input_error(db_path, tmp_path, capsys, bad_file):
    bad = tmp_path / f"bad.{'palp' if bad_file == 'palp' else 'json'}"
    bad.write_bytes(b"\xff\xfe\x00bad\n")
    palp = tmp_path / "db.palp"
    palp.write_text("4 3\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n")
    argv = {
        "palp": ["lists", str(bad)],
        "json": ["lists", str(bad)],
        "sidecar": ["lists", str(palp), "--sidecar", str(bad)],
        "expected": ["verify", str(db_path), "--expected", str(bad)],
    }[bad_file]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: not UTF-8 text")


@pytest.mark.parametrize("role", ["palp", "palp_twice", "json", "sidecar", "expected"])
def test_byte_order_mark_is_ignored(db_path, tmp_path, capsys, role):
    palp = tmp_path / "db.palp"
    palp.write_text(SMOKE_PALP)
    # marked twice, as two marked files concatenated: a mark starts record 3
    twice = tmp_path / "twice.palp"
    twice.write_text(SMOKE_PALP * 2)
    sidecar = tmp_path / "ids.json"
    sidecar.write_text("[7, 9]")
    expected = tmp_path / "expected.json"
    assert main(["lists", str(db_path), "--out", str(expected)]) == 0
    argv, marked = {
        "palp": (["lists", str(palp)], palp),
        "palp_twice": (["lists", str(twice)], twice),
        "json": (["lists", str(db_path)], db_path),
        "sidecar": (["lists", str(palp), "--sidecar", str(sidecar)], sidecar),
        "expected": (["verify", str(db_path), "--expected", str(expected)], expected),
    }[role]
    assert main(argv) == 0
    plain = capsys.readouterr()
    copies = 2 if role == "palp_twice" else 1
    part = marked.read_bytes()[: marked.stat().st_size // copies]
    marked.write_bytes((b"\xef\xbb\xbf" + part) * copies)
    assert main(argv) == 0
    assert capsys.readouterr() == plain


# JSON that the decoder rejects past JSONDecodeError: nesting deeper than the
# recursion limit, and an integer over the int/str conversion digit limit
UNREADABLE_JSON = [pytest.param("[" * 200000, id="deep")]
if hasattr(sys, "get_int_max_str_digits"):
    UNREADABLE_JSON.append(pytest.param("[" + "1" * 5000 + "]", id="long-int"))


@pytest.mark.parametrize("text", UNREADABLE_JSON)
@pytest.mark.parametrize("role", ["database", "sidecar", "expected"])
def test_unreadable_json_is_input_error(db_path, tmp_path, capsys, role, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    palp = tmp_path / "db.palp"
    palp.write_text("4 3\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n")
    argv = {
        "database": ["lists", str(bad)],
        "sidecar": ["lists", str(palp), "--sidecar", str(bad)],
        "expected": ["verify", str(db_path), "--expected", str(bad)],
    }[role]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: not valid JSON (")
    assert "Traceback" not in err


# the int/str conversion digit limit, where the interpreter has one
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "files, argv, message",
    [
        (
            {"db.palp": SMOKE_PALP, "ids.json": '{"ids": [7, 9]}'},
            ["lists", "db.palp", "--sidecar", "ids.json"],
            "sidecar must be a JSON array of integer ids",
        ),
        (
            {"db.json": "[]", "ids.json": "[7, 9]"},
            ["lists", "db.json", "--sidecar", "ids.json"],
            "id sidecars apply to palp input only",
        ),
        (
            {"db.json": json.dumps([{"id": 3, "vertices": NOT_FANO}])},
            ["inspect", "db.json", "--id", "3"],
            "polytope 3: classification requires a Fano polytope",
        ),
        ({"db.palp": "3\n"}, ["lists", "db.palp"], "record 1: malformed header '3'"),
        ({"db.palp": "3 x\n"}, ["lists", "db.palp"], "record 1: non-integer header"),
        ({"db.palp": "0 3\n"}, ["lists", "db.palp"], "record 1: bad shape 0x3"),
        (
            {"db.palp": "4 3\n1_0 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"},
            ["lists", "db.palp"],
            "record 1: non-integer entry",
        ),
        (
            {"db.palp": "4 3\n\u0661 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"},
            ["lists", "db.palp"],
            "record 1: non-integer entry",
        ),
        # only a byte-order mark that starts a line is dropped
        (
            {"db.palp": "4 3\n1\ufeff0 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"},
            ["lists", "db.palp"],
            "record 1: non-integer entry",
        ),
        (
            {"db.palp": "4 3\n1 \ufeff0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"},
            ["lists", "db.palp"],
            "record 1: non-integer entry",
        ),
        (
            {"db.json": "[]", "e.json": "[1, 2]"},
            ["verify", "db.json", "--expected", "e.json"],
            "expected-lists file must be a JSON object",
        ),
        (
            {"db.palp": SMOKE_PALP},
            ["lists", "db.palp", "--sidecar", ""],
            "[Errno 2] No such file or directory: ''",
        ),
        (
            {"db.json": "[]"},
            ["verify", "db.json", "--expected", ""],
            "[Errno 2] No such file or directory: ''",
        ),
        (
            {"db.json": "[]"},
            ["lists", "db.json", "--out", ""],
            "cannot write : Is a directory",
        ),
        ({"db.json": '["x"]'}, ["lists", "db.json"], "record 0: must be a JSON object"),
        pytest.param(
            {"db.palp": "4 3\n" + "1" * 5000 + " 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"},
            ["lists", "db.palp"],
            f"record 1: entry over the {DIGIT_LIMIT}-digit limit",
            marks=pytest.mark.skipif(
                not 0 < DIGIT_LIMIT < 5000, reason="no int/str digit limit below 5000"
            ),
        ),
        pytest.param(
            {"db.palp": "1" * 5000 + " 3\n"},
            ["lists", "db.palp"],
            f"record 1: header over the {DIGIT_LIMIT}-digit limit",
            marks=pytest.mark.skipif(
                not 0 < DIGIT_LIMIT < 5000, reason="no int/str digit limit below 5000"
            ),
        ),
    ],
    ids=[
        "sidecar_object",
        "sidecar_with_json",
        "inspect_not_fano",
        "palp_header_3",
        "palp_header_3_x",
        "palp_header_0_3",
        "palp_entry_underscore",
        "palp_entry_arabic_indic_digit",
        "palp_entry_inner_byte_order_mark",
        "palp_entry_byte_order_mark_after_space",
        "expected_not_object",
        "sidecar_empty_path",
        "expected_empty_path",
        "lists_out_empty_path",
        "json_record_not_object",
        "palp_entry_over_digit_limit",
        "palp_header_over_digit_limit",
    ],
)
def test_input_error_messages(tmp_path, monkeypatch, capsys, files, argv, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "db.palp", "--out", "report.json"], 141),
        (["lists", "db.palp"], 141),
        (["verify", "db.palp", "--expected", "expected.json"], 141),
        (["inspect", "db.palp", "--id", "1", "--lift"], 141),
        (["classify", "db.palp", "--out", "/dev/stdout"], 141),
        (["lists", "db.palp", "--out", "/dev/stdout"], 141),
        (["lists", "missing.palp"], 2),
    ],
    ids=["classify", "lists", "verify", "inspect", "classify_out", "lists_out", "input_error"],
)
def test_closed_stdout(tmp_path, argv, code):
    # stdout is a pipe whose read end is closed before the command starts, so
    # its first write fails, as under `fano3 inspect ... | head -2` once head
    # is done: exit 141 with nothing printed, also when --out names that pipe;
    # an input error is still one "error: " line with exit 2
    (tmp_path / "db.palp").write_text(SMOKE_PALP)
    (tmp_path / "expected.json").write_text('{"L_smooth": [2], "L_isol": [1]}')
    src = str(Path(fano3.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fano3.cli", *argv], cwd=tmp_path, stdout=write,
            stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write)
    assert proc.returncode == code
    if code == 141:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _read_only_fd2():
    os.close(2)
    os.set_inheritable(os.open(os.devnull, os.O_RDONLY), True)  # the lowest free fd: 2


@pytest.mark.parametrize(
    "close_stderr", [lambda: os.close(2), _read_only_fd2], ids=["closed", "read_only"]
)
def test_input_error_with_stderr_closed(tmp_path, close_stderr):
    # with no fd 2 Python starts with sys.stderr None; a read-only file on
    # fd 2, as a launcher script that bash reads can leave there, fails each
    # write.  The error line is then lost, but the status is still the input
    # error's 2, not the 1 of a verify mismatch, and stdout stays empty
    src = str(Path(fano3.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fano3.cli", "lists", "missing.palp"], cwd=tmp_path,
        stdout=subprocess.PIPE, preexec_fn=close_stderr,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert proc.stdout == b""


class TestInspectCommand:
    def test_dump_contains_key_facts(self, db_path, capsys):
        assert main(["inspect", str(db_path), "--id", "4"]) == 0
        out = capsys.readouterr().out
        assert "polytope 4" in out
        assert "degree: 56" in out
        assert "standard-triangle" in out
        assert "maximal decomposition 0" in out

    def test_prints_the_report_row(self, db_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["classify", str(db_path), "--out", str(out)]) == 0
        row = json.loads(out.read_text())[5]
        assert row["aft_witnesses"] == [[2, 3]]
        capsys.readouterr()
        assert main(["inspect", str(db_path), "--id", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for key, value in row.items():
            assert f"  {key}: {json.dumps(value)}" in lines

    def test_lift_rays_printed(self, db_path, capsys):
        assert main(["inspect", str(db_path), "--id", "4", "--lift"]) == 0
        out = capsys.readouterr().out
        assert "lifted rays" in out

    def test_unknown_id(self, db_path):
        assert main(["inspect", str(db_path), "--id", "99"]) == 2

    def test_no_jobs_option(self, db_path, capsys):
        # inspect runs one record in this process: --jobs is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["inspect", str(db_path), "--id", "4", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_output_matches_golden(self, tmp_path, capsys):
        # fixed bytes: they pin the hull's vertex order, each facet cycle and
        # where it starts, the polygons, decompositions and lifted rays
        fixtures = (PYRAMID, NODES_FIXTURE, AFT_FIXTURE)
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(
            [{"id": i, "vertices": [list(v) for v in pts]} for i, pts in enumerate(fixtures, 1)]
        ))
        for i in range(1, len(fixtures) + 1):
            assert main(["inspect", str(path), "--id", str(i), "--lift"]) == 0
        golden = Path(__file__).parent / "data" / "golden_inspect.txt"
        assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_startup_imports_no_numpy():
    # the CLI starts once per run, so a heavy import shows in every run
    src = str(Path(fano3.__file__).resolve().parents[1])
    code = "import sys, fano3.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_startup_imports_no_process_pool():
    # the pool is imported only when a run has more than one chunk to share
    src = str(Path(fano3.__file__).resolve().parents[1])
    code = "import sys, fano3.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
