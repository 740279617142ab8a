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


@pytest.fixture()
def db_path(tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(FIXTURE_DB))
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

    def test_jobs_do_not_change_output(self, db_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["classify", str(db_path), "--out", str(a)]) == 0
        assert main(["classify", str(db_path), "--out", str(b), "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_palp_input(self, tmp_path):
        palp = tmp_path / "db.txt"
        palp.write_text("3 6\n1 1 0 -1 0 0\n0 1 1 0 -1 0\n1 1 1 1 1 -1\n")
        out = tmp_path / "report.json"
        assert main(["classify", str(palp), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["degree"] == 56

    def test_missing_file_is_input_error(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["classify", str(tmp_path / "nope.json"), "--out", str(out)]) == 2

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

    def test_empty_database(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["lists", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload[name] == [] for name in
                   ("L_smooth", "L_isol", "L_nodes", "L_low", "L_indec", "L_aft"))
        assert payload["union_indec_aft"] == 0


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

    def test_subset_of_lists(self, db_path, tmp_path):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({"L_nodes": [5]}))
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 0

    def test_malformed_expected_is_input_error(self, db_path, tmp_path):
        exp = tmp_path / "expected.json"
        exp.write_text("oops")
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 2

    def test_bool_expected_id_is_input_error(self, db_path, tmp_path, capsys):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({"L_smooth": [True, 2]}))
        assert main(["verify", str(db_path), "--expected", str(exp)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: list L_smooth must hold integer ids"]


class TestInspectCommand:
    def test_dump_contains_key_facts(self, db_path, capsys):
        assert main(["inspect", str(db_path), "--id", "4"]) == 0
        out = capsys.readouterr().out
        assert "polytope 4" in out
        assert "degree: 56" in out
        assert "standard-triangle" in out
        assert "maximal decomposition 0" in out

    def test_lift_rays_printed(self, db_path, capsys):
        assert main(["inspect", str(db_path), "--id", "4", "--lift"]) == 0
        out = capsys.readouterr().out
        assert "lifted rays" in out

    def test_unknown_id(self, db_path):
        assert main(["inspect", str(db_path), "--id", "99"]) == 2


def test_startup_imports_no_numpy():
    # the CLI starts once per run, so a heavy import shows in every run
    src = str(Path(fano3.__file__).resolve().parents[1])
    code = "import sys, fano3.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
