import json
import random
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import (
    AFT_FIXTURE,
    FANO_UNITARY_NOT_HEIGHT_ONE,
    NAMED_FANO,
    NOT_REFLEXIVE,
    PYRAMID,
    TETRAHEDRON,
    apply_matrix,
    large_shear,
)
from fano3 import db
from fano3.criteria import ClassificationReport, classify
from fano3.polytope import convex_hull

PYRAMID_PALP = """3 6
1 1 0 -1 0 0
0 1 1 0 -1 0
1 1 1 1 1 -1
"""

ROWWISE_PALP = """4 3
1 0 0
0 1 0
0 0 1
-1 -1 -1
"""


class TestParsePalp:
    def test_column_block(self):
        records = db.parse_palp(PYRAMID_PALP)
        assert len(records) == 1
        assert records[0].id == 1
        assert set(records[0].vertices) == set(PYRAMID)

    def test_row_block(self):
        records = db.parse_palp(ROWWISE_PALP)
        assert set(records[0].vertices) == set(TETRAHEDRON)

    def test_multiple_blocks_numbered_in_order(self):
        records = db.parse_palp(PYRAMID_PALP + ROWWISE_PALP)
        assert [r.id for r in records] == [1, 2]

    def test_header_comment_tokens_ignored(self):
        text = "3 6  M:7 6 N:8 6\n" + "\n".join(PYRAMID_PALP.splitlines()[1:]) + "\n"
        records = db.parse_palp(text)
        assert set(records[0].vertices) == set(PYRAMID)

    def test_square_block_reads_columns(self):
        text = "3 3\n1 0 0\n0 1 0\n0 0 1\n"
        records = db.parse_palp(text)
        assert records[0].vertices == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_empty_stream(self):
        assert db.parse_palp("") == []

    def test_no_dimension_three_axis(self):
        with pytest.raises(db.DatabaseFormatError, match="record 1"):
            db.parse_palp("4 5\n" + ("1 " * 5 + "\n") * 4)

    def test_truncated_matrix(self):
        with pytest.raises(db.DatabaseFormatError, match="truncated"):
            db.parse_palp("3 4\n1 0 0 0\n0 1 0 0\n")

    def test_non_integer_entry(self):
        with pytest.raises(db.DatabaseFormatError):
            db.parse_palp("3 4\n1 0 0 0\n0 1 0 0\n0 0 x 0\n")

    def test_bad_row_width(self):
        with pytest.raises(db.DatabaseFormatError, match="row"):
            db.parse_palp("3 4\n1 0 0 0\n0 1 0\n0 0 1 0\n")

    def test_sidecar_ids(self):
        records = db.parse_palp(PYRAMID_PALP + ROWWISE_PALP, ids=[700, 31])
        assert [r.id for r in records] == [700, 31]

    def test_sidecar_length_mismatch(self):
        with pytest.raises(db.DatabaseFormatError, match="sidecar"):
            db.parse_palp(PYRAMID_PALP, ids=[1, 2])


def _palp_case(rng: random.Random):
    """Seeded PALP text and the records it holds, as (id, vertices) pairs.

    The text mixes CRLF and LF line ends, tabs, blank and whitespace-only
    lines, byte-order marks at line starts, extra header tokens, both block
    orientations, signs, leading zeros and 300-digit entries.  A few rows
    put \\x0b, \\x1c or \\u2028 between two entries: whitespace to
    ``str.split``, but no line end when lines are split on "\\n" only.
    """
    def entry():
        roll = rng.random()
        if roll < 0.05:
            value = rng.randrange(10**299, 10**300)
        elif roll < 0.1:
            value = rng.randrange(-10**6, 10**6)
        else:
            value = rng.randrange(-3, 4)
        token = str(value)
        if value >= 0 and rng.random() < 0.05:
            token = "+" + token
        if rng.random() < 0.05:
            token = token.replace("-", "-0") if value < 0 else "0" + token.lstrip("+")
        return value, token

    def line(tokens):
        seps = [rng.choice([" ", "  ", "\t", " \t "]) for _ in tokens[1:]]
        if seps and rng.random() < 0.1:
            seps[rng.randrange(len(seps))] = rng.choice(["\x0b", "\x1c", " \u2028"])
        text = tokens[0] + "".join(sep + t for sep, t in zip(seps, tokens[1:]))
        lead = "\ufeff" if rng.random() < 0.05 else rng.choice(["", "", " ", "\t"])
        return lead + text + rng.choice(["", "", " ", "\t"]) + rng.choice(["\n", "\r\n"])

    text, records = "", []
    for index in range(1, rng.randrange(1, 8)):
        n = rng.randrange(3, 9)
        r, c = (3, n) if rng.random() < 0.5 else (n, 3)
        header = [str(r), str(c)] + rng.choice([[], ["M:12", "8"], ["N:5", "F:6", "x"]])
        text += line(header)
        values = []
        for _ in range(r):
            while rng.random() < 0.1:
                text += rng.choice(["\n", "\r\n", "  \n", "\t\r\n"])
            row = [entry() for _ in range(c)]
            values.append([v for v, _ in row])
            text += line([t for _, t in row])
        vertices = tuple(zip(*values)) if r == 3 else tuple(map(tuple, values))
        records.append((index, vertices))
    return text, records


class TestPalpReader:
    def test_seeded_texts(self, tmp_path):
        rng = random.Random(0x9A19)
        kinds = set()
        for case in range(300):
            text, expected = _palp_case(rng)
            kinds.add(text.isascii())
            kinds.update(c for c in ("\x0b", "\x1c", "\u2028", "\r\n", "\ufeff", "M:") if c in text)
            kinds.update(("300 digits",) if any(
                len(str(abs(x))) == 300 for _, vs in expected for v in vs for x in v) else ())
            got = [(rec.id, rec.vertices) for rec in db.parse_palp(text)]
            assert got == expected, case
            # a text file is read as the same text, its CRLF ends translated
            path = tmp_path / "case.palp"
            path.write_bytes(text.encode())
            with open(path, encoding="utf-8") as fh:
                assert [(rec.id, rec.vertices) for rec in db.parse_palp(fh)] == expected
            assert [(rec.id, rec.vertices) for rec in db.read_records(str(path))] == expected
        assert kinds == {True, False, "\x0b", "\x1c", "\u2028", "\r\n", "\ufeff", "M:", "300 digits"}

    @pytest.mark.parametrize("sep", ["\x0b", "\x1c", "\u2028"])
    def test_line_ends_only_at_newline(self, sep):
        # str.splitlines would end a line at each of these and cut the row
        text = f"3 4\n1 0 0 -1\n0 1{sep}0 -1\n0 0 1 -1\n"
        (record,) = db.parse_palp(text)
        assert record.vertices == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))

    @pytest.mark.parametrize("prefix", ["", "\ufeff"], ids=["ascii", "not_ascii"])
    def test_errors_name_their_cause_on_either_path(self, prefix):
        # the integer rule is decided once per text; on ASCII text int() reads
        # the rows, and _palp_ints still names each error
        with pytest.raises(db.DatabaseFormatError, match="record 1: non-integer entry"):
            db.parse_palp(prefix + "3 4\n1 0 0 0\n0 1 0 0\n0 0 1 x\n")
        with pytest.raises(db.DatabaseFormatError, match="record 1: non-integer header"):
            db.parse_palp(prefix + "3 4.0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n")
        with pytest.raises(db.DatabaseFormatError, match=r"over the \d+-digit limit"):
            db.parse_palp(prefix + "3 4\n1 0 0 0\n0 1 0 0\n0 0 1 " + "7" * 5000 + "\n")
        with pytest.raises(db.DatabaseFormatError, match="record 1: non-integer entry"):
            db.parse_palp(prefix + "3 4\n1 0 0 0\n0 1 0 0\n0 0 1 1_0\n")


class TestJsonRecords:
    def test_round_trip(self, tmp_path):
        records = [
            db.PolytopeRecord(id=5, vertices=tuple(PYRAMID)),
            db.PolytopeRecord(id=9, vertices=tuple(TETRAHEDRON)),
        ]
        path = tmp_path / "records.json"
        path.write_text(
            json.dumps([{"id": r.id, "vertices": [list(v) for v in r.vertices]} for r in records])
        )
        assert db.parse_json(path) == records

    def test_schema_errors_carry_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": 1, "vertices": [[1, 0]]}]))
        with pytest.raises(db.DatabaseFormatError, match="record 0"):
            db.parse_json(path)

    @pytest.mark.parametrize("coordinate", [1.7, "1", True])
    def test_non_integer_coordinate_rejected(self, tmp_path, coordinate):
        path = tmp_path / "coords.json"
        path.write_text(
            json.dumps(
                [
                    {"id": 1, "vertices": [list(v) for v in TETRAHEDRON]},
                    {"id": 2, "vertices": [[coordinate, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]},
                ]
            )
        )
        with pytest.raises(db.DatabaseFormatError, match="record 1: coordinates must be integers"):
            db.parse_json(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps(
                [
                    {"id": 1, "vertices": [list(v) for v in TETRAHEDRON]},
                    {"id": 1, "vertices": [list(v) for v in PYRAMID]},
                ]
            )
        )
        with pytest.raises(db.DatabaseFormatError, match="duplicate"):
            db.parse_json(path)

    def test_top_level_must_be_array(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text("{}")
        with pytest.raises(db.DatabaseFormatError):
            db.parse_json(path)

    def test_invalid_json_is_format_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(db.DatabaseFormatError, match="not valid JSON"):
            db.parse_json(path)
        with pytest.raises(db.DatabaseFormatError, match="not valid JSON"):
            db.load_expected_lists(path)


class TestExpectedLists:
    def test_bundled_reference_counts(self):
        ref = db.reference_lists()
        assert len(ref["L_smooth"]) == 18
        assert len(ref["L_isol"]) == 137
        assert len(ref["L_nodes"]) == 82
        assert len(ref["L_low"]) == 220
        assert len(ref["L_indec"] | ref["L_aft"]) == 442

    def test_bundled_reference_inclusions(self):
        ref = db.reference_lists()
        everything = set(range(1, 4320))
        assert ref["L_nodes"] <= ref["L_isol"]
        assert ref["L_isol"] <= everything - ref["L_smooth"]
        bad = ref["L_indec"] | ref["L_aft"]
        good = ref["L_smooth"] | ref["L_nodes"] | ref["L_low"]
        assert not bad & good

    def test_load_subset(self, tmp_path):
        path = tmp_path / "expected.json"
        path.write_text(json.dumps({"L_aft": [], "L_smooth": [1, 2]}))
        lists = db.load_expected_lists(path)
        assert tuple(lists) == ("L_smooth", "L_aft")
        assert lists["L_smooth"] == frozenset({1, 2})

    def test_union_size_read_as_integer(self, tmp_path):
        path = tmp_path / "expected.json"
        path.write_text(json.dumps({"union_indec_aft": 3, "L_indec": [1]}))
        assert db.load_expected_lists(path) == {"L_indec": {1}, "union_indec_aft": 3}

    @pytest.mark.parametrize("size", [True, 2.0, "2", [2]])
    def test_union_size_must_be_integer(self, tmp_path, size):
        path = tmp_path / "expected.json"
        path.write_text(json.dumps({"union_indec_aft": size}))
        with pytest.raises(db.DatabaseFormatError, match="union_indec_aft must be an integer"):
            db.load_expected_lists(path)

    def test_unknown_name_rejected(self, tmp_path):
        path = tmp_path / "expected.json"
        path.write_text(json.dumps({"L_bogus": [1]}))
        with pytest.raises(db.DatabaseFormatError):
            db.load_expected_lists(path)


class TestReports:
    @pytest.fixture()
    def reports(self):
        return [
            classify(convex_hull(TETRAHEDRON), polytope_id=2, m_max=2),
            classify(convex_hull(PYRAMID), polytope_id=1, m_max=2),
        ]

    def test_json_report_sorted_and_stable(self, reports, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        db.write_reports(reports, a)
        db.write_reports(list(reversed(reports)), b)
        assert a.read_bytes() == b.read_bytes()
        loaded = json.loads(a.read_text())
        assert [row["id"] for row in loaded] == [1, 2]
        assert loaded[0]["degree"] == 56
        assert loaded[1]["smooth"] is True

    def test_json_round_trip_equals_to_dict(self, reports, tmp_path):
        path = tmp_path / "r.json"
        db.write_reports(reports, path)
        loaded = json.loads(path.read_text())
        expected = sorted((r.to_dict() for r in reports), key=lambda d: d["id"])
        assert loaded == expected

    def test_csv_report(self, reports, tmp_path):
        path = tmp_path / "r.csv"
        db.write_reports(reports, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["id", "reflexive", "smooth"]
        assert len(lines) == 3
        assert lines[1].startswith("1,1,0")
        assert lines[2].startswith("2,1,1")

    def test_unknown_format(self, reports, tmp_path):
        with pytest.raises(ValueError):
            db.write_reports(reports, tmp_path / "r.xml", format="xml")


GOLDEN = Path(__file__).parent / "data"


def golden_reports():
    inputs = list(NAMED_FANO.values()) + [NOT_REFLEXIVE, FANO_UNITARY_NOT_HEIGHT_ONE]
    return [
        classify(convex_hull(vertices), polytope_id=i, m_max=2)
        for i, vertices in enumerate(inputs, start=1)
    ]


@pytest.mark.parametrize("format", ["json", "csv"])
def test_report_bytes_match_golden(tmp_path, format):
    # fixed bytes: they pin the report format independently of to_dict
    path = tmp_path / f"report.{format}"
    db.write_reports(golden_reports(), path, format=format)
    assert path.read_bytes() == (GOLDEN / f"golden_report.{format}").read_bytes()


def test_json_report_needs_no_json_encoder(tmp_path, monkeypatch):
    # the report is rendered from the fields: the golden bytes come out even
    # when the stdlib encoder, which json.dump would run, is broken
    def broken(self, o, _one_shot=False):
        raise AssertionError("json encoder called")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", broken)
    path = tmp_path / "report.json"
    db.write_reports(golden_reports(), path)
    assert path.read_bytes() == (GOLDEN / "golden_report.json").read_bytes()


def _pool_reports(reflexive_pool):
    rng = random.Random(0x4EF)
    inputs = reflexive_pool + [apply_matrix(large_shear(rng), pts) for pts in reflexive_pool]
    return [
        classify(convex_hull(pts), polytope_id=i, m_max=5)
        for i, pts in zip(rng.sample(range(10**6), len(inputs)), inputs)
    ]


def _fixture_reports():
    inputs = list(NAMED_FANO.values()) + [NOT_REFLEXIVE]
    return [
        classify(convex_hull(pts), polytope_id=i, m_max=3)
        for i, pts in enumerate(inputs, start=1)
    ]


def _sidecar_reports(tmp_path):
    palp, sidecar = tmp_path / "db.palp", tmp_path / "ids.json"
    palp.write_text(PYRAMID_PALP + ROWWISE_PALP + ROWWISE_PALP)
    sidecar.write_text(json.dumps([2**64 + 3, -7, 2**63]))
    return [
        classify(convex_hull(rec.vertices), polytope_id=rec.id)
        for rec in db.read_records(str(palp), str(sidecar))
    ]


# the two tuples that classify never leaves empty, the facet classes and the
# Hilbert coefficients, empty: the dataclass admits it, so the writer must too
HAND_BUILT = ClassificationReport(
    polytope_id=-(2**80), reflexive=False, facet_classes=(), totaro_rigid=False,
    rigid_face_obstruction=False, rigid_face_witnesses=(), hilbert=(),
)


class TestJsonReportBytes:
    """The JSON report is the bytes json.dumps writes for the sorted rows.

    The reports checked below reach every branch of the writer, as
    ``test_checked_reports_reach_every_branch`` asserts, so a change to the
    pool or the fixtures cannot drop one from the comparison unseen.
    """

    @staticmethod
    def assert_dumps_bytes(reports, path):
        db.write_reports(reports, path)
        rows = sorted((rep.to_dict() for rep in reports), key=lambda d: d["id"])
        assert path.read_text() == json.dumps(rows, indent=1) + "\n"

    def test_pool_and_moves(self, reflexive_pool, tmp_path):
        self.assert_dumps_bytes(_pool_reports(reflexive_pool), tmp_path / "r.json")

    def test_fixtures_with_none_fields(self, tmp_path):
        reports = _fixture_reports()
        assert reports[-1].degree is None and reports[-1].hilbert is None
        self.assert_dumps_bytes(reports, tmp_path / "r.json")

    def test_aft_pairs(self, tmp_path):
        report = classify(convex_hull(AFT_FIXTURE), polytope_id=5, m_max=0)
        assert report.aft_witnesses
        self.assert_dumps_bytes([report], tmp_path / "r.json")

    def test_sidecar_ids_beyond_int64(self, tmp_path):
        self.assert_dumps_bytes(_sidecar_reports(tmp_path), tmp_path / "r.json")

    def test_empty_tuples_classify_never_makes(self, tmp_path):
        self.assert_dumps_bytes([HAND_BUILT], tmp_path / "r.json")

    def test_checked_reports_reach_every_branch(self, reflexive_pool, tmp_path):
        reports = [
            *_pool_reports(reflexive_pool), *_fixture_reports(), *_sidecar_reports(tmp_path),
            HAND_BUILT,
        ]
        for f in fields(ClassificationReport):
            values = [getattr(rep, f.name) for rep in reports]
            if f.type.startswith("tuple"):  # the Hilbert tuple may be None too
                assert () in values and any(values), f.name
            elif f.type.startswith("bool"):
                kinds = {True, False, None} if "None" in f.type else {True, False}
                assert set(values) == kinds, f.name
        for name in ("degree", "hilbert"):
            values = [getattr(rep, name) for rep in reports]
            assert None in values and any(v is not None for v in values), name
        assert any(abs(rep.polytope_id) >= 2**63 for rep in reports)

    def test_no_reports(self, tmp_path):
        self.assert_dumps_bytes([], tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text() == "[]\n"
