"""Self-tests of the benchmark: python -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

OCTAHEDRON = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))
CUBE = tuple((x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1))
TETRAHEDRON = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
PYRAMID = ((1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1))
FIXTURES = (OCTAHEDRON, CUBE, TETRAHEDRON, PYRAMID)


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


@pytest.fixture(scope="module")
def fixture_rows(tmp_path_factory):
    return run.reference_rows(FIXTURES, tmp_path_factory.mktemp("rows"))


def test_generator_is_deterministic_per_seed():
    pool = inputs.pool_records(7)
    assert pool == inputs.pool_records(7)
    assert pool != inputs.pool_records(8)
    assert inputs.moved_records(7, pool[:20]) == inputs.moved_records(7, pool[:20])
    assert inputs.to_palp(pool) == inputs.to_palp(inputs.pool_records(7))


def test_pool_is_reflexive_and_closed_under_duality():
    pool = inputs.pool_records(1)
    half = inputs.POOL_SIZE
    assert len(pool) == 2 * half
    for member, polar in zip(pool[:half], pool[half:]):
        assert inputs.is_reflexive_facets(inputs.brute_facets(member))
        assert inputs.is_reflexive_facets(inputs.brute_facets(polar))
        assert set(inputs.brute_facets(polar)) == set(member)


def test_moves_keep_the_box_cap():
    pool = inputs.pool_records(2)[:40]
    for verts in inputs.moved_records(2, pool):
        assert inputs.dual_box_cells(inputs.brute_facets(verts)) <= inputs.MOVE_CELL_CAP


@pytest.mark.parametrize(
    "verts, points",
    [(OCTAHEDRON, 27), (CUBE, 7), (TETRAHEDRON, 35), (PYRAMID, 31)],
)
def test_oracle_on_named_fixtures(verts, points):
    # |P° ∩ Z^3| = h^0(-K) = degree / 2 + 3: 48, 8, 64 and 56 for these
    assert checks.dual_lattice_points(verts) == points


def test_checks_pass_on_true_reports(fixture_rows):
    ids = [row["id"] for row in fixture_rows]
    lists = checks.lists_from_reports(fixture_rows)
    payload = dict(lists, union_indec_aft=len(set(lists["L_indec"]) | set(lists["L_aft"])))
    assert checks.check_third_difference(fixture_rows) == []
    assert checks.check_h1(fixture_rows, dict(zip(ids, FIXTURES)), seed=0) == []
    assert checks.check_lists(payload, lists) == []
    assert checks.check_inclusions(lists, ids) == []
    assert checks.check_invariance(fixture_rows, fixture_rows) == []


def test_changed_degree_trips_the_hilbert_check(fixture_rows):
    rows = copy.deepcopy(fixture_rows)
    rows[2]["degree"] += 2
    assert checks.check_third_difference(rows)


def test_changed_h1_trips_the_oracle(fixture_rows):
    rows = copy.deepcopy(fixture_rows)
    rows[0]["hilbert"][1] += 1
    ids = [row["id"] for row in rows]
    assert checks.check_h1(rows, dict(zip(ids, FIXTURES)), seed=0)


def test_changed_verdict_trips_invariance_and_lists(fixture_rows):
    rows = copy.deepcopy(fixture_rows)
    rows[1]["smooth"] = not rows[1]["smooth"]
    assert checks.check_invariance(fixture_rows, rows)
    lists = checks.lists_from_reports(fixture_rows)
    payload = dict(checks.lists_from_reports(rows), union_indec_aft=0)
    assert checks.check_lists(payload, lists)


def test_inclusion_violation_is_caught():
    lists = {name: [] for name in checks.LIST_NAMES}
    lists["L_nodes"] = [3]
    assert checks.check_inclusions(lists, [1, 2, 3])


def test_traced_pass_restores_package_and_partitions_time(pkg, tmp_path):
    palp = tmp_path / "in.palp"
    palp.write_text(inputs.to_palp(FIXTURES))
    workload = run.WORKLOADS["classify-pool"]
    original = pkg["criteria"].classify
    tracer = Tracer(pkg)
    with tracer:
        traced = run.run_pass(pkg, palp, tmp_path / "traced.json", workload, tracer)
    assert pkg["criteria"].classify is original
    run.run_pass(pkg, palp, tmp_path / "plain.json", workload)
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert traced.errors == []

    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["criteria.classify"]["calls"] == len(FIXTURES)
    assert spans["polygon.facet_to_polygon"]["calls"] == 3 * traced.facets
    # self times partition the time of the top-level spans
    assert sum(s["self_ns"] for s in spans.values()) == summary["top_level_ns"]
    assert all(s["self_ns"] >= 0 for s in spans.values())
    assert tracer.points_counted == sum(
        sum(row["hilbert"][1:]) for row in json.loads((tmp_path / "plain.json").read_text())
    )
