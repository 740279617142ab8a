"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Criterion 4 needs the external database of the 4319 reflexive 3-polytopes
(PALP vertex format, Graded Ring Database order); point FANO3_KS_DATABASE at
it, or drop it at tests/data/reflexive3.palp.  Without the file that single
test is skipped and the remaining criteria stand alone.
"""

import os
import time
from math import gcd
from pathlib import Path

import pytest

import oracles
from conftest import NAMED_FANO, PENTAGON, PYRAMID, apply_matrix, random_unimodular
from fano3 import db
from fano3.criteria import classify, criterion_aft, criterion_indec
from fano3.invariants import degree, hilbert_prefix
from fano3.lift import minkowski_lift
from fano3.polygon import (
    AM_TRIANGLE,
    STANDARD_SQUARE,
    STANDARD_TRIANGLE,
    LatticePolygon,
    classify_polygon,
    facet_to_polygon,
    is_minkowski_indecomposable,
    maximal_decompositions,
    translation_key,
)
from fano3.polytope import convex_hull, is_fano, is_reflexive, polar


def verdict(number, name):
    print(f"acceptance {number} ({name}): PASS")


class TestCriterion1Pyramid:
    def test_pyramid_fixture(self):
        start = time.perf_counter()
        poly = convex_hull(PYRAMID)
        assert is_fano(poly)
        assert is_reflexive(poly)
        shapes = sorted(len(f.vertex_indices) for f in poly.facets)
        assert shapes == [3, 3, 3, 3, 3, 5]
        classes = [classify_polygon(facet_to_polygon(poly, i)) for i in range(6)]
        assert sum(c.kind == STANDARD_TRIANGLE for c in classes) == 5
        assert sum(c.vertex_count == 5 for c in classes) == 1
        assert degree(poly) == 56
        assert criterion_indec(poly) == []
        assert criterion_aft(poly) == []
        assert not classify(poly).nodes
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        verdict(1, "pyramid fixture")


class TestCriterion2Pentagon:
    def test_decomposition_and_lift(self):
        start = time.perf_counter()
        poly = LatticePolygon(PENTAGON)
        decs = maximal_decompositions(poly)
        assert len(decs) == 1
        dec = decs[0]
        assert sorted(translation_key(s) for s in dec.summands) == sorted(
            (
                translation_key(LatticePolygon(((0, 0), (-1, 0), (0, -1)))),
                translation_key(LatticePolygon(((0, 0), (1, 1)))),
            )
        )
        cone = minkowski_lift(poly, dec)
        assert cone.rays == (
            (0, 0, 1, 0),
            (-1, 0, 1, 0),
            (0, -1, 1, 0),
            (0, 0, 0, 1),
            (1, 1, 0, 1),
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        verdict(2, "pentagon decomposition and lift")


class TestCriterion3ClassifierTable:
    def test_example_table(self):
        square = LatticePolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert classify_polygon(square).kind == STANDARD_SQUARE
        triangle = LatticePolygon(((0, 0), (1, 0), (0, 1)))
        assert classify_polygon(triangle).kind == STANDARD_TRIANGLE
        for m in range(1, 6):
            am = LatticePolygon(((0, 0), (m + 1, 0), (0, 1)))
            cls = classify_polygon(am)
            assert cls.kind == AM_TRIANGLE
            assert cls.m == m
            assert is_minkowski_indecomposable(am)
        verdict(3, "polygon classifier table")


def _ks_database_path():
    env = os.environ.get("FANO3_KS_DATABASE")
    if env:
        return Path(env)
    return Path(__file__).parent / "data" / "reflexive3.palp"


class TestCriterion4Database:
    def test_full_database_counts(self):
        path = _ks_database_path()
        if not path.exists():
            pytest.skip(
                "external database of the 4319 reflexive 3-polytopes not present"
            )
        start = time.perf_counter()
        with open(path) as fh:
            records = db.parse_palp(fh)
        assert len(records) == 4319
        lists = {name: set() for name in db.LIST_NAMES}
        for rec in records:
            rep = classify(convex_hull(rec.vertices), polytope_id=rec.id, m_max=0)
            assert rep.reflexive
            if rep.smooth:
                lists["L_smooth"].add(rec.id)
            if rep.isolated_singular:
                lists["L_isol"].add(rec.id)
            if rep.nodes:
                lists["L_nodes"].add(rec.id)
            if rep.low_degree:
                lists["L_low"].add(rec.id)
            if rep.indec_obstruction:
                lists["L_indec"].add(rec.id)
            if rep.aft_obstruction:
                lists["L_aft"].add(rec.id)
        elapsed = time.perf_counter() - start
        assert len(lists["L_smooth"]) == 18
        assert len(lists["L_isol"]) == 137
        assert len(lists["L_nodes"]) == 82
        assert len(lists["L_low"]) == 220
        assert len(lists["L_indec"] | lists["L_aft"]) == 442
        reference = db.reference_lists()
        for name in db.LIST_NAMES:
            assert lists[name] == set(reference[name]), f"{name} differs"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        verdict(4, "full database counts and id sets")


class TestCriterion5Inclusions:
    def test_inclusions_on_loaded_data(self, reflexive_pool):
        reports = []
        for n, pts in enumerate(list(NAMED_FANO.values()) + list(reflexive_pool)):
            reports.append(classify(convex_hull(pts), polytope_id=n, m_max=0))
        everything = {r.polytope_id for r in reports}
        smooth = {r.polytope_id for r in reports if r.smooth}
        isol = {r.polytope_id for r in reports if r.isolated_singular}
        nodes = {r.polytope_id for r in reports if r.nodes}
        low = {r.polytope_id for r in reports if r.low_degree}
        indec = {r.polytope_id for r in reports if r.indec_obstruction}
        aft = {r.polytope_id for r in reports if r.aft_obstruction}
        assert nodes <= isol
        assert isol <= everything - smooth
        assert not (indec | aft) & (smooth | nodes | low)
        verdict(5, "list inclusions")


class TestCriterion6PropertySuites:
    def test_polar_euler_invariance_and_hilbert(self, reflexive_pool, pool_rng):
        assert len(reflexive_pool) == 200
        for pts in reflexive_pool:
            poly = convex_hull(pts)
            assert set(polar(polar(poly)).vertices) == set(poly.vertices)
            assert len(poly.vertices) - len(poly.edges) + len(poly.facets) == 2

        from test_properties import report_signature

        for pts in reflexive_pool:
            base = report_signature(classify(convex_hull(pts)))
            for _ in range(10):
                u = random_unimodular(pool_rng, shears=2)
                moved = classify(convex_hull(apply_matrix(u, pts)))
                assert report_signature(moved) == base

        for pts in reflexive_pool:
            poly = convex_hull(pts)
            for i in range(len(poly.facets)):
                polygon = facet_to_polygon(poly, i)
                for dec in maximal_decompositions(polygon):
                    total = oracles.minkowski_sum_2d([s.vertices for s in dec.summands])
                    assert oracles.normalize_translation(total) == \
                        oracles.normalize_translation(polygon.vertices)

        for pts in reflexive_pool:
            poly = convex_hull(pts)
            hs = hilbert_prefix(poly, 5)
            deg = degree(poly)
            for m in range(3, 6):
                assert hs[m] - 3 * hs[m - 1] + 3 * hs[m - 2] - hs[m - 3] == deg
        verdict(6, "randomised property suites")


class TestCriterion7ExtDegrees:
    def test_formula(self, reflexive_pool):
        # the twist formula that defines the report's aft_witnesses: a pair
        # of A_n-triangles glued along their long edge, with apex pairing d,
        # pushes its obstruction sheaf forward to line bundles of degrees
        # -j d - j, j = 2..n+1, and is a witness exactly when all of them
        # are negative, for one of its two apexes
        pairs = {True: 0, False: 0}
        for pts in list(NAMED_FANO.values()) + list(reflexive_pool):
            poly = convex_hull(pts)
            rep = classify(poly, m_max=0)
            for (a, b), (f0, f1) in zip(poly.edges, poly.facet_adjacency):
                c0, c1 = rep.facet_classes[f0], rep.facet_classes[f1]
                if not c0.kind == c1.kind == AM_TRIANGLE:
                    continue
                if gcd(*oracles.sub(poly.vertices[a], poly.vertices[b])) != c0.m + 1:
                    continue
                negative = False
                for g, h in ((f0, f1), (f1, f0)):
                    (apex,) = set(poly.facets[g].vertex_indices) - {a, b}
                    d = sum(x * y for x, y in zip(poly.facets[h].normal, poly.vertices[apex]))
                    twists = [-j * d - j for j in range(2, c0.m + 2)]
                    negative = negative or all(t < 0 for t in twists)
                assert ((min(f0, f1), max(f0, f1)) in rep.aft_witnesses) == negative
                pairs[negative] += 1
        assert pairs[True] > 0 and pairs[False] > 0
        verdict(7, "pushforward twist formula")
