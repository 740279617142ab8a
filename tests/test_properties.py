"""Randomised property suites over a pool of generated reflexive polytopes."""

import random

import pytest

from conftest import NAMED_FANO, OCTAHEDRON, apply_matrix, large_shear, report_signature
from fano3.criteria import classify
from fano3.polygon import facet_to_polygon
from fano3.polytope import convex_hull, is_reflexive, lattice_points


class TestPoolGeometry:
    def test_pool_is_reflexive(self, reflexive_pool):
        for pts in reflexive_pool:
            assert is_reflexive(convex_hull(pts))

    def test_volume_is_cone_sum_over_facets(self, reflexive_pool):
        from fano3.polytope import normalized_volume

        for pts in reflexive_pool[:50]:
            poly = convex_hull(pts)
            total = 0
            for i, facet in enumerate(poly.facets):
                total += facet.height * facet_to_polygon(poly, i).area2
            assert total == normalized_volume(poly)


class TestPoolClassification:
    def test_interior_point_identity(self, reflexive_pool):
        for pts in reflexive_pool[:50]:
            poly = convex_hull(pts)
            assert lattice_points(poly, 2, interior=True) == lattice_points(poly, 1)


class TestLargeShears:
    def test_gl3_invariance_under_large_shears(self, reflexive_pool):
        # one move per input: up to 300 times a row added to another, three
        # times, then one row negated, so the move reverses orientation
        rng = random.Random(0x1A26E)
        for pts in list(NAMED_FANO.values()) + reflexive_pool:
            u = [list(row) for row in large_shear(rng)]
            flip = rng.randrange(3)
            u[flip] = [-a for a in u[flip]]
            base = report_signature(classify(convex_hull(pts)))
            assert report_signature(classify(convex_hull(apply_matrix(u, pts)))) == base

    @pytest.mark.parametrize("k", [30, 300])
    def test_sheared_octahedron(self, k):
        u = ((1, k, 0), (0, 1, k), (0, 0, 1))
        rep = classify(convex_hull(apply_matrix(u, OCTAHEDRON)))
        assert rep.degree == 48
        assert rep.hilbert == (1, 27, 125, 343, 729, 1331)
