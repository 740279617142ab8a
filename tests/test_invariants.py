import random

import pytest

import oracles
from conftest import (
    CUBE,
    NAMED_FANO,
    OCTAHEDRON,
    PYRAMID,
    TETRAHEDRON,
    apply_matrix,
    large_shear,
)
from fano3.invariants import degree, hilbert_prefix
from fano3.polytope import convex_hull, normalized_volume, polar


class TestDegree:
    def test_pyramid(self):
        assert degree(convex_hull(PYRAMID)) == 56

    def test_tetrahedron(self):
        assert degree(convex_hull(TETRAHEDRON)) == 64

    def test_octahedron(self):
        assert degree(convex_hull(OCTAHEDRON)) == 48

    def test_cube(self):
        assert degree(convex_hull(CUBE)) == 8

    def test_equals_volume_of_polar(self, reflexive_pool):
        # degree sums determinants over the face lattice of P; the reference
        # builds the polar's hull and fans its facets
        rng = random.Random(0xDE6)
        sample = random.Random(0xB0C5).sample(reflexive_pool, 30)
        base = list(NAMED_FANO.values()) + sample
        sheared = [apply_matrix(large_shear(rng), pts) for pts in base]
        sheared += [
            apply_matrix(((1, 300, 0), (0, 1, 300), (0, 0, 1)), pts)
            for pts in NAMED_FANO.values()
        ]
        for pts in base + sheared:
            poly = convex_hull(pts)
            assert degree(poly) == normalized_volume(polar(poly))

    def test_requires_reflexive(self):
        poly = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)])
        with pytest.raises(ValueError):
            degree(poly)


class TestHilbertPrefix:
    def test_starts_at_one(self):
        for pts in NAMED_FANO.values():
            poly = convex_hull(pts)
            assert hilbert_prefix(poly, 0) == [1]

    def test_pyramid_prefix(self):
        # frozen from the box-scan oracle over the polar dilations
        assert hilbert_prefix(convex_hull(PYRAMID), 5) == [1, 31, 145, 399, 849, 1551]

    def test_tetrahedron_prefix(self):
        assert hilbert_prefix(convex_hull(TETRAHEDRON), 5) == [1, 35, 165, 455, 969, 1771]

    def test_against_brute_force(self, reflexive_pool):
        # hilbert_prefix uses a closed form in the degree; this counts the
        # polar's dilations directly, so the two share no code
        sample = random.Random(0xB0C5).sample(reflexive_pool, 30)
        for pts in list(NAMED_FANO.values()) + sample:
            dual_points = list(oracles.brute_facets(pts))
            expected = [oracles.brute_count(dual_points, m) for m in range(4)]
            assert hilbert_prefix(convex_hull(pts), 3) == expected

    def test_nondecreasing(self):
        for pts in NAMED_FANO.values():
            poly = convex_hull(pts)
            hs = hilbert_prefix(poly, 5)
            assert all(a <= b for a, b in zip(hs, hs[1:]))

    def test_third_difference_equals_degree(self):
        for pts in NAMED_FANO.values():
            poly = convex_hull(pts)
            hs = hilbert_prefix(poly, 5)
            deg = degree(poly)
            for m in range(3, 6):
                assert hs[m] - 3 * hs[m - 1] + 3 * hs[m - 2] - hs[m - 3] == deg

    def test_rejects_negative_mmax(self):
        with pytest.raises(ValueError):
            hilbert_prefix(convex_hull(PYRAMID), -1)

    def test_requires_reflexive(self):
        poly = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)])
        with pytest.raises(ValueError):
            hilbert_prefix(poly, 2)
