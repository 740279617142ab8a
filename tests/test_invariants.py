"""The report's degree and Hilbert coefficients."""

import random

import pytest

from conftest import (
    CUBE,
    NAMED_FANO,
    OCTAHEDRON,
    PYRAMID,
    TETRAHEDRON,
    apply_matrix,
    large_shear,
)
from fano3.criteria import classify
from fano3.polytope import convex_hull, normalized_volume, polar


def degree(pts):
    return classify(convex_hull(pts), m_max=0).degree


def hilbert(pts, m_max):
    return classify(convex_hull(pts), m_max=m_max).hilbert


class TestDegree:
    def test_pyramid(self):
        assert degree(PYRAMID) == 56

    def test_tetrahedron(self):
        assert degree(TETRAHEDRON) == 64

    def test_octahedron(self):
        assert degree(OCTAHEDRON) == 48

    def test_cube(self):
        assert degree(CUBE) == 8

    def test_equals_volume_of_polar(self, reflexive_pool):
        # classify sums determinants over the face lattice of P; the reference
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
            assert classify(poly, m_max=0).degree == normalized_volume(polar(poly))


class TestHilbertPrefix:
    def test_starts_at_one(self):
        for pts in NAMED_FANO.values():
            assert hilbert(pts, 0) == (1,)

    def test_pyramid_prefix(self):
        # frozen from the box-scan oracle over the polar dilations
        assert hilbert(PYRAMID, 5) == (1, 31, 145, 399, 849, 1551)

    def test_tetrahedron_prefix(self):
        assert hilbert(TETRAHEDRON, 5) == (1, 35, 165, 455, 969, 1771)

    def test_nondecreasing(self):
        for pts in NAMED_FANO.values():
            hs = hilbert(pts, 5)
            assert all(a <= b for a, b in zip(hs, hs[1:]))

    def test_third_difference_equals_degree(self):
        for pts in NAMED_FANO.values():
            rep = classify(convex_hull(pts), m_max=5)
            hs, deg = rep.hilbert, rep.degree
            for m in range(3, 6):
                assert hs[m] - 3 * hs[m - 1] + 3 * hs[m - 2] - hs[m - 3] == deg

    def test_rejects_negative_mmax(self):
        with pytest.raises(ValueError):
            classify(convex_hull(PYRAMID), m_max=-1)
