import pytest

import oracles
from conftest import PENTAGON
from fano3.lift import minkowski_lift
from fano3.polygon import LatticePolygon, maximal_decompositions

UNIT_TRIANGLE = ((0, 0), (1, 0), (0, 1))
UNIT_SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))


class TestPentagonLift:
    def test_exact_rays(self):
        poly = LatticePolygon(PENTAGON)
        (dec,) = maximal_decompositions(poly)
        cone = minkowski_lift(poly, dec)
        assert cone.rays == (
            (0, 0, 1, 0),
            (-1, 0, 1, 0),
            (0, -1, 1, 0),
            (0, 0, 0, 1),
            (1, 1, 0, 1),
        )
        assert cone.summand_index == (0, 0, 0, 1, 1)
        assert len(cone.rays[0]) == 4


class TestTrivialLift:
    def test_standard_triangle_gorenstein_cone(self):
        poly = LatticePolygon(UNIT_TRIANGLE)
        (dec,) = maximal_decompositions(poly)
        cone = minkowski_lift(poly, dec)
        assert cone.rays == tuple((x, y, 1) for x, y in UNIT_TRIANGLE)
        assert len(cone.rays[0]) == 3


class TestSquareLift:
    def test_two_segment_lift(self):
        poly = LatticePolygon(UNIT_SQUARE)
        (dec,) = maximal_decompositions(poly)
        cone = minkowski_lift(poly, dec)
        assert len(cone.rays[0]) == 4
        assert len(cone.rays) == 4
        assert sorted(cone.summand_index) == [0, 0, 1, 1]


class TestLiftContract:
    def test_ray_count_is_total_vertex_count(self):
        for verts in (PENTAGON, UNIT_SQUARE, UNIT_TRIANGLE):
            poly = LatticePolygon(verts)
            for dec in maximal_decompositions(poly):
                cone = minkowski_lift(poly, dec)
                assert len(cone.rays) == sum(len(s.vertices) for s in dec.summands)

    def test_summand_blocks_are_unit_vectors(self):
        poly = LatticePolygon(PENTAGON)
        (dec,) = maximal_decompositions(poly)
        cone = minkowski_lift(poly, dec)
        for ray, k in zip(cone.rays, cone.summand_index):
            block = ray[2:]
            assert sum(block) == 1
            assert block[k] == 1

    def test_vertex_choices_land_in_polygon(self):
        # one ray per summand: the 2d parts sum to a lattice point of the
        # polygon and the e-blocks to (1, ..., 1)
        from itertools import product

        poly = LatticePolygon(PENTAGON)
        (dec,) = maximal_decompositions(poly)
        cone = minkowski_lift(poly, dec)
        groups = {}
        for ray, k in zip(cone.rays, cone.summand_index):
            groups.setdefault(k, []).append(ray)
        inside = oracles.polygon_lattice_points(PENTAGON)
        for choice in product(*groups.values()):
            total = tuple(sum(r[i] for r in choice) for i in range(len(cone.rays[0])))
            assert total[:2] in inside
            assert total[2:] == (1,) * len(groups)

    def test_rejects_wrong_decomposition(self):
        poly = LatticePolygon(PENTAGON)
        square = LatticePolygon(UNIT_SQUARE)
        (dec,) = maximal_decompositions(square)
        with pytest.raises(ValueError):
            minkowski_lift(poly, dec)

    def test_rejects_partial_assignments(self):
        from fano3.polygon import MinkowskiDecomposition

        poly = LatticePolygon(UNIT_SQUARE)
        half = MinkowskiDecomposition(
            assignments=((1, 0, 1, 0),),
            summands=(LatticePolygon(((0, 0), (1, 0))),),
        )
        with pytest.raises(ValueError):
            minkowski_lift(poly, half)
