import oracles
from conftest import NAMED_FANO, PENTAGON
from fano3.polygon import (
    LatticePolygon,
    facet_to_polygon,
    is_minkowski_indecomposable,
    maximal_decompositions,
)
from fano3.polytope import convex_hull

UNIT_TRIANGLE = ((0, 0), (1, 0), (0, 1))
UNIT_SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))


class TestPentagonLift:
    def test_exact_rays(self):
        poly = LatticePolygon(PENTAGON)
        (dec,) = maximal_decompositions(poly)
        rays = dec.lifted_rays
        assert rays == (
            (0, 0, 1, 0),
            (-1, 0, 1, 0),
            (0, -1, 1, 0),
            (0, 0, 0, 1),
            (1, 1, 0, 1),
        )
        assert [ray[2:].index(1) for ray in rays] == [0, 0, 0, 1, 1]
        assert len(rays[0]) == 4


class TestTrivialLift:
    def test_standard_triangle_gorenstein_cone(self):
        poly = LatticePolygon(UNIT_TRIANGLE)
        (dec,) = maximal_decompositions(poly)
        rays = dec.lifted_rays
        assert rays == tuple((x, y, 1) for x, y in UNIT_TRIANGLE)
        assert len(rays[0]) == 3

    def test_indecomposable_facets_lift_to_cone_over_facet(self):
        # an indecomposable polygon F has only the trivial decomposition,
        # whose lifted cone is the cone over F x {1}
        checked = 0
        for verts in NAMED_FANO.values():
            hull = convex_hull(verts)
            for fi in range(len(hull.facets)):
                poly = facet_to_polygon(hull, fi)
                if is_minkowski_indecomposable(poly):
                    (dec,) = maximal_decompositions(poly)
                    assert dec.lifted_rays == tuple((x, y, 1) for x, y in poly.vertices)
                    checked += 1
        assert checked == 31  # every facet but the pentagon and the squares


class TestSquareLift:
    def test_two_segment_lift(self):
        poly = LatticePolygon(UNIT_SQUARE)
        (dec,) = maximal_decompositions(poly)
        rays = dec.lifted_rays
        assert len(rays[0]) == 4
        assert len(rays) == 4
        assert sorted(ray[2:].index(1) for ray in rays) == [0, 0, 1, 1]


class TestLiftContract:
    def test_ray_count_is_total_vertex_count(self):
        for verts in (PENTAGON, UNIT_SQUARE, UNIT_TRIANGLE):
            poly = LatticePolygon(verts)
            for dec in maximal_decompositions(poly):
                assert len(dec.lifted_rays) == sum(len(s.vertices) for s in dec.summands)

    def test_summand_blocks_are_unit_vectors(self):
        poly = LatticePolygon(PENTAGON)
        (dec,) = maximal_decompositions(poly)
        rays = dec.lifted_rays
        # rays come summand by summand, each summand's vertices in order
        owners = [k for k, summand in enumerate(dec.summands) for _ in summand.vertices]
        for ray, k in zip(rays, owners, strict=True):
            block = ray[2:]
            assert sum(block) == 1
            assert block.index(1) == k

    def test_vertex_choices_land_in_polygon(self):
        # one ray per summand: the 2d parts sum to a lattice point of the
        # polygon and the e-blocks to (1, ..., 1)
        from itertools import product

        poly = LatticePolygon(PENTAGON)
        (dec,) = maximal_decompositions(poly)
        rays = dec.lifted_rays
        groups = {}
        for ray in rays:
            groups.setdefault(ray[2:].index(1), []).append(ray)
        inside = oracles.polygon_lattice_points(PENTAGON)
        for choice in product(*groups.values()):
            total = tuple(sum(r[i] for r in choice) for i in range(len(rays[0])))
            assert total[:2] in inside
            assert total[2:] == (1,) * len(groups)
