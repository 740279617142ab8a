import pytest

import oracles
from conftest import CUBE, NAMED_FANO, OCTAHEDRON, PYRAMID, TETRAHEDRON
from fano3.intlinalg import cross, dot, vsub
from fano3.polytope import (
    DegenerateInputError,
    convex_hull,
    is_fano,
    is_reflexive,
    lattice_point_list,
    lattice_points,
    normalized_volume,
    polar,
)

UNIT_SIMPLEX = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestConvexHull:
    @pytest.mark.parametrize("name", sorted(NAMED_FANO))
    def test_matches_brute_force_planes(self, name):
        pts = NAMED_FANO[name]
        poly = convex_hull(pts)
        expected = oracles.brute_facets(pts)
        got = {f.normal: f.height for f in poly.facets}
        assert got == expected
        assert set(poly.vertices) == oracles.brute_vertex_set(pts)

    def test_pyramid_facet_shapes(self):
        poly = convex_hull(PYRAMID)
        sizes = sorted(len(f.vertex_indices) for f in poly.facets)
        assert sizes == [3, 3, 3, 3, 3, 5]

    def test_octahedron(self):
        poly = convex_hull(OCTAHEDRON)
        assert len(poly.facets) == 8
        assert all(len(f.vertex_indices) == 3 for f in poly.facets)

    def test_tetrahedron(self):
        poly = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
        assert len(poly.facets) == 4

    def test_interior_and_boundary_points_dropped(self):
        pts = list(CUBE) + [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1)]
        poly = convex_hull(pts)
        assert set(poly.vertices) == set(CUBE)
        assert len(poly.facets) == 6
        assert all(len(f.vertex_indices) == 4 for f in poly.facets)

    def test_duplicates_ignored(self):
        poly = convex_hull(list(TETRAHEDRON) * 3)
        assert len(poly.vertices) == 4

    def test_euler_relation(self):
        for pts in NAMED_FANO.values():
            poly = convex_hull(pts)
            assert len(poly.vertices) - len(poly.edges) + len(poly.facets) == 2

    def test_facet_cycles_walk_edges(self):
        poly = convex_hull(PYRAMID)
        edge_set = set(poly.edges)
        for facet in poly.facets:
            cyc = facet.vertex_indices
            for k in range(len(cyc)):
                a, b = cyc[k], cyc[(k + 1) % len(cyc)]
                assert (min(a, b), max(a, b)) in edge_set

    def test_facet_cycles_counterclockwise_from_outside(self):
        for pts in NAMED_FANO.values():
            poly = convex_hull(pts)
            for facet in poly.facets:
                cyc = [poly.vertices[i] for i in facet.vertex_indices]
                for k in range(len(cyc)):
                    a, b, c = cyc[k], cyc[(k + 1) % len(cyc)], cyc[(k + 2) % len(cyc)]
                    turn = cross(vsub(b, a), vsub(c, b))
                    assert dot(turn, facet.normal) >= 0
                    assert turn != (0, 0, 0)

    def test_each_edge_on_two_facets(self):
        poly = convex_hull(PYRAMID)
        assert len(poly.facet_adjacency) == len(poly.edges)
        for (a, b), (f0, f1) in zip(poly.edges, poly.facet_adjacency):
            for fi in (f0, f1):
                assert a in poly.facets[fi].vertex_indices
                assert b in poly.facets[fi].vertex_indices

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            convex_hull([(0, 0, 0), (1, 0, 0)])
        with pytest.raises(DegenerateInputError):
            convex_hull([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
        with pytest.raises(DegenerateInputError):
            convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0)])


class TestFanoReflexive:
    def test_pyramid(self):
        poly = convex_hull(PYRAMID)
        assert is_fano(poly)
        assert is_reflexive(poly)

    def test_origin_on_boundary(self):
        poly = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)])
        assert not is_fano(poly)

    def test_non_primitive_vertex(self):
        poly = convex_hull([(2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
        assert not is_fano(poly)

    def test_fano_but_not_reflexive(self):
        scaled = [(2 * x, 2 * y, 2 * z) for x, y, z in TETRAHEDRON]
        # rescaling makes vertices imprimitive; perturb to a genuine example
        poly = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)])
        assert is_fano(poly)
        assert not is_reflexive(poly)
        assert convex_hull(scaled).facets[0].height == 2


class TestPolar:
    def test_octahedron_cube_duality(self):
        octa = convex_hull(OCTAHEDRON)
        cube = polar(octa)
        assert set(cube.vertices) == set(CUBE)
        back = polar(cube)
        assert set(back.vertices) == set(OCTAHEDRON)

    def test_involution_on_fixtures(self):
        for pts in NAMED_FANO.values():
            poly = convex_hull(pts)
            if not is_reflexive(poly):
                continue
            assert set(polar(polar(poly)).vertices) == set(poly.vertices)

    def test_polar_of_tetrahedron(self):
        dual = polar(convex_hull(TETRAHEDRON))
        assert normalized_volume(dual) == 64

    def test_requires_reflexive(self):
        poly = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)])
        with pytest.raises(ValueError):
            polar(poly)


class TestNormalizedVolume:
    def test_unit_simplex(self):
        assert normalized_volume(convex_hull(UNIT_SIMPLEX)) == 1

    def test_cube(self):
        assert normalized_volume(convex_hull(CUBE)) == 48

    def test_pyramid_polar(self):
        assert normalized_volume(polar(convex_hull(PYRAMID))) == 56

    @pytest.mark.parametrize("name", sorted(NAMED_FANO))
    def test_against_ehrhart_differences(self, name):
        pts = NAMED_FANO[name]
        assert normalized_volume(convex_hull(pts)) == oracles.brute_normalized_volume(pts)

    def test_volume_shifted_off_origin(self):
        # same simplex, translated; oriented boundary cones still add up
        pts = [(x + 3, y - 2, z + 5) for x, y, z in UNIT_SIMPLEX]
        assert normalized_volume(convex_hull(pts)) == 1


class TestLatticePoints:
    def test_dilation_zero(self):
        assert lattice_points(convex_hull(PYRAMID), 0) == 1

    def test_unit_cube(self):
        poly = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                            (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        assert lattice_points(poly, 1) == 8

    def test_pyramid_count(self):
        assert lattice_points(convex_hull(PYRAMID), 1) == 8

    @pytest.mark.parametrize("name", sorted(NAMED_FANO))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_against_brute_force(self, name, m):
        pts = NAMED_FANO[name]
        assert lattice_points(convex_hull(pts), m) == oracles.brute_count(pts, m)

    def test_larger_dilations_against_brute_force(self):
        for pts in (PYRAMID, OCTAHEDRON, CUBE):
            poly = convex_hull(pts)
            for m in (1, 2, 5):
                assert lattice_points(poly, m) == oracles.brute_count(pts, m)

    def test_exact_beyond_int64(self):
        shift = 2**70
        cube = [(x + shift, y + shift, z + shift)
                for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        poly = convex_hull(cube)
        assert lattice_points(poly, 1) == 8
        assert lattice_points(poly, 2) == 27

    def test_reflexive_interior_identity(self):
        # for a reflexive polytope the interior of m*P holds the points of (m-1)*P
        for pts in (PYRAMID, OCTAHEDRON, TETRAHEDRON):
            poly = convex_hull(pts)
            for m in (1, 2, 3):
                assert lattice_points(poly, m, interior=True) == lattice_points(poly, m - 1)

    def test_point_list_matches_count(self):
        poly = convex_hull(PYRAMID)
        pts = lattice_point_list(poly, 2)
        assert len(pts) == lattice_points(poly, 2)
        assert len(set(pts)) == len(pts)
        for f in poly.facets:
            assert all(dot(f.normal, p) <= 2 * f.height for p in pts)

    def test_negative_dilation_rejected(self):
        with pytest.raises(ValueError):
            lattice_points(convex_hull(PYRAMID), -1)
