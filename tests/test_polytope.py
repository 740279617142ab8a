import hashlib
import random
from dataclasses import fields
from itertools import permutations
from math import gcd

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
from fano3 import polytope
from fano3.intlinalg import chart_rows, cross, det3, dot
from fano3.polygon import convex_hull_2d
from fano3.polytope import (
    DegenerateInputError,
    Facet,
    convex_hull,
    is_fano,
    is_reflexive,
    lattice_points,
    normalized_volume,
    polar,
)

UNIT_SIMPLEX = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def rotated_to_min(cycle):
    """The cycle started at its smallest item."""
    k = cycle.index(min(cycle))
    return (*cycle[k:], *cycle[:k])


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

    def test_facet_cycles_counterclockwise_from_outside(self, reflexive_pool):
        rng = random.Random(0xCC1)
        pool = random.Random(0xB0C5).sample(reflexive_pool, 30)
        inputs = list(NAMED_FANO.values()) + pool
        inputs += [apply_matrix(large_shear(rng), pts) for pts in pool]
        # facet heights other than 1
        inputs += [UNIT_SIMPLEX, [(x + 5, y - 7, z + 11) for x, y, z in CUBE]]
        polys = [convex_hull(pts) for pts in inputs]
        # the hull of all lattice points of a fixture has non-vertex points
        # on its facets and edges, which the facet cycles must leave out
        for pts in NAMED_FANO.values():
            fixture = convex_hull(pts)
            full = convex_hull(oracles.brute_points(pts))
            assert set(full.vertices) == set(fixture.vertices)
            assert [f.normal for f in full.facets] == [f.normal for f in fixture.facets]
            polys.append(full)
        for poly in polys:
            for facet in poly.facets:
                cyc = [poly.vertices[i] for i in facet.vertex_indices]
                lifted = [
                    oracles.chart_lift(facet.normal, facet.height, q)
                    for q in facet.polygon.vertices
                ]
                assert lifted == cyc
                # the polygon is its own 2-D hull up to where the cycle
                # starts, which is at the smallest vertex index
                assert facet.vertex_indices[0] == min(facet.vertex_indices)
                hull_2d = convex_hull_2d(facet.polygon.vertices)
                assert rotated_to_min(facet.polygon.vertices) == hull_2d.vertices
                for k in range(len(cyc)):
                    a, b, c = cyc[k], cyc[(k + 1) % len(cyc)], cyc[(k + 2) % len(cyc)]
                    turn = cross(oracles.sub(b, a), oracles.sub(c, b))
                    assert dot(turn, facet.normal) >= 0
                    assert turn != (0, 0, 0)

    def test_facet_area_and_steps_match_the_polygon(self, reflexive_pool):
        # the hull sums area2 over a facet's triangles and walks its boundary
        # in Z^3; the polygon walks the chart points: the two paths must agree
        rng = random.Random(0xA2EA)
        pool = random.Random(0xC055).sample(reflexive_pool, 30)
        inputs = list(NAMED_FANO.values()) + pool
        inputs += [apply_matrix(large_shear(rng), pts) for pts in pool]
        # triangulations with points inside facets and on edges
        inputs += [oracles.brute_points(pts) for pts in NAMED_FANO.values()]
        for pts in inputs:
            poly = convex_hull(pts)
            for facet in poly.facets:
                cyc = [poly.vertices[i] for i in facet.vertex_indices]
                assert facet.area2 == facet.polygon.area2
                steps = [gcd(*oracles.sub(b, a)) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
                assert steps == [length for _, length in facet.polygon.edges]
                fan = [det3((cyc[0], b, c)) for b, c in zip(cyc[1:-1], cyc[2:])]
                assert sum(map(abs, fan)) == facet.height * facet.area2

    def test_square_facet_missing_a_triangle_is_rejected(self, monkeypatch):
        # the facet walk checks its own boundary: without one triangle of a
        # square facet the hull raises AssertionError, and never returns
        hull_triangles = polytope._hull_triangles
        messages = set()
        # the cube's top facet is two triangles; that of the hull of its 27
        # lattice points is eight, on the nine points of the facet
        for pts in (list(CUBE), oracles.brute_points(CUBE)):
            top = [t for t in hull_triangles(pts) if t[0] == t[1] == 0 < t[2]]
            assert len(top) in (2, 8)
            for dropped in top:
                monkeypatch.setattr(
                    polytope, "_hull_triangles",
                    lambda p, d=dropped: [t for t in hull_triangles(p) if t != d],
                )
                with pytest.raises(AssertionError) as info:
                    convex_hull(pts)
                messages.add(str(info.value))
        assert messages == {
            "hull edge on a single facet",
            "facet boundary is not one cycle",
            "facet boundary turns right",
        }

    def test_each_edge_on_two_facets(self, reflexive_pool):
        # facet_adjacency is (left, right): the left facet's cycle steps
        # a -> b along the edge (a, b), the right facet's steps b -> a
        rng = random.Random(0xAD1)
        pool = random.Random(0xED6E).sample(reflexive_pool, 30)
        inputs = list(NAMED_FANO.values()) + pool
        inputs += [apply_matrix(large_shear(rng), pts) for pts in pool]
        # with non-vertex points the hull renumbers its vertices
        inputs += [oracles.brute_points(pts) for pts in NAMED_FANO.values()]
        for pts in inputs:
            poly = convex_hull(pts)
            assert len(poly.facet_adjacency) == len(poly.edges)
            steps = set()
            for facet in poly.facets:
                cyc = facet.vertex_indices
                steps.update(zip(cyc, cyc[1:] + cyc[:1]))
            assert len(steps) == 2 * len(poly.edges)
            for (a, b), (left, right) in zip(poly.edges, poly.facet_adjacency):
                assert a < b and left != right
                for fi, (u, v) in ((left, (a, b)), (right, (b, a))):
                    cyc = poly.facets[fi].vertex_indices
                    assert cyc[(cyc.index(u) + 1) % len(cyc)] == v

    @pytest.mark.parametrize(
        "point", [(0.5, 0, 0), ("1", 0, 0), (1, 0), (1, 0, 0, 0)], ids=repr
    )
    def test_non_lattice_point_rejected(self, point):
        with pytest.raises(ValueError, match="not a point of Z\\^3") as info:
            convex_hull(list(TETRAHEDRON) + [point])
        assert not isinstance(info.value, DegenerateInputError)
        assert repr(point) in str(info.value)

    def test_degenerate_inputs(self):
        for pts in ([(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)]):
            with pytest.raises(DegenerateInputError, match="need at least 4 distinct points"):
                convex_hull(pts)
        with pytest.raises(DegenerateInputError, match="points are collinear"):
            convex_hull([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
        with pytest.raises(DegenerateInputError, match="points are coplanar"):
            convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0)])

    @pytest.mark.parametrize(
        "pts",
        [
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
        ],
        ids=["collinear_candidate", "coplanar_candidate"],
    )
    def test_initial_simplex_skips_degenerate_candidates(self, pts):
        poly = convex_hull(pts)
        assert convex_hull(poly.vertices) == poly
        assert {f.normal: f.height for f in poly.facets} == oracles.brute_facets(pts)

    @pytest.mark.parametrize("name", sorted(NAMED_FANO))
    def test_first_four_points_in_any_order(self, name):
        # the first four points seed the simplex, which is oriented by
        # swapping two of them or not: the 24 orderings take both branches
        # and give the same facets, each with the same cycle of points.  A
        # cycle starts at its smallest vertex index, which moves with the
        # input order, so the cycles are compared from their smallest point.
        pts = list(NAMED_FANO[name])

        def facets(points):
            poly = convex_hull(points)
            return [(f.normal, f.height, rotated_to_min(f.points)) for f in poly.facets]

        expected = facets(pts)
        swapped = set()
        for head in permutations(pts[:4]):
            ordered = list(head) + pts[4:]
            swapped.add(polytope._initial_simplex(ordered)[1] != 1)
            assert facets(ordered) == expected
        assert swapped == {True, False}

    def test_charts_computed_on_demand(self, reflexive_pool, monkeypatch):
        # the hull reads no chart rows and keeps no chart; a facet's polygon
        # reads its two chart rows once, on first access
        assert "chart" not in {f.name for f in fields(Facet)}
        calls = []

        def counting_chart_rows(n):
            calls.append(n)
            return chart_rows(n)

        monkeypatch.setattr(polytope, "chart_rows", counting_chart_rows)
        for pts in list(NAMED_FANO.values()) + reflexive_pool[:10]:
            calls.clear()
            poly = convex_hull(pts)
            assert calls == []
            for facet in poly.facets:
                assert facet.polygon is facet.polygon
            assert calls == [f.normal for f in poly.facets]

    def test_cycle_starts_survive_moves(self, reflexive_pool):
        # a move that keeps the vertex order keeps every facet's vertex
        # indices, so each cycle starts at the same index; the large shears
        # have det 1, so they keep the direction of each cycle too
        rng = random.Random(0x57A7)
        for pts in reflexive_pool:
            poly = convex_hull(pts)
            moved = convex_hull(apply_matrix(large_shear(rng), pts))
            cycles = {frozenset(f.vertex_indices): f.vertex_indices for f in moved.facets}
            assert len(cycles) == len(poly.facets)
            for facet in poly.facets:
                assert cycles[frozenset(facet.vertex_indices)] == facet.vertex_indices

    def test_facet_bytes_pinned(self, reflexive_pool):
        # a sha256 over every facet's cycle, plane, area and chart points (the
        # polygon's vertices).  The digest was recomputed when cycles began to
        # start at their smallest vertex index, not their chart minimum: every
        # facet kept its plane and area, and its cycle and chart points moved
        # by one rotation.  The hulls of all lattice points of the fixtures
        # renumber their vertices and drop non-corner points.
        rng = random.Random(0xB17E)
        inputs = reflexive_pool + [apply_matrix(large_shear(rng), pts) for pts in reflexive_pool]
        inputs += [oracles.brute_points(pts) for pts in NAMED_FANO.values()]
        digest = hashlib.sha256()
        for pts in inputs:
            for f in convex_hull(pts).facets:
                key = (f.vertex_indices, f.normal, f.height, f.area2, f.polygon.vertices)
                digest.update(repr(key).encode())
        assert digest.hexdigest() == (
            "9260449425dff42ef9b55cf133f1fdb4afeb03750f67dd0e0079209492022301"
        )


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
        # the oracle's points of 2P, and those strictly inside its facet planes
        poly = convex_hull(PYRAMID)
        pts = oracles.brute_points(PYRAMID, 2)
        planes = oracles.brute_facets(PYRAMID).items()
        inside = [p for p in pts if all(dot(n, p) < 2 * h for n, h in planes)]
        assert lattice_points(poly, 2) == len(pts)
        # the interior of 2P holds the points of P, since P is reflexive
        assert lattice_points(poly, 2, interior=True) == len(inside)
        assert len(inside) == oracles.brute_count(PYRAMID, 1)
        assert oracles.brute_points(PYRAMID, 0) == [(0, 0, 0)]
        assert lattice_points(poly, 0) == 1
        assert lattice_points(poly, 0, interior=True) == 0

    def test_negative_dilation_rejected(self):
        with pytest.raises(ValueError):
            lattice_points(convex_hull(PYRAMID), -1)
        # the scan takes ints only: a float dilation is not truncated
        with pytest.raises(TypeError):
            lattice_points(convex_hull(PYRAMID), 1.5)
