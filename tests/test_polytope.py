import ast
import hashlib
import inspect
import pickle
import random
import traceback
from collections import Counter
from dataclasses import fields
from itertools import combinations, count, permutations, product
from math import gcd

import pytest

import oracles
from conftest import (
    CUBE,
    FANO_UNITARY_NOT_HEIGHT_ONE,
    NAMED_FANO,
    NOT_REFLEXIVE,
    OCTAHEDRON,
    PYRAMID,
    TETRAHEDRON,
    apply_matrix,
    large_shear,
)
import fano3.intlinalg
import fano3.polygon
from fano3 import polytope
from fano3.intlinalg import chart_rows, cross, det3, dot
from fano3.polygon import convex_hull_2d, facet_to_polygon
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


def degeneracy(points):
    """The DegenerateInputError message that the hull of ``points`` must raise, or None."""
    pts = list(dict.fromkeys(points))
    if len(pts) < 4:
        return "need at least 4 distinct points"
    steps = [oracles.sub(p, pts[0]) for p in pts[1:]]
    if all(cross(s, t) == (0, 0, 0) for s, t in combinations(steps, 2)):
        return "points are collinear"
    if all(det3(stu) == 0 for stu in combinations(steps, 3)):
        return "points are coplanar, expected dimension 3"
    return None


def cloud_cases(cloud, planes, vertices):
    """The cases of a full-dimensional cloud that the seeded hull test must meet."""
    pts = list(dict.fromkeys(cloud))
    if len(pts) < len(cloud):
        yield "duplicates"
    low = min(pts)
    if any(p != low and p[:2] == low[:2] for p in pts):
        yield "a point above or below the smallest"
    # the face of the start's vertical plane is an edge or a facet
    a, c, m = polytope._start(pts)
    face = [p for p in pts if dot(m, p) == dot(m, pts[a])]
    step = oracles.sub(pts[c], pts[a])
    off_edge = any(cross(step, oracles.sub(p, pts[a])) != (0, 0, 0) for p in face)
    yield "start face is a facet" if off_edge else "start face is an edge"
    for p in pts:
        if p not in vertices:
            on = sum(dot(n, p) == h for n, h in planes.items())
            yield ("point inside", "point inside a facet", "point inside an edge")[min(on, 2)]


def seeded_cloud(rng, k):
    """Cloud k of the seeded hull test: 4 to 9 points in {-1..1}^3 or {-2..2}^3."""
    box = 1 + k % 2
    cloud = [tuple(rng.randint(-box, box) for _ in range(3)) for _ in range(rng.randint(4, 9))]
    if k % 20 == 0:  # on the plane z = x - y, or on a line in it
        return [(x, y, x - y) for x, y, _ in cloud]
    if k % 20 == 10:  # on a line
        return [(t, -t, 2 * t) for t in (x + 3 * y + 9 * z for x, y, z in cloud)]
    if k % 20 == 5:  # at most three distinct points
        return (cloud[:3] * 3)[:len(cloud)]
    if k % 4 == 3:
        # a cloud of {-1..1}^3 doubled, with the midpoints of some of its
        # pairs: points on edges, inside facets and inside the hull
        base = cloud[: rng.randint(3, 6)]
        base = [tuple(max(-1, min(1, x)) for x in p) for p in base]
        mids = [tuple(map(sum, zip(*rng.sample(base, 2)))) for _ in range(9 - len(base))]
        return [(2 * x, 2 * y, 2 * z) for x, y, z in base] + mids
    return cloud


def assert_hull(poly, planes, vertices):
    """The hull against the oracle's planes and vertices, facet by facet."""
    assert {f.normal: f.height for f in poly.facets} == planes
    assert set(poly.vertices) == vertices
    for f in poly.facets:
        cyc = tuple(poly.vertices[i] for i in f.vertex_indices)
        assert f.vertex_indices[0] == min(f.vertex_indices)
        # the cycle is the facet's corners, each once, in convex order with a
        # strict left turn at each corner, seen from outside
        assert sorted(cyc) == sorted(v for v in vertices if dot(f.normal, v) == f.height)
        for a, b, c in zip(cyc, cyc[1:] + cyc[:1], cyc[2:] + cyc[:2]):
            step = oracles.sub(b, a)
            assert det3((f.normal, step, oracles.sub(c, b))) > 0
            assert all(det3((f.normal, step, oracles.sub(p, a))) >= 0 for p in cyc)
        # coned from the origin, the fan of the facet has volume height *
        # area2; from any apex below the facet, the height above the apex
        apex = next(v for v in vertices if dot(f.normal, v) < f.height)
        corners = [oracles.sub(p, apex) for p in cyc]
        fan = [det3((corners[0], b, c)) for b, c in zip(corners[1:-1], corners[2:])]
        assert sum(map(abs, fan)) == (f.height - dot(f.normal, apex)) * f.area2


def hull_raise_sites():
    """(function, line) of each AssertionError that the hull code raises."""
    tree = ast.parse(inspect.getsource(polytope))
    return {
        (fn.name, node.lineno)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("convex_hull", "_start", "_wrap")
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "AssertionError"
    }


class TestConvexHull:
    @pytest.mark.parametrize("name", sorted(NAMED_FANO))
    def test_matches_brute_force_planes(self, name):
        pts = NAMED_FANO[name]
        poly = convex_hull(pts)
        expected = oracles.brute_facets(pts)
        got = {f.normal: f.height for f in poly.facets}
        assert got == expected
        assert set(poly.vertices) == oracles.brute_vertex_set(pts)

    def test_matches_oracles_on_seeded_clouds(self):
        # 600 seeded clouds and a large shear of each: the hull must have the
        # oracle's planes and vertices, and each facet its corners as its
        # cycle, from its smallest index; flat and tiny clouds must raise
        rng = random.Random(0x61F7)
        cases = Counter()
        for k in range(600):
            cloud = seeded_cloud(rng, k)
            shear = large_shear(rng)
            moved = apply_matrix(shear, cloud)
            message = degeneracy(cloud)
            if message is not None:
                cases[message] += 1
                for pts in (cloud, moved):
                    with pytest.raises(DegenerateInputError) as info:
                        convex_hull(pts)
                    assert str(info.value) == message
                continue
            planes, vertices = oracles.brute_facets(cloud), oracles.brute_vertex_set(cloud)
            cases.update(cloud_cases(cloud, planes, vertices))
            assert_hull(convex_hull(cloud), planes, vertices)
            # a vertex of the shear of a cloud is the shear of a vertex
            moved_vertices = set(apply_matrix(shear, vertices))
            assert_hull(convex_hull(moved), oracles.brute_facets(moved), moved_vertices)
        assert set(cases) == {
            "need at least 4 distinct points",
            "points are collinear",
            "points are coplanar, expected dimension 3",
            "duplicates",
            "a point above or below the smallest",
            "start face is an edge",
            "start face is a facet",
            "point inside",
            "point inside a facet",
            "point inside an edge",
        }
        assert cases["start face is an edge"] + cases["start face is a facet"] >= 400

    def test_past_the_pair_table(self):
        # hulls past the size of any reflexive 3-polytope (at most 14
        # vertices and 14 facets): more than 16 vertices (a prism over a
        # lattice 10-gon), more than 16 facets (a bipyramid over it) and more
        # than 16 input points, most of them not vertices (the corners of
        # {-2, 2}^3 with points inside, inside a facet and inside an edge),
        # and the octahedron for contrast; each against the oracles, its edges
        # and facet pairs against the steps of its cycles, and through a
        # pickle round trip, as a caller's own process pool sends polytopes
        decagon = ((0, 0), (1, 0), (3, 1), (4, 2), (5, 4), (5, 5), (4, 5), (2, 4), (1, 3), (0, 1))
        prism = [(x, y, z) for x, y in decagon for z in (0, 1)]
        bipyramid = [(x, y, 0) for x, y in decagon] + [(2, 2, 1), (3, 3, -1)]
        inside = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                  (0, 0, -1), (1, 1, 1), (-1, -1, 1), (1, -1, -1)]
        box = list(product((-2, 2), repeat=3)) + inside + [(2, 0, 0), (2, 2, 0)]
        assert len(box) > 16
        clouds = [(prism, 20, 12), (bipyramid, 12, 20), (box, 8, 6), (OCTAHEDRON, 6, 8)]
        for pts, v, f in clouds:
            poly = convex_hull(pts)
            assert (len(poly.vertices), len(poly.facets)) == (v, f)
            assert_hull(poly, oracles.brute_facets(pts), oracles.brute_vertex_set(pts))
            left = {}
            for fi, facet in enumerate(poly.facets):
                cyc = facet.vertex_indices
                left.update(dict.fromkeys(zip(cyc, cyc[1:] + cyc[:1]), fi))
            assert poly.edges == tuple(sorted(step for step in left if step[0] < step[1]))
            assert poly.facet_adjacency == tuple((left[a, b], left[b, a]) for a, b in poly.edges)
            assert pickle.loads(pickle.dumps(poly)) == poly

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
            for fi, facet in enumerate(poly.facets):
                cyc = [poly.vertices[i] for i in facet.vertex_indices]
                polygon = facet_to_polygon(poly, fi)
                lifted = [
                    oracles.chart_lift(facet.normal, facet.height, q)
                    for q in polygon.vertices
                ]
                assert lifted == cyc
                # the polygon is its own 2-D hull up to where the cycle
                # starts, which is at the smallest vertex index
                assert facet.vertex_indices[0] == min(facet.vertex_indices)
                hull_2d = convex_hull_2d(polygon.vertices)
                assert rotated_to_min(polygon.vertices) == hull_2d.vertices
                for k in range(len(cyc)):
                    a, b, c = cyc[k], cyc[(k + 1) % len(cyc)], cyc[(k + 2) % len(cyc)]
                    turn = cross(oracles.sub(b, a), oracles.sub(c, b))
                    assert dot(turn, facet.normal) >= 0
                    assert turn != (0, 0, 0)

    def test_facet_area_and_steps_match_the_polygon(self, reflexive_pool):
        # the hull reads area2 off a triangle's raw normal, a quadrilateral's
        # diagonals or a larger facet's shoelace sum, and wraps its boundary
        # in Z^3; the polygon walks the chart points: the two paths must agree
        rng = random.Random(0xA2EA)
        pool = random.Random(0xC055).sample(reflexive_pool, 30)
        inputs = list(NAMED_FANO.values()) + pool
        inputs += [apply_matrix(large_shear(rng), pts) for pts in pool]
        # clouds with points inside facets and on edges
        inputs += [oracles.brute_points(pts) for pts in NAMED_FANO.values()]
        # planes with four members not in strictly convex position, which
        # the wrap leaves to its walk: a triangle with a point inside an
        # edge, and one with a point inside it, each also sheared
        flat_four = [((0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1)),
                     ((0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 0), (1, 1, -2))]
        inputs += flat_four + [apply_matrix(large_shear(rng), pts) for pts in flat_four]
        for pts in inputs:
            poly = convex_hull(pts)
            pts = list(dict.fromkeys(pts))
            vertices = oracles.brute_vertex_set(pts)
            assert_hull(poly, oracles.brute_facets(pts), vertices)
            stepping = {}
            for facet in poly.facets:
                cyc = [poly.vertices[i] for i in facet.vertex_indices]
                stepping.update(dict.fromkeys(zip(cyc, cyc[1:] + cyc[:1]), facet))
            for fi, facet in enumerate(poly.facets):
                cyc = [poly.vertices[i] for i in facet.vertex_indices]
                polygon = facet_to_polygon(poly, fi)
                assert facet.area2 == polygon.area2
                steps = [gcd(*oracles.sub(b, a)) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
                assert steps == [length for _, length in polygon.edges]
                fan = [det3((cyc[0], b, c)) for b, c in zip(cyc[1:-1], cyc[2:])]
                assert sum(map(abs, fan)) == facet.height * facet.area2
                # the wrap across each step, from the facet on its other side,
                # returns this facet and the members of its plane off the cycle
                off = sorted(p for p in pts if dot(facet.normal, p) == facet.height
                             and p not in vertices)
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    normal, height, area2, cycle, others = polytope._wrap(
                        pts, pts.index(a), pts.index(b), stepping[b, a].normal)
                    assert (normal, height, area2) == (facet.normal, facet.height, facet.area2)
                    assert [pts[r] for r in cycle] == cyc
                    assert sorted(pts[r] for r in others) == off

    def test_faulty_wraps_reach_every_guard(self, monkeypatch):
        # each fault injected into the facet wrap trips a guard of the hull,
        # which raises AssertionError and never returns a hull; together the
        # faults reach every AssertionError that the hull code raises
        wrap = polytope._wrap

        def on_call(k, fault):
            calls = count(1)

            def faulty(pts, u, v, m):
                facet = wrap(pts, u, v, m)
                return fault(pts, u, v, *facet) if next(calls) == k else facet
            return faulty

        def drop_last_corner(pts, u, v, normal, height, area2, cycle, others):
            return normal, height, area2, cycle[:-1], others

        def corner_off_cycle(pts, u, v, normal, height, area2, cycle, others):
            # a corner other than u and v listed as a member off the cycle
            j = next(j for j, r in enumerate(cycle) if r not in (u, v))
            return normal, height, area2, cycle[:j] + cycle[j + 1:], (*others, cycle[j])

        def edge_point_as_corner(pts, u, v, normal, height, area2, cycle, others):
            # the midpoint of an edge of the cube, put after the first corner
            i = next(i for i in others if sum(map(abs, pts[i])) == 2)
            return normal, height, area2, (cycle[0], i, *cycle[1:]), others

        def walked_backwards(pts, u, v, normal, height, area2, cycle, others):
            return normal, height, area2, cycle[::-1], others

        def walked_twice(pts, u, v, normal, height, area2, cycle, others):
            return normal, height, area2, cycle * 2, others

        def pinched_cube():
            # the cube's facets with one corner renamed as its opposite: each
            # step is still on two facets, but the surface is pinched there
            cube = list(CUBE)
            a, c, _ = polytope._start(cube)
            # corner 7 - i of CUBE is opposite corner i
            i = next(i for i in range(8) if {a, c}.isdisjoint((i, 7 - i)))
            facet_on = {}
            for f in convex_hull(cube).facets:
                cycle = tuple(i if r == 7 - i else r for r in f.vertex_indices)
                for step in zip(cycle, cycle[1:] + cycle[:1]):
                    facet_on[step] = (f.normal, f.height, f.area2, cycle, ())
            return lambda pts, u, v, m: facet_on[u, v]

        cube, octahedron, pyramid = list(CUBE), list(OCTAHEDRON), list(PYRAMID)
        faults = [
            # the plane to turn from is given inside out: nothing turns it
            (cube, lambda pts, u, v, m: wrap(pts, u, v, tuple(-x for x in m)),
             "vertex on the wrong side of a facet"),
            # a square cut along its diagonal: the wrap across the diagonal
            # starts from a plane with points on both sides of it, and its
            # member pass finds a point above the plane it turned to
            (cube, on_call(2, drop_last_corner), "vertex on the wrong side of a facet"),
            # the next wrap starts at the edge point and never gets back to it
            (oracles.brute_points(CUBE), on_call(1, edge_point_as_corner),
             "facet boundary is not one cycle"),
            (pyramid, on_call(1, walked_backwards), "hull edge on a single facet"),
            (pyramid, on_call(3, corner_off_cycle), "vertex on the wrong side of a facet"),
            (octahedron, on_call(1, walked_twice), "hull edge not on exactly two facets"),
            (cube, pinched_cube(), "hull is not a 2-sphere"),
        ]
        reached = set()
        for pts, faulty, message in faults:
            with monkeypatch.context() as patch:
                patch.setattr(polytope, "_wrap", faulty)
                with pytest.raises(AssertionError) as info:
                    convex_hull(pts)
            assert str(info.value) == message
            frame = traceback.extract_tb(info.value.__traceback__)[-1]
            reached.add((frame.name, frame.lineno))
        assert len(reached) == len(faults)
        assert reached == hull_raise_sites()

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
        "point", [(0.5, 0, 0), ("1", 0, 0), (1, 0), (1, 0, 0, 0), (True, 0, 0), (0, 1, False)],
        ids=repr,
    )
    def test_non_lattice_point_rejected(self, point):
        # a bool is no coordinate, as the JSON reader also says
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
        "pts, wraps, message",
        [
            ([(1, 2, 0), (1, 2, 5), (1, 2, -3), (1, 2, 1)], 1, "points are collinear"),
            ([(0, 0, 0), (1, 2, 0), (0, 0, 1), (2, 4, 3), (1, 2, -1)], 1,
             "points are coplanar, expected dimension 3"),
            ([(0, 0, 0), (1, 0, 1), (0, 1, -1), (1, 1, 0), (2, -1, 3)], 2,
             "points are coplanar, expected dimension 3"),
            ([(t, -t, 2 * t) for t in (0, 3, -1, 2, 1)], 1, "points are collinear"),
        ],
        ids=["vertical_line", "vertical_plane", "slanted_plane", "slanted_line"],
    )
    def test_flat_input_found_by_a_wrap(self, pts, wraps, message, monkeypatch):
        # flat input reaches the wrap whose starting plane holds every point:
        # the start's vertical plane on a line or a vertical plane, else the
        # plane of the first facet, turned about one of its steps.  A large
        # shear moves the plane; the message stays
        calls = []
        wrap = polytope._wrap

        def counted(*args):
            calls.append(args)
            return wrap(*args)

        monkeypatch.setattr(polytope, "_wrap", counted)
        rng = random.Random(0xF1A7)
        for moved in (pts, apply_matrix(large_shear(rng), pts), apply_matrix(large_shear(rng), pts)):
            assert degeneracy(moved) == message
            with pytest.raises(DegenerateInputError) as info:
                convex_hull(moved)
            assert str(info.value) == message
            if moved is pts:
                assert len(calls) == wraps

    @pytest.mark.parametrize(
        "pts",
        [
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
        ],
        ids=["collinear_prefix", "coplanar_prefix"],
    )
    def test_flat_prefix_is_read_past(self, pts):
        # the first three, or four, points lie on a line, or in a plane
        poly = convex_hull(pts)
        assert convex_hull(poly.vertices) == poly
        assert {f.normal: f.height for f in poly.facets} == oracles.brute_facets(pts)

    @pytest.mark.parametrize("name", sorted(NAMED_FANO))
    def test_first_four_points_in_any_order(self, name):
        # the 24 orderings of the first four points give the same facets,
        # each with the same cycle of points.  A cycle starts at its smallest
        # vertex index, which moves with the input order, so the cycles are
        # compared from their smallest point.
        pts = list(NAMED_FANO[name])

        def facets(points):
            poly = convex_hull(points)
            return [
                (f.normal, f.height, rotated_to_min([poly.vertices[i] for i in f.vertex_indices]))
                for f in poly.facets
            ]

        expected = facets(pts)
        for head in permutations(pts[:4]):
            assert facets(list(head) + pts[4:]) == expected

    def test_start_is_a_hull_edge_on_a_supporting_plane(self):
        # the start's vertical plane supports the hull at its smallest point
        # a, and its face, an edge or a facet, steps from a to c: both kinds
        # of face occur among the fixtures
        kinds = set()
        for pts in NAMED_FANO.values():
            pts = list(pts)
            a, c, m = polytope._start(pts)
            assert pts[a] == min(pts) and m[2] == 0
            height = dot(m, pts[a])
            assert all(dot(m, p) <= height for p in pts)
            # two facet planes of the oracle hold a -> c
            planes = oracles.brute_facets(pts).items()
            assert sum(dot(n, pts[a]) == dot(n, pts[c]) == h for n, h in planes) == 2
            # no point of the face lies right of a -> c, seen from outside
            face = [oracles.sub(p, pts[a]) for p in pts if dot(m, p) == height]
            step = oracles.sub(pts[c], pts[a])
            assert all(det3((m, step, p)) >= 0 for p in face)
            kinds.add("facet" if any(cross(step, p) != (0, 0, 0) for p in face) else "edge")
        assert kinds == {"edge", "facet"}

    def test_charts_computed_on_demand(self, reflexive_pool, monkeypatch):
        # the hull reads no chart rows and keeps no chart; each call of
        # facet_to_polygon reads the facet's two chart rows once
        assert "chart" not in {f.name for f in fields(Facet)}
        assert not hasattr(polytope, "chart_rows")
        calls = []

        def counting_chart_rows(n):
            calls.append(n)
            return chart_rows(n)

        monkeypatch.setattr(fano3.intlinalg, "chart_rows", counting_chart_rows)
        monkeypatch.setattr(fano3.polygon, "chart_rows", counting_chart_rows)
        for pts in list(NAMED_FANO.values()) + reflexive_pool[:10]:
            calls.clear()
            poly = convex_hull(pts)
            assert calls == []
            for fi in range(len(poly.facets)):
                assert facet_to_polygon(poly, fi) == facet_to_polygon(poly, fi)
            assert calls == [f.normal for f in poly.facets for _ in range(2)]

    def test_edge_lattice_length_index_range(self):
        # as facet_to_polygon, an index outside 0..len(edges) - 1 is an
        # IndexError; a negative one does not count from the end
        poly = convex_hull(OCTAHEDRON)
        assert len(poly.edges) == 12
        for i in (0, 11):
            a, b = poly.edges[i]
            assert poly.edge_lattice_length(i) == gcd(*oracles.sub(poly.vertices[b], poly.vertices[a]))
        for i in (-1, 12):
            with pytest.raises(IndexError, match=f"^edge index {i} out of range$"):
                poly.edge_lattice_length(i)
        with pytest.raises(IndexError, match="^facet index -1 out of range$"):
            facet_to_polygon(poly, -1)

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
            poly = convex_hull(pts)
            for i, f in enumerate(poly.facets):
                key = (f.vertex_indices, f.normal, f.height, f.area2, facet_to_polygon(poly, i).vertices)
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


    def test_height_one_on_every_facet_is_reflexive(self, reflexive_pool):
        # is_reflexive reads the heights alone: height 1 on every facet makes
        # the polytope Fano, so the old definition below, which also ran the
        # Fano test, gives the same verdict
        def with_fano_test(poly):
            return is_fano(poly) and all(f.height == 1 for f in poly.facets)

        twice = tuple((2 * x, 2 * y, 2 * z) for x, y, z in OCTAHEDRON)
        off_origin = tuple((x + 1, y + 1, z) for x, y, z in OCTAHEDRON)
        inputs = list(NAMED_FANO.values()) + list(reflexive_pool)
        inputs += [NOT_REFLEXIVE, FANO_UNITARY_NOT_HEIGHT_ONE, twice, off_origin]
        verdicts = []
        for pts in inputs:
            poly = convex_hull(pts)
            assert is_reflexive(poly) == with_fano_test(poly)
            verdicts.append(is_reflexive(poly))
        assert verdicts == [True] * (len(inputs) - 4) + [False] * 4


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
