import gc
import random
from math import gcd

import pytest

import oracles
from conftest import (
    AFT_FIXTURE,
    CUBE,
    NAMED_FANO,
    PENTAGON,
    PYRAMID,
    apply_matrix,
    large_shear,
)
from fano3.intlinalg import det3, dot
from fano3.polygon import (
    AM_TRIANGLE,
    OTHER,
    STANDARD_SQUARE,
    STANDARD_TRIANGLE,
    LatticePolygon,
    classify_polygon,
    convex_hull_2d,
    edge_lattice_lengths,
    enumerate_summand_vectors,
    facet_to_polygon,
    is_minkowski_indecomposable,
    maximal_decompositions,
    summand_assignments,
    translation_key,
)
from fano3.polytope import convex_hull, polar

UNIT_SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))
UNIT_TRIANGLE = ((0, 0), (1, 0), (0, 1))
HEXAGON = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
DIAMOND = ((2, 0), (0, 2), (-2, 0), (0, -2))
# a facet of the Fano polytope with vertices (2, 1, 1), (-1, 2, 2),
# (-2, 3, -2), (0, -3, 2), (-2, -3, 3), (3, -3, -2), (-2, -1, 3),
# (2, -1, 1), flattened; it has two maximal decompositions
KEY_ORDER_PENTAGON = ((-1, -1), (1, -3), (3, -3), (3, -2), (1, -1))
# a convex heptagon, counterclockwise
HEPTAGON = ((0, 0), (2, 0), (4, 1), (5, 3), (3, 5), (1, 4), (-1, 2))


def am_triangle(m):
    return ((0, 0), (m + 1, 0), (0, 1))


def pentagon():
    return LatticePolygon(PENTAGON)


class TestPolygonBasics:
    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError, match="repeated vertex in polygon"):
            LatticePolygon(((0, 0), (1, 0), (0, 1), (1, 0)))

    def test_rejects_collinear(self):
        # a collinear triple, and a quadrilateral with a straight angle
        for cycle in (((0, 0), (1, 0), (2, 0)), ((0, 0), (1, 0), (2, 0), (1, 1))):
            with pytest.raises(ValueError, match="not in strictly convex position"):
                LatticePolygon(cycle)

    def test_rejects_nonconvex_cycle(self):
        with pytest.raises(ValueError, match="vertex cycle is not convex"):
            LatticePolygon(((0, 0), (2, 0), (1, 1), (2, 2), (0, 2)))

    @pytest.mark.parametrize(
        "star",
        [
            # a pentagram and the heptagrams {7/2} and {7/3}: every turn has
            # one sign, but the edge directions wind around two or three times
            ((0, 0), (3, 2), (-1, 2), (2, 0), (1, 3)),
            tuple((HEPTAGON * 2)[::2][:7]),
            tuple((HEPTAGON * 3)[::3][:7]),
        ],
        ids=["pentagram", "heptagram_2", "heptagram_3"],
    )
    def test_rejects_star_polygon(self, star):
        for cycle in (star, star[::-1]):
            with pytest.raises(ValueError, match="vertex cycle is not convex"):
                LatticePolygon(cycle)

    @pytest.mark.parametrize("cycle", [PENTAGON, HEXAGON, HEPTAGON], ids=["5", "6", "7"])
    def test_convex_cycles_pass_both_ways(self, cycle):
        for vs in (cycle, cycle[::-1]):
            assert LatticePolygon(vs).vertices == vs

    def test_segment_edges(self):
        seg = LatticePolygon(((0, 0), (2, 2)))
        assert seg.edges == (((1, 1), 2), ((-1, -1), 2))
        assert edge_lattice_lengths(seg) == (2,)
        assert LatticePolygon(((2, -1),)).edges == ()

    def test_closed_cycle(self):
        poly = pentagon()
        total = [0, 0]
        for (dx, dy), length in poly.edges:
            total[0] += length * dx
            total[1] += length * dy
        assert total == [0, 0]

    def test_edges_match_oracle(self):
        rng = random.Random(0xED6E)
        cycles = [((rng.randint(-9, 9), rng.randint(-9, 9)),) for _ in range(20)]
        while len(cycles) < 320:
            pts = {(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(2, 9))}
            cycle = oracles.jarvis_hull_2d(pts)
            if len(cycle) >= 2:
                cycles += [tuple(cycle), tuple(reversed(cycle))]
        kinds = set()
        for cycle in cycles:
            poly = LatticePolygon(cycle)
            assert poly.edges == oracles.polygon_edges(cycle)
            kinds.add(min(len(cycle), 3))
        assert kinds == {1, 2, 3}

    def test_equality_and_hash_read_vertices_only(self):
        a = LatticePolygon(PENTAGON)
        b = LatticePolygon([list(v) for v in PENTAGON])
        assert a == b and hash(a) == hash(b)
        assert a != LatticePolygon(PENTAGON[1:] + PENTAGON[:1])
        assert repr(a) == f"LatticePolygon(vertices={PENTAGON!r})"

    def test_hull_2d_drops_inner_points(self):
        poly = convex_hull_2d([(0, 0), (3, 0), (0, 3), (1, 1), (1, 0), (2, 0)])
        assert set(poly.vertices) == {(0, 0), (3, 0), (0, 3)}


class TestEdgeLengths:
    def test_pentagon_unitary(self):
        assert edge_lattice_lengths(pentagon()) == (1, 1, 1, 1, 1)

    def test_am_triangle_lengths(self):
        assert edge_lattice_lengths(LatticePolygon(am_triangle(2))) == (1, 1, 3)

    def test_unit_square(self):
        assert edge_lattice_lengths(LatticePolygon(UNIT_SQUARE)) == (1, 1, 1, 1)

    def test_am_not_unitary(self):
        assert edge_lattice_lengths(LatticePolygon(am_triangle(1)))[-1] == 2


class TestClassify:
    def test_unit_square(self):
        cls = classify_polygon(LatticePolygon(UNIT_SQUARE))
        assert cls.kind == STANDARD_SQUARE

    def test_unit_triangle(self):
        cls = classify_polygon(LatticePolygon(UNIT_TRIANGLE))
        assert cls.kind == STANDARD_TRIANGLE

    @pytest.mark.parametrize("m", range(1, 6))
    def test_am_family(self, m):
        cls = classify_polygon(LatticePolygon(am_triangle(m)))
        assert cls.kind == AM_TRIANGLE
        assert cls.m == m

    def test_pentagon_is_other(self):
        assert classify_polygon(pentagon()).kind == OTHER

    def test_big_square_is_other(self):
        cls = classify_polygon(LatticePolygon(((0, 0), (2, 0), (2, 2), (0, 2))))
        assert cls.kind == OTHER

    def test_long_thin_triangle_with_interior_point_is_other(self):
        # lengths {1, 1, 4} but one interior point, so no A_3 tag
        poly = LatticePolygon(((0, 0), (4, 0), (1, 2)))
        cls = classify_polygon(poly)
        assert cls.edge_lengths == (1, 1, 4)
        assert cls.interior_points == 2
        assert cls.kind == OTHER

    def test_kind_matches_definition(self):
        # the definitions by area and lattice points, against the tags the
        # classifier derives from edge lengths and the interior count
        # and the area computed in the polygon's walk, against a shoelace
        # sum over the cycle and its reverse; a point and a segment have 0
        rng = random.Random(0xC1A5)
        cycles = [UNIT_SQUARE, ((0, 0), (1, 0), (3, 1), (2, 1))]
        cycles += [((2, -1),), ((0, 0), (3, 1))]
        for _ in range(600):
            pts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))}
            cycles.append(oracles.jarvis_hull_2d(pts))
        seen = set()
        for cycle in cycles:
            area2 = abs(sum(
                cycle[i][0] * cycle[(i + 1) % len(cycle)][1]
                - cycle[(i + 1) % len(cycle)][0] * cycle[i][1]
                for i in range(len(cycle))
            ))
            # both orientations give the same area, edge lengths and class
            ccw, cw = LatticePolygon(cycle), LatticePolygon(cycle[::-1])
            assert ccw.area2 == cw.area2 == area2
            assert edge_lattice_lengths(ccw) == edge_lattice_lengths(cw)
            cls = classify_polygon(ccw)
            assert classify_polygon(cw) == cls
            if len(cycle) < 3:
                assert area2 == 0 and cls.interior_points == 0
                continue
            points = oracles.polygon_lattice_points(cycle)
            inside = {p for p in points if _strictly_inside(cycle, p)}
            lengths = sorted(t for _, t in oracles.polygon_edges(cycle))
            expected = OTHER
            if len(cycle) == 3 and area2 == 1:
                expected = STANDARD_TRIANGLE
            elif len(cycle) == 4 and len(points) == 4:
                expected = STANDARD_SQUARE
            elif len(cycle) == 3 and not inside and lengths[:2] == [1, 1] and lengths[2] >= 2:
                expected = AM_TRIANGLE
                assert cls.m == lengths[2] - 1
            assert cls.kind == expected
            seen.add(expected)
        assert seen == {STANDARD_TRIANGLE, STANDARD_SQUARE, AM_TRIANGLE, OTHER}

    def test_descriptors_match_brute_force(self):
        for verts in (UNIT_SQUARE, UNIT_TRIANGLE, am_triangle(3), PENTAGON):
            poly = LatticePolygon(verts)
            cls = classify_polygon(poly)
            points = oracles.polygon_lattice_points(verts)
            boundary = points - {
                p for p in points if _strictly_inside(verts, p)
            }
            assert cls.interior_points == len(points) - len(boundary)


def _strictly_inside(vertices, p):
    vs = [tuple(v) for v in vertices]
    area2 = sum(
        vs[i][0] * vs[(i + 1) % len(vs)][1] - vs[(i + 1) % len(vs)][0] * vs[i][1]
        for i in range(len(vs))
    )
    if area2 < 0:
        vs.reverse()
    for i in range(len(vs)):
        a, b = vs[i], vs[(i + 1) % len(vs)]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross <= 0:
            return False
    return True


class TestSummandVectors:
    def test_pentagon_has_exactly_four(self):
        poly = pentagon()
        got = enumerate_summand_vectors(poly)
        lengths = tuple(length for _, length in poly.edges)
        assert len(got) == 4
        assert (0,) * 5 in got
        assert lengths in got

    @pytest.mark.parametrize("m", range(1, 6))
    def test_am_triangle_only_trivial(self, m):
        got = enumerate_summand_vectors(LatticePolygon(am_triangle(m)))
        assert got == [(0, 0, 0), (m + 1, 1, 1)]

    def test_unit_square_four(self):
        got = enumerate_summand_vectors(LatticePolygon(UNIT_SQUARE))
        assert got == [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)]

    def test_facet_steps_in_space_match_the_polygon(self, reflexive_pool):
        # classify runs the search on a facet's 3-D steps, as (primitive
        # direction, lattice length); the polygon's edges follow the same
        # cycle in the chart, so both must give the same assignments.  The
        # polars have the larger facets with longer edges.
        rng = random.Random(0x3D57)
        pool = reflexive_pool + [polar(convex_hull(pts)).vertices for pts in reflexive_pool]
        inputs = list(NAMED_FANO.values()) + pool
        inputs += [apply_matrix(large_shear(rng), pts) for pts in pool]
        decomposable = 0
        for pts in inputs:
            for facet in convex_hull(pts).facets:
                steps = []
                for a, b in zip(facet.points, facet.points[1:] + facet.points[:1]):
                    d = oracles.sub(b, a)
                    steps.append((tuple(x // gcd(*d) for x in d), gcd(*d)))
                got = summand_assignments(steps)
                assert got == enumerate_summand_vectors(facet.polygon)
                decomposable += len(got) > 2
        assert decomposable > 100


class TestIndecomposable:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_am_triangles(self, m):
        assert is_minkowski_indecomposable(LatticePolygon(am_triangle(m)))

    def test_pentagon_decomposes(self):
        assert not is_minkowski_indecomposable(pentagon())

    def test_long_segment_decomposes(self):
        assert not is_minkowski_indecomposable(LatticePolygon(((0, 0), (3, 0))))
        assert is_minkowski_indecomposable(LatticePolygon(((0, 0), (1, 0))))

    def test_standard_triangle_indecomposable(self):
        assert is_minkowski_indecomposable(LatticePolygon(UNIT_TRIANGLE))


class TestMaximalDecompositions:
    def test_pentagon_unique(self):
        decs = maximal_decompositions(pentagon())
        assert len(decs) == 1
        summands = decs[0].summands
        assert [s.vertices for s in summands] == [
            ((0, 0), (-1, 0), (0, -1)),
            ((0, 0), (1, 1)),
        ]

    def test_unit_square_two_segments(self):
        decs = maximal_decompositions(LatticePolygon(UNIT_SQUARE))
        assert len(decs) == 1
        keys = sorted(translation_key(s) for s in decs[0].summands)
        assert keys == [((0, 0), (0, 1)), ((0, 0), (1, 0))]

    def test_standard_triangle_trivial(self):
        decs = maximal_decompositions(LatticePolygon(UNIT_TRIANGLE))
        assert len(decs) == 1
        assert decs[0].summands == (LatticePolygon(UNIT_TRIANGLE),)

    @pytest.fixture(scope="class")
    def polygons(self, reflexive_pool):
        """Named polygons, and each facet of 30 pool polytopes and their polars."""
        named = (PENTAGON, UNIT_SQUARE, HEXAGON, KEY_ORDER_PENTAGON, am_triangle(2), DIAMOND)
        polys = [LatticePolygon(verts) for verts in named]
        for pts in reflexive_pool[:30]:
            poly = convex_hull(pts)
            polys += [f.polygon for p in (poly, polar(poly)) for f in p.facets]
        return polys

    def test_summands_reconstruct_polygon(self, polygons):
        for poly in polygons:
            for dec in maximal_decompositions(poly):
                total = oracles.minkowski_sum_2d([s.vertices for s in dec.summands])
                assert oracles.normalize_translation(total) == oracles.normalize_translation(
                    poly.vertices
                )

    def test_decompositions_distinct_and_complete(self, polygons):
        # no two decompositions share a key, and each one's assignments
        # add up to the edge lengths of the polygon
        multiple = 0
        for poly in polygons:
            decs = maximal_decompositions(poly)
            multiple += len(decs) > 1
            assert len({dec.key() for dec in decs}) == len(decs)
            lengths = [length for _, length in poly.edges]
            for dec in decs:
                assert [sum(column) for column in zip(*dec.assignments)] == lengths
                assert list(dec.assignments) == sorted(dec.assignments, reverse=True)
        assert multiple >= 4

    def test_listed_by_key(self):
        # the partition search, which takes the largest assignment first,
        # finds the second of these first; ``inspect`` prints them by key
        decs = maximal_decompositions(LatticePolygon(KEY_ORDER_PENTAGON))
        assert [dec.assignments for dec in decs] == [
            ((1, 1, 0, 1, 0), (1, 0, 1, 0, 1), (0, 1, 0, 0, 1)),
            ((2, 0, 1, 1, 0), (0, 1, 0, 0, 1), (0, 1, 0, 0, 1)),
        ]
        assert [dec.key() for dec in decs] == sorted(dec.key() for dec in decs)

    def test_leaves_no_reference_cycles(self, reflexive_pool):
        # the search frees what it builds by reference counting alone, so the
        # cycle collector finds nothing after it
        hulls = [convex_hull(pts) for pts in list(NAMED_FANO.values()) + reflexive_pool[:20]]
        polygons = [f.polygon for poly in hulls for f in poly.facets]
        gc.collect()
        gc.disable()
        try:
            for poly in polygons:
                maximal_decompositions(poly)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_summands_are_indecomposable(self):
        for verts in (PENTAGON, UNIT_SQUARE, DIAMOND):
            for dec in maximal_decompositions(LatticePolygon(verts)):
                for s in dec.summands:
                    assert is_minkowski_indecomposable(s)


class TestAglInvariance:
    def test_predicates_stable_under_unimodular_maps(self):
        rng = random.Random(1234)
        samples = [PENTAGON, UNIT_SQUARE, UNIT_TRIANGLE, am_triangle(1), am_triangle(4)]
        for verts in samples:
            poly = LatticePolygon(verts)
            base_cls = classify_polygon(poly)
            base_dec = maximal_decompositions(poly)
            for _ in range(20):
                a, b, c, d, tx, ty = _random_agl(rng)
                mapped = tuple(
                    (a * x + b * y + tx, c * x + d * y + ty) for x, y in verts
                )
                other = LatticePolygon(mapped)
                cls = classify_polygon(other)
                assert (cls.kind, cls.m) == (base_cls.kind, base_cls.m)
                assert cls.edge_lengths == base_cls.edge_lengths
                assert is_minkowski_indecomposable(other) == is_minkowski_indecomposable(poly)
                mapped_dec = maximal_decompositions(other)
                assert len(mapped_dec) == len(base_dec)
                expected = sorted(
                    tuple(
                        sorted(
                            oracles.normalize_translation(
                                [(a * x + b * y, c * x + d * y) for x, y in s.vertices]
                            )
                            for s in dec.summands
                        )
                    )
                    for dec in base_dec
                )
                got = sorted(
                    tuple(
                        sorted(
                            oracles.normalize_translation(s.vertices)
                            for s in dec.summands
                        )
                    )
                    for dec in mapped_dec
                )
                assert got == expected


def _random_agl(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if abs(a * d - b * c) == 1:
            return a, b, c, d, rng.randint(-5, 5), rng.randint(-5, 5)


class TestFacetToPolygon:
    def test_pyramid_pentagon_facet(self):
        poly = convex_hull(PYRAMID)
        pentagonal = [
            i for i, f in enumerate(poly.facets) if len(f.vertex_indices) == 5
        ]
        assert len(pentagonal) == 1
        flat = facet_to_polygon(poly, pentagonal[0])
        assert oracles.agl2_equivalent(flat.vertices, PENTAGON)

    def test_pyramid_triangle_facets_standard(self):
        poly = convex_hull(PYRAMID)
        for i, facet in enumerate(poly.facets):
            if len(facet.vertex_indices) != 3:
                continue
            flat = facet_to_polygon(poly, i)
            assert oracles.agl2_equivalent(flat.vertices, UNIT_TRIANGLE)

    def test_octahedron_facets(self):
        poly = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)])
        for i in range(len(poly.facets)):
            assert classify_polygon(facet_to_polygon(poly, i)).kind == STANDARD_TRIANGLE

    def test_out_of_range(self):
        poly = convex_hull(PYRAMID)
        with pytest.raises(IndexError):
            facet_to_polygon(poly, 99)

    def test_chart_lifts_onto_facet_lattice_points(self):
        poly = convex_hull(PYRAMID)
        for i, facet in enumerate(poly.facets):
            flat = facet_to_polygon(poly, i)
            lifted = {
                oracles.chart_lift(facet.normal, facet.height, q)
                for q in oracles.polygon_lattice_points(flat.vertices)
            }
            box = _facet_lattice_points(poly, facet)
            assert lifted == box

    def test_chart_preserves_cycle(self, reflexive_pool):
        # the cube and the polar of the AFT fixture have the facet normals
        # (0, 0, +-1), (0, +-1, 0) and (1, 1, 0), with zero entries
        rng = random.Random(0xC4A7)
        base = [PYRAMID, CUBE, polar(convex_hull(AFT_FIXTURE)).vertices]
        base += random.Random(0xB0C5).sample(reflexive_pool, 30)
        sheared = [apply_matrix(large_shear(rng), pts) for pts in base]
        normals = set()
        for pts in base + sheared:
            poly = convex_hull(pts)
            for i, facet in enumerate(poly.facets):
                flat = facet_to_polygon(poly, i)
                originals = [poly.vertices[j] for j in facet.vertex_indices]
                lifted = [oracles.chart_lift(facet.normal, facet.height, q) for q in flat.vertices]
                assert lifted == originals
                # b1, b2 lie in the facet plane and, with a height-one
                # vertex, form a basis of Z^3, so they span its lattice
                _, b1, b2 = oracles.closed_form_plane_basis(facet.normal)
                assert dot(facet.normal, b1) == dot(facet.normal, b2) == 0
                assert facet.height == 1
                assert abs(det3((originals[0], b1, b2))) == 1
                normals.add(facet.normal)
        assert {(0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 1, 0)} <= normals


def _facet_lattice_points(poly, facet):
    los = [min(v[i] for v in poly.vertices) for i in range(3)]
    his = [max(v[i] for v in poly.vertices) for i in range(3)]
    out = set()
    for x in range(los[0], his[0] + 1):
        for y in range(los[1], his[1] + 1):
            for z in range(los[2], his[2] + 1):
                p = (x, y, z)
                value = sum(a * b for a, b in zip(facet.normal, p))
                if value != facet.height:
                    continue
                if all(
                    sum(a * b for a, b in zip(f.normal, p)) <= f.height
                    for f in poly.facets
                ):
                    out.add(p)
    return out
