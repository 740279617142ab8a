import random

import pytest

import oracles
from conftest import AFT_FIXTURE, CUBE, PENTAGON, PYRAMID, apply_matrix, large_shear
from fano3.intlinalg import det3, dot
from fano3.polygon import (
    AM_TRIANGLE,
    OTHER,
    STANDARD_SQUARE,
    STANDARD_TRIANGLE,
    LatticePolygon,
    classify_polygon,
    convex_hull_2d,
    decomposition_from_assignments,
    edge_lattice_lengths,
    enumerate_summand_vectors,
    facet_to_polygon,
    has_unitary_edges,
    is_minkowski_indecomposable,
    maximal_decompositions,
    translation_key,
)
from fano3.polytope import convex_hull, polar

UNIT_SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))
UNIT_TRIANGLE = ((0, 0), (1, 0), (0, 1))


def am_triangle(m):
    return ((0, 0), (m + 1, 0), (0, 1))


def pentagon():
    return LatticePolygon(PENTAGON)


class TestPolygonBasics:
    def test_rejects_collinear(self):
        with pytest.raises(ValueError):
            LatticePolygon(((0, 0), (1, 0), (2, 0)))

    def test_rejects_nonconvex_cycle(self):
        with pytest.raises(ValueError):
            LatticePolygon(((0, 0), (2, 0), (1, 1), (2, 2), (0, 2)))

    def test_segment_edges(self):
        seg = LatticePolygon(((0, 0), (2, 2)))
        assert seg.edges == (((1, 1), 2), ((-1, -1), 2))

    def test_closed_cycle(self):
        poly = pentagon()
        total = [0, 0]
        for (dx, dy), length in poly.edges:
            total[0] += length * dx
            total[1] += length * dy
        assert total == [0, 0]

    def test_hull_2d_drops_inner_points(self):
        poly = convex_hull_2d([(0, 0), (3, 0), (0, 3), (1, 1), (1, 0), (2, 0)])
        assert set(poly.vertices) == {(0, 0), (3, 0), (0, 3)}


class TestEdgeLengths:
    def test_pentagon_unitary(self):
        assert edge_lattice_lengths(pentagon()) == (1, 1, 1, 1, 1)
        assert has_unitary_edges(pentagon())

    def test_am_triangle_lengths(self):
        assert edge_lattice_lengths(LatticePolygon(am_triangle(2))) == (1, 1, 3)

    def test_unit_square(self):
        assert edge_lattice_lengths(LatticePolygon(UNIT_SQUARE)) == (1, 1, 1, 1)

    def test_am_not_unitary(self):
        assert not has_unitary_edges(LatticePolygon(am_triangle(1)))


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

    def test_rejects_incomplete_assignments(self):
        poly = pentagon()
        with pytest.raises(ValueError):
            decomposition_from_assignments(poly, [(1, 1, 0, 1, 0)])

    def test_summands_reconstruct_polygon(self):
        for verts in (PENTAGON, UNIT_SQUARE, am_triangle(2), ((2, 0), (0, 2), (-2, 0), (0, -2))):
            poly = LatticePolygon(verts)
            for dec in maximal_decompositions(poly):
                total = oracles.minkowski_sum_2d([s.vertices for s in dec.summands])
                assert oracles.normalize_translation(total) == oracles.normalize_translation(verts)

    def test_summands_are_indecomposable(self):
        for verts in (PENTAGON, UNIT_SQUARE, ((2, 0), (0, 2), (-2, 0), (0, -2))):
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
                assert has_unitary_edges(other) == has_unitary_edges(poly)
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
                flat.chart.lift(q)
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
                assert [flat.chart.lift(q) for q in flat.vertices] == originals
                # b1, b2 lie in the facet plane and, with a height-one
                # vertex, form a basis of Z^3, so they span its lattice
                b1, b2 = flat.chart.basis
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
