"""Randomised property suites over a pool of generated reflexive polytopes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import NAMED_FANO, OCTAHEDRON, POOL_SIZE, apply_matrix, random_unimodular
from fano3.criteria import classify
from fano3.polygon import facet_to_polygon, maximal_decompositions
from fano3.polytope import convex_hull, is_reflexive, lattice_points, polar


def report_signature(rep):
    """The GL(3, Z)-invariant content of a classification report."""
    return (
        rep.reflexive,
        rep.smooth,
        rep.isolated_singular,
        rep.nodes,
        rep.totaro_rigid,
        rep.rigid_face_obstruction,
        rep.indec_obstruction,
        rep.aft_obstruction,
        rep.low_degree,
        len(rep.rigid_face_witnesses),
        len(rep.indec_witnesses),
        len(rep.aft_witnesses),
        rep.degree,
        rep.hilbert,
        tuple(sorted((c.kind, c.m, c.edge_lengths) for c in rep.facet_classes)),
    )


class TestPoolGeometry:
    def test_pool_is_reflexive(self, reflexive_pool):
        for pts in reflexive_pool:
            assert is_reflexive(convex_hull(pts))

    def test_polar_involution(self, reflexive_pool):
        for pts in reflexive_pool:
            poly = convex_hull(pts)
            assert set(polar(polar(poly)).vertices) == set(poly.vertices)

    def test_euler_relation(self, reflexive_pool):
        for pts in reflexive_pool:
            poly = convex_hull(pts)
            assert len(poly.vertices) - len(poly.edges) + len(poly.facets) == 2

    def test_volume_is_cone_sum_over_facets(self, reflexive_pool):
        from fano3.polytope import normalized_volume

        for pts in reflexive_pool[:50]:
            poly = convex_hull(pts)
            total = 0
            for i, facet in enumerate(poly.facets):
                total += facet.height * facet_to_polygon(poly, i).area2
            assert total == normalized_volume(poly)


class TestPoolClassification:
    def test_gl3_invariance_of_classify(self, reflexive_pool, pool_rng):
        for pts in reflexive_pool:
            base = report_signature(classify(convex_hull(pts)))
            for _ in range(10):
                u = random_unimodular(pool_rng, shears=2)
                moved = classify(convex_hull(apply_matrix(u, pts)))
                assert report_signature(moved) == base

    def test_decompositions_rebuild_their_facets(self, reflexive_pool):
        for pts in reflexive_pool:
            poly = convex_hull(pts)
            for i in range(len(poly.facets)):
                polygon = facet_to_polygon(poly, i)
                for dec in maximal_decompositions(polygon):
                    total = oracles.minkowski_sum_2d(
                        [s.vertices for s in dec.summands]
                    )
                    assert oracles.normalize_translation(total) == \
                        oracles.normalize_translation(polygon.vertices)

    def test_third_difference_equals_degree(self, reflexive_pool):
        for pts in reflexive_pool:
            rep = classify(convex_hull(pts), m_max=5)
            hs = rep.hilbert
            for m in range(3, 6):
                assert hs[m] - 3 * hs[m - 1] + 3 * hs[m - 2] - hs[m - 3] == rep.degree

    def test_interior_point_identity(self, reflexive_pool):
        for pts in reflexive_pool[:50]:
            poly = convex_hull(pts)
            assert lattice_points(poly, 2, interior=True) == lattice_points(poly, 1)


@st.composite
def large_shears(draw):
    """A GL(3, Z) matrix: up to three shears with factors up to 300, one sign flip."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(draw(st.integers(1, 3))):
        src, dst, _ = draw(st.permutations(range(3)))
        k = draw(st.integers(-300, 300))
        m[dst] = [a + k * b for a, b in zip(m[dst], m[src])]
    flip = draw(st.integers(0, 2))
    m[flip] = [-a for a in m[flip]]
    return m


class TestLargeShears:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(index=st.integers(0, len(NAMED_FANO) + POOL_SIZE - 1), u=large_shears())
    def test_gl3_invariance_under_large_shears(self, reflexive_pool, index, u):
        pts = (list(NAMED_FANO.values()) + reflexive_pool)[index]
        base = report_signature(classify(convex_hull(pts)))
        assert report_signature(classify(convex_hull(apply_matrix(u, pts)))) == base

    @pytest.mark.parametrize("k", [30, 300])
    def test_sheared_octahedron(self, k):
        u = ((1, k, 0), (0, 1, k), (0, 0, 1))
        rep = classify(convex_hull(apply_matrix(u, OCTAHEDRON)))
        assert rep.degree == 48
        assert rep.hilbert == (1, 27, 125, 343, 729, 1331)


class TestListInclusions:
    def test_section_five_inclusions_hold_on_generated_data(self, reflexive_pool):
        ids = {}
        reports = []
        data = list(NAMED_FANO.values()) + list(reflexive_pool)
        for n, pts in enumerate(data):
            rep = classify(convex_hull(pts), polytope_id=n)
            reports.append(rep)
        everything = {r.polytope_id for r in reports}
        smooth = {r.polytope_id for r in reports if r.smooth}
        isol = {r.polytope_id for r in reports if r.isolated_singular}
        nodes = {r.polytope_id for r in reports if r.nodes}
        low = {r.polytope_id for r in reports if r.low_degree}
        indec = {r.polytope_id for r in reports if r.indec_obstruction}
        aft = {r.polytope_id for r in reports if r.aft_obstruction}
        assert nodes <= isol
        assert isol <= everything - smooth
        assert not (indec | aft) & (smooth | nodes | low)
