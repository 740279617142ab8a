import ast
import gc
import inspect
import random
import textwrap
from dataclasses import FrozenInstanceError
from math import gcd

import pytest

import fano3
import fano3.criteria
import fano3.intlinalg
import fano3.polygon
import fano3.polytope
from conftest import (
    AFT_FIXTURE,
    CUBE,
    FANO_UNITARY_NOT_HEIGHT_ONE,
    NAMED_FANO,
    NODES_FIXTURE,
    NONZERO_PAIRING,
    NOT_REFLEXIVE,
    OCTAHEDRON,
    PYRAMID,
    RIGID_FIXTURE,
    TETRAHEDRON,
    apply_matrix,
    large_shear,
)
from fano3.criteria import (
    classify,
    criterion_aft,
    criterion_indec,
    criterion_rigid_face,
    criterion_totaro_rigid,
)
from fano3.intlinalg import cross, det3, dot, extends_to_basis, solve_height_one
from fano3.polygon import (
    AM_TRIANGLE,
    OTHER,
    STANDARD_SQUARE,
    STANDARD_TRIANGLE,
    classify_counts,
    classify_polygon,
    edge_lattice_lengths,
    facet_to_polygon,
)
from fano3.polytope import convex_hull, lattice_point_list



def hull(pts):
    return convex_hull(pts)


def report(pts):
    return classify(hull(pts))


class TestSmooth:
    def test_tetrahedron(self):
        assert report(TETRAHEDRON).smooth

    def test_octahedron(self):
        # all eight facets are unimodular triangles, so this is smooth
        assert report(OCTAHEDRON).smooth

    def test_pyramid(self):
        assert not report(PYRAMID).smooth

    def test_cube(self):
        assert not report(CUBE).smooth


class TestIsolatedSingular:
    def test_pyramid(self):
        assert report(PYRAMID).isolated_singular

    def test_smooth_excluded(self):
        assert not report(TETRAHEDRON).isolated_singular

    def test_long_edge_excluded(self):
        assert not report(AFT_FIXTURE).isolated_singular
        assert not report(CUBE).isolated_singular


class TestNodes:
    def test_octahedron(self):
        assert not report(OCTAHEDRON).nodes

    def test_pyramid(self):
        assert not report(PYRAMID).nodes

    def test_square_pyramid_fixture(self):
        assert report(NODES_FIXTURE).nodes

    def test_nodes_implies_isolated(self):
        assert report(NODES_FIXTURE).isolated_singular


class TestTotaroRigid:
    def test_tetrahedron(self):
        assert criterion_totaro_rigid(hull(TETRAHEDRON))

    def test_pyramid_pentagon_blocks(self):
        assert not criterion_totaro_rigid(hull(PYRAMID))

    def test_rigid_fixture(self):
        assert criterion_totaro_rigid(hull(RIGID_FIXTURE))

    def test_smooth_implies_rigid(self):
        for pts in NAMED_FANO.values():
            rep = report(pts)
            if rep.smooth:
                assert rep.totaro_rigid

    def test_each_edge_condition_blocks(self):
        # triangular facets throughout; AFT_FIXTURE has an edge of lattice
        # length 2, the other an edge off every height-one plane
        assert not criterion_totaro_rigid(hull(AFT_FIXTURE))
        assert not criterion_totaro_rigid(hull(FANO_UNITARY_NOT_HEIGHT_ONE))

    def test_basis_edge_iff_unitary_height_one(self, reflexive_pool):
        # the edge test both rigidity verdicts share, against the pair of
        # conditions the Totaro criterion states; the two verdicts against
        # references built from those conditions and from det3
        rng = random.Random(0x7E57)
        pool = random.Random(0xB0C5).sample(reflexive_pool, 30)
        inputs = list(NAMED_FANO.values()) + pool + [FANO_UNITARY_NOT_HEIGHT_ONE]
        inputs += [apply_matrix(large_shear(rng), pts) for pts in pool]
        outcomes = set()
        for pts in inputs:
            poly = hull(pts)
            rigid = True
            for i, (a, b) in enumerate(poly.edges):
                va, vb = poly.vertices[a], poly.vertices[b]
                length = poly.edge_lattice_length(i)
                assert length == gcd(*(y - x for x, y in zip(va, vb)))
                unitary = length == 1
                height_one = solve_height_one(va, vb) is not None
                assert extends_to_basis((va, vb)) == (unitary and height_one)
                rigid = rigid and unitary and height_one
                outcomes.add((unitary, height_one))
            triangles = [
                fi for fi, f in enumerate(poly.facets) if len(f.vertex_indices) == 3
            ]
            rep = classify(poly)
            assert rep.totaro_rigid == (len(triangles) == len(poly.facets) and rigid)
            witnesses = []
            for fi in triangles:
                verts = [poly.vertices[i] for i in poly.facets[fi].vertex_indices]
                edges = [(verts[k], verts[(k + 1) % 3]) for k in range(3)]
                if abs(det3(verts)) != 1 and all(map(extends_to_basis, edges)):
                    witnesses.append(fi)
            assert rep.rigid_face_witnesses == tuple(witnesses)
        assert outcomes == {(True, True), (False, True), (True, False)}


class TestRigidFace:
    def test_pyramid_no_witness(self):
        assert criterion_rigid_face(hull(PYRAMID)) == []

    def test_area_three_facet_is_witness(self):
        poly = hull(RIGID_FIXTURE)
        witnesses = criterion_rigid_face(poly)
        assert len(witnesses) == 1
        facet = poly.facets[witnesses[0]]
        assert sorted(poly.vertices[i] for i in facet.vertex_indices) == [
            (-1, -1, 1), (0, 1, 1), (1, 0, 1),
        ]

    def test_witnesses_have_unitary_height_one_edges(self):
        for pts in NAMED_FANO.values():
            poly = hull(pts)
            for fi in criterion_rigid_face(poly):
                facet = poly.facets[fi]
                assert len(facet.vertex_indices) == 3
                verts = [poly.vertices[i] for i in facet.vertex_indices]
                for k in range(3):
                    a, b = verts[k], verts[(k + 1) % 3]
                    assert solve_height_one(a, b) is not None

    def test_each_edge_tested_once(self, reflexive_pool, monkeypatch):
        # one classify call tests each edge once, in edge order, for the
        # rigid-face and Totaro verdicts together
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return cross(a, b)

        monkeypatch.setattr(fano3.criteria, "cross", counted)
        pool = random.Random(0x3D6E).sample(reflexive_pool, 30)
        for pts in list(NAMED_FANO.values()) + pool + [NOT_REFLEXIVE]:
            poly = hull(pts)
            calls.clear()
            classify(poly)
            assert calls == [(poly.vertices[a], poly.vertices[b]) for a, b in poly.edges]

    def test_triangle_det_is_height_times_area(self, reflexive_pool):
        # the candidate test reads |det| of a triangular facet's vertices off
        # the facet's height and normalized area
        rng = random.Random(0xDE73)
        pool = random.Random(0x3D6E).sample(reflexive_pool, 30)
        inputs = list(NAMED_FANO.values()) + pool + [NOT_REFLEXIVE]
        inputs += [apply_matrix(large_shear(rng), pts) for pts in pool]
        heights = set()
        for pts in inputs:
            poly = hull(pts)
            for facet in poly.facets:
                if len(facet.vertex_indices) == 3:
                    verts = tuple(poly.vertices[i] for i in facet.vertex_indices)
                    assert abs(det3(verts)) == facet.height * facet.polygon.area2
                    heights.add(facet.height)
        assert heights == {1, 2}


class TestIndec:
    def test_pyramid_pentagon_decomposes(self):
        assert criterion_indec(hull(PYRAMID)) == []

    def test_rigid_fixture_witness(self):
        poly = hull(RIGID_FIXTURE)
        witnesses = criterion_indec(poly)
        assert len(witnesses) == 1
        flat = facet_to_polygon(poly, witnesses[0])
        assert classify_polygon(flat).kind != STANDARD_TRIANGLE

    def test_all_standard_triangles_empty(self):
        assert criterion_indec(hull(OCTAHEDRON)) == []

    def test_polygons_built_only_for_the_minkowski_test(self, reflexive_pool, monkeypatch):
        # neither the hull nor classify builds a polygon: the Minkowski test
        # runs the summand search on the 3-D steps of the unitary facets that
        # are not standard triangles, once per such facet
        built, searched = [], []
        post_init = fano3.polygon.LatticePolygon.__post_init__
        search = fano3.criteria.summand_assignments

        def counting_post_init(polygon):
            built.append(polygon)
            post_init(polygon)

        def counting_search(steps):
            searched.append(steps)
            return search(steps)

        monkeypatch.setattr(fano3.polygon.LatticePolygon, "__post_init__", counting_post_init)
        monkeypatch.setattr(fano3.criteria, "summand_assignments", counting_search)
        tested = 0
        for pts in reflexive_pool:
            searched.clear()
            rep = classify(hull(pts))
            tested += len(searched)
            assert len(searched) == sum(
                cls.edge_lengths[-1] == 1 and cls.kind != STANDARD_TRIANGLE
                for cls in rep.facet_classes
            )
        assert built == []
        assert tested > 0


class TestAft:
    def test_fixture_pair(self):
        poly = hull(AFT_FIXTURE)
        witnesses = criterion_aft(poly)
        assert len(witnesses) == 1
        f0, f1 = witnesses[0]
        classes = [classify_polygon(facet_to_polygon(poly, fi)) for fi in (f0, f1)]
        assert all(c.kind == AM_TRIANGLE and c.m == 1 for c in classes)
        # shared edge has 3 lattice points, apexes pair to zero
        shared = set(poly.facets[f0].vertex_indices) & set(poly.facets[f1].vertex_indices)
        assert len(shared) == 2

    def test_pyramid_empty(self):
        assert criterion_aft(hull(PYRAMID)) == []

    def test_nonzero_pairing_is_no_witness(self):
        # the apexes pair to -1 against the opposite facet normal, so the
        # criterion stays quiet
        poly = hull(NONZERO_PAIRING)
        classes = [classify_polygon(facet_to_polygon(poly, i)) for i in range(len(poly.facets))]
        am = [i for i, c in enumerate(classes) if c.kind == AM_TRIANGLE]
        assert len(am) >= 2
        assert criterion_aft(poly) == []
        f1 = next(
            i for i, f in enumerate(poly.facets)
            if {poly.vertices[j] for j in f.vertex_indices}
            == {(1, 1, 0), (-1, 1, 0), (0, 1, 1)}
        )
        assert dot(poly.facets[f1].normal, (0, -1, -1)) == -1


class TestUngatedPredicates:
    # the report's gated verdicts, against the ungated predicates read off
    # its facet classes: every edge unitary, and every facet a node facet
    def test_unitary_edges_ungated(self):
        for pts, unitary in ((TETRAHEDRON, True), (PYRAMID, True), (CUBE, False)):
            rep = report(pts)
            assert all(cls.edge_lengths[-1] == 1 for cls in rep.facet_classes) == unitary
            assert rep.isolated_singular == (unitary and not rep.smooth)

    def test_node_facets_ungated(self):
        # true even for all-triangle polytopes, unlike the gated verdict
        node_kinds = (STANDARD_TRIANGLE, STANDARD_SQUARE)
        for pts, only_nodes in ((TETRAHEDRON, True), (NODES_FIXTURE, True), (PYRAMID, False)):
            rep = report(pts)
            assert all(cls.kind in node_kinds for cls in rep.facet_classes) == only_nodes
        assert not report(TETRAHEDRON).nodes


class TestLowDegree:
    def test_pyramid(self):
        assert not report(PYRAMID).low_degree

    def test_tetrahedron(self):
        assert not report(TETRAHEDRON).low_degree

    def test_cube(self):
        assert report(CUBE).low_degree


class TestClassify:
    def test_pyramid_report(self):
        rep = classify(hull(PYRAMID), polytope_id=7)
        assert rep.polytope_id == 7
        assert rep.reflexive
        assert not rep.smooth
        assert rep.isolated_singular
        assert not rep.nodes
        assert not rep.indec_obstruction
        assert not rep.aft_obstruction
        assert rep.degree == 56
        sizes = sorted(c.vertex_count for c in rep.facet_classes)
        assert sizes == [3, 3, 3, 3, 3, 5]

    def test_tetrahedron_report(self):
        rep = classify(hull(TETRAHEDRON))
        assert rep.smooth
        assert not rep.isolated_singular
        assert not rep.nodes
        assert not rep.rigid_face_obstruction
        assert not rep.indec_obstruction
        assert not rep.aft_obstruction

    def test_non_reflexive_gating(self):
        rep = classify(hull(NOT_REFLEXIVE))
        assert not rep.reflexive
        assert rep.smooth is None
        assert rep.isolated_singular is None
        assert rep.nodes is None
        assert rep.indec_obstruction is None
        assert rep.aft_obstruction is None
        assert rep.low_degree is None
        assert rep.degree is None
        assert rep.hilbert is None
        assert isinstance(rep.totaro_rigid, bool)

    def test_non_fano_rejected(self):
        poly = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)])
        with pytest.raises(ValueError):
            classify(poly)

    def test_consistency_on_fixtures(self):
        for pts in NAMED_FANO.values():
            rep = classify(hull(pts))
            if rep.smooth:
                assert not rep.isolated_singular
                assert not rep.nodes
                assert not rep.rigid_face_obstruction
                assert not rep.indec_obstruction
                assert not rep.aft_obstruction
            if rep.nodes:
                assert rep.isolated_singular
                assert not rep.indec_obstruction
                assert not rep.aft_obstruction
            if rep.indec_obstruction or rep.aft_obstruction:
                assert not rep.nodes
                assert not rep.smooth
                assert not rep.low_degree

    def test_reflexive_only_criteria_raise_on_fano_input(self):
        poly = hull(NOT_REFLEXIVE)
        for fn in (criterion_indec, criterion_aft):
            with pytest.raises(ValueError, match="criterion requires a reflexive polytope"):
                fn(poly)

    def test_fano_criteria_raise_on_non_fano_input(self):
        # the criteria's own guard, not the message of classify's
        poly = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)])
        for fn in (criterion_totaro_rigid, criterion_rigid_face):
            with pytest.raises(ValueError, match="criterion requires a Fano polytope"):
                fn(poly)

    def test_runs_no_smith_normal_form(self, reflexive_pool, monkeypatch):
        # the basis test reads coprime minors; the Smith normal form is only
        # the tests' reference and must stay off the classify path
        def refuse(*args, **kwargs):
            raise AssertionError("classify ran a Smith normal form")

        for module in (fano3.intlinalg, fano3.polygon):
            monkeypatch.setattr(module, "smith_normal_form", refuse)
        pool = random.Random(0x5A1F).sample(reflexive_pool, 30)
        inputs = list(NAMED_FANO.values()) + pool
        inputs += [NOT_REFLEXIVE, FANO_UNITARY_NOT_HEIGHT_ONE]
        for pts in inputs:
            classify(hull(pts))

    @pytest.mark.parametrize("pts", [PYRAMID, NOT_REFLEXIVE], ids=["reflexive", "fano"])
    def test_runs_one_fano_test(self, pts, monkeypatch):
        # classify calls criteria's import of is_fano, and is_reflexive (also
        # behind the degree's guard) calls polytope's; both are counted
        poly = hull(pts)
        calls = []
        for module in (fano3.criteria, fano3.polytope):
            fano = module.is_fano
            monkeypatch.setattr(
                module, "is_fano", lambda p, fano=fano: calls.append(p) or fano(p)
            )
        classify(poly)
        assert len(calls) == 1

    def test_report_ignores_non_vertex_points(self, reflexive_pool):
        # the hull of all lattice points renumbers its vertices; the report,
        # degree and witness indices included, must not notice
        pool = random.Random(0x7E57).sample(reflexive_pool, 30)
        for pts in list(NAMED_FANO.values()) + pool:
            poly = hull(pts)
            full = hull(lattice_point_list(poly))
            assert len(full.vertices) == len(poly.vertices)
            assert classify(full).to_dict() == classify(poly).to_dict()

    def test_facet_classes_are_interned(self, reflexive_pool):
        # classify_counts hands out one shared class per argument triple; each
        # equals a class built afresh from the counts of the chart polygon
        rng = random.Random(0x1A7E)
        inputs = reflexive_pool + [apply_matrix(large_shear(rng), pts) for pts in reflexive_pool]
        shared = {}
        for pts in inputs:
            poly = hull(pts)
            for facet, cls in zip(poly.facets, classify(poly).facet_classes):
                polygon = facet.polygon
                key = (len(polygon.vertices), edge_lattice_lengths(polygon), polygon.area2)
                assert cls == classify_counts.__wrapped__(*key)
                assert shared.setdefault(key, cls) is cls
        assert classify_counts(*key) is cls
        # sharing is safe only because a class cannot be changed
        with pytest.raises(FrozenInstanceError):
            cls.kind = OTHER

    def test_leaves_no_reference_cycles(self, reflexive_pool):
        # the hull and classify free what they build by reference counting
        # alone, so the cycle collector finds nothing after a pass
        gc.collect()
        gc.disable()
        try:
            for pts in reflexive_pool:
                classify(hull(pts))
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_exports_no_single_field_wrappers():
    # the report is the API: no exported function but classify itself runs
    # classify to hand back one of its fields.  perfbench/spans.py rebinds
    # these four by name; they go once the benchmark no longer pins names
    # (ROADMAP: bring perfbench in line, and trace through a profile hook)
    pinned = {"criterion_aft", "criterion_indec", "criterion_rigid_face", "criterion_totaro_rigid"}
    wrappers = set()
    for name in fano3.__all__:
        obj = getattr(fano3, name)
        if name == "classify" or not inspect.isfunction(obj):
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
        if any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "classify"
            for node in ast.walk(tree)
        ):
            wrappers.add(name)
    assert wrappers == pinned
