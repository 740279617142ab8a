"""Every report field against the reference classifier of ``oracles``.

``oracles.reference_report`` decides each verdict from the vertex list
alone, by the paper's definitions, and imports nothing from fano3.  Facets,
witnesses and facet pairs are compared by their vertex sets, since the
report's facet order follows the embedding.
"""

import ast
import random
from itertools import product
from pathlib import Path

import pytest

import oracles
from conftest import (
    AFT_FIXTURE,
    FANO_UNITARY_NOT_HEIGHT_ONE,
    NAMED_FANO,
    NODES_FIXTURE,
    NONZERO_PAIRING,
    NOT_REFLEXIVE,
    PENTAGON,
    apply_matrix,
    large_shear,
)
from fano3.criteria import classify
from fano3.polygon import LatticePolygon, is_minkowski_indecomposable
from fano3.polytope import convex_hull

FIXTURES = list(NAMED_FANO.values()) + [
    NOT_REFLEXIVE, FANO_UNITARY_NOT_HEIGHT_ONE, NONZERO_PAIRING,
]


def report_view(poly, rep):
    """The report in the reference's terms: facets named by their vertex sets."""
    facet = [frozenset(poly.vertices[i] for i in f.vertex_indices) for f in poly.facets]
    view = {
        name: getattr(rep, name)
        for name in (
            "reflexive", "smooth", "isolated_singular", "nodes", "totaro_rigid",
            "rigid_face_obstruction", "indec_obstruction", "aft_obstruction",
            "low_degree", "degree",
        )
    }
    view["facet_classes"] = {
        facet[fi]: (cls.kind, cls.m) for fi, cls in enumerate(rep.facet_classes)
    }
    view["rigid_face_witnesses"] = {facet[fi] for fi in rep.rigid_face_witnesses}
    view["indec_witnesses"] = {facet[fi] for fi in rep.indec_witnesses}
    view["aft_witnesses"] = {frozenset((facet[f0], facet[f1])) for f0, f1 in rep.aft_witnesses}
    view["hilbert"] = rep.hilbert[:4] if rep.reflexive else None
    return view


def moved_reference(ref, move):
    """The reference of P mapped to that of move(P): vertex sets carried along."""

    def point(v):
        return apply_matrix(move, (v,))[0]

    def face(f):
        return frozenset(map(point, f))

    out = dict(ref)
    out["facet_classes"] = {face(f): cls for f, cls in ref["facet_classes"].items()}
    out["rigid_face_witnesses"] = set(map(face, ref["rigid_face_witnesses"]))
    out["indec_witnesses"] = set(map(face, ref["indec_witnesses"]))
    out["aft_witnesses"] = {frozenset(map(face, pair)) for pair in ref["aft_witnesses"]}
    return out


def assert_matches(pts, ref):
    poly = convex_hull(pts)
    view = report_view(poly, classify(poly))
    for key, expected in ref.items():
        assert view[key] == expected, f"{key} of {pts}"


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not any(name.split(".")[0] == "fano3" for name in imported)


def test_fixtures_match_reference():
    for pts in FIXTURES:
        assert_matches(pts, oracles.reference_report(pts))


def test_pool_and_moves_match_reference(reflexive_pool):
    # box scans grow with the embedding, so each moved copy is compared with
    # the reference of the unmoved polytope, carried through the move
    rng = random.Random(0x4EF)
    seen = set()
    for pts in FIXTURES + reflexive_pool:
        ref = oracles.reference_report(pts)
        move = large_shear(rng)
        assert_matches(pts, ref)
        assert_matches(apply_matrix(move, pts), moved_reference(ref, move))
        seen.update((key, value) for key, value in ref.items() if type(value) is bool)
    # every verdict, reflexive included, takes both values somewhere
    assert len(seen) == 2 * 9


class TestReferencePieces:
    def test_lattice_counts_are_brute_counts(self):
        for pts in list(NAMED_FANO.values()) + [NOT_REFLEXIVE]:
            expected = [oracles.brute_count(pts, m) for m in range(3)]
            assert oracles.lattice_counts(pts, 2) == expected

    def test_height_one_functional_against_box_search(self):
        # a functional, when one exists, by an independent search of a box;
        # the solver's own answer is checked by its assertion
        rng = random.Random(0x1E1)
        box = range(-4, 5)
        found = set()
        for _ in range(150):
            a, b = (tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2))
            if oracles._cross3(a, b) == (0, 0, 0):
                continue
            u = oracles.height_one_functional(a, b)
            in_box = any(
                oracles._dot(v, a) == 1 == oracles._dot(v, b) for v in product(box, repeat=3)
            )
            assert (u is not None) >= in_box
            found.add(u is not None)
        assert found == {True, False}

    def test_extends_to_basis_by_completion(self):
        # (a, b) extends exactly when some c in a box gives |det(a, b, c)| = 1
        rng = random.Random(0xBA5)
        box = range(-3, 4)
        seen = set()
        for _ in range(120):
            a, b = (tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2))
            if oracles._cross3(a, b) == (0, 0, 0):
                continue
            extends = oracles.edge_extends_to_basis(a, b)
            completed = any(abs(oracles._det3(a, b, c)) == 1 for c in product(box, repeat=3))
            assert extends == completed
            seen.add(extends)
        assert seen == {True, False}

    @pytest.mark.parametrize(
        "cycle, expected",
        [
            (PENTAGON, True),
            (oracles.STANDARD_SQUARE_2D, True),
            (oracles.STANDARD_TRIANGLE_2D, False),
            (((0, 0), (3, 0), (0, 1)), False),
            (((0, 0), (2, 0), (0, 2)), True),
            (((-1, -1), (1, 0), (0, 1)), False),
        ],
        ids=["pentagon", "square", "triangle", "a2", "twice_triangle", "area3"],
    )
    def test_decomposable(self, cycle, expected):
        assert oracles.is_decomposable(cycle) == expected
        assert is_minkowski_indecomposable(LatticePolygon(cycle)) != expected

    def test_classes_of_fixtures(self):
        aft = oracles.reference_report(AFT_FIXTURE)
        assert list(aft["facet_classes"].values()).count(("am_triangle", 1)) == 2
        assert len(aft["aft_witnesses"]) == 1
        nodes = oracles.reference_report(NODES_FIXTURE)
        assert ("standard_square", None) in nodes["facet_classes"].values()
        assert nodes["nodes"]
