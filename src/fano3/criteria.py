"""Smoothability, rigidity and obstruction criteria for Fano 3-polytopes.

Each criterion inspects the facet polygons (and for some of them the edges
or the facet pairing) of a reflexive polytope and contributes a verdict to
the classification report.  Obstruction criteria report witnesses, i.e. the
facets or facet pairs on which they fire, so mismatches can be debugged
facet by facet.

Every facet is flattened and classified once per polytope, into a facet
table.  Each verdict lives in one private helper that reads the table; the
public ``criterion_*`` functions build the table and call that helper, and
``classify`` builds it once and calls all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intlinalg import det3, dot, extends_to_basis, solve_height_one
from .invariants import degree as _degree, hilbert_from_degree
from .polygon import (
    AM_TRIANGLE,
    STANDARD_SQUARE,
    STANDARD_TRIANGLE,
    LatticePolygon,
    PolygonClass,
    classify_polygon,
    facet_to_polygon,
    is_minkowski_indecomposable,
)
from .polytope import (
    LatticePolytope,
    is_fano,
    is_reflexive,
    lattice_points,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    normalized_volume,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    polar,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
)

LOW_DEGREES = frozenset({4, 6, 8, 10, 12})


@dataclass(frozen=True)
class ClassificationReport:
    """All verdicts, witnesses and invariants of one polytope.

    Criteria that only make sense on a reflexive polytope are None when the
    polytope is Fano but not reflexive.
    """

    polytope_id: int
    reflexive: bool
    facet_classes: tuple[PolygonClass, ...]
    smooth: bool | None
    isolated_singular: bool | None
    nodes: bool | None
    totaro_rigid: bool
    rigid_face_obstruction: bool
    indec_obstruction: bool | None
    aft_obstruction: bool | None
    low_degree: bool | None
    rigid_face_witnesses: tuple[int, ...]
    indec_witnesses: tuple[int, ...]
    aft_witnesses: tuple[tuple[int, int], ...]
    degree: int | None
    hilbert: tuple[int, ...] | None = field(default=None)

    def to_dict(self) -> dict:
        return {
            "id": self.polytope_id,
            "reflexive": self.reflexive,
            "facet_classes": [cls.label() for cls in self.facet_classes],
            "smooth": self.smooth,
            "isolated_singular": self.isolated_singular,
            "nodes": self.nodes,
            "totaro_rigid": self.totaro_rigid,
            "rigid_face_obstruction": self.rigid_face_obstruction,
            "indec_obstruction": self.indec_obstruction,
            "aft_obstruction": self.aft_obstruction,
            "low_degree": self.low_degree,
            "rigid_face_witnesses": list(self.rigid_face_witnesses),
            "indec_witnesses": list(self.indec_witnesses),
            "aft_witnesses": [list(p) for p in self.aft_witnesses],
            "degree": self.degree,
            "hilbert": list(self.hilbert) if self.hilbert is not None else None,
        }


def _require_reflexive(poly: LatticePolytope) -> None:
    if not is_reflexive(poly):
        raise ValueError("criterion requires a reflexive polytope")


def _facet_table(poly: LatticePolytope) -> list[tuple[LatticePolygon, PolygonClass]]:
    """Flattened polygon and class of every facet, computed once per polytope."""
    table = []
    for fi in range(len(poly.facets)):
        polygon = facet_to_polygon(poly, fi)
        table.append((polygon, classify_polygon(polygon)))
    return table


def _smooth(classes) -> bool:
    return all(cls.kind == STANDARD_TRIANGLE for cls in classes)


def _node_facets_only(classes) -> bool:
    return all(cls.kind in (STANDARD_TRIANGLE, STANDARD_SQUARE) for cls in classes)


def _isolated(poly: LatticePolytope, classes) -> bool:
    return has_only_unitary_edges(poly) and not _smooth(classes)


def _nodes(classes) -> bool:
    return _node_facets_only(classes) and any(
        cls.kind == STANDARD_SQUARE for cls in classes
    )


def _indec_witnesses(table) -> list[int]:
    witnesses = []
    for fi, (polygon, cls) in enumerate(table):
        if cls.kind == STANDARD_TRIANGLE:
            continue
        if any(l != 1 for l in cls.edge_lengths):
            continue
        if is_minkowski_indecomposable(polygon):
            witnesses.append(fi)
    return witnesses


def _aft_witnesses(poly: LatticePolytope, classes) -> list[tuple[int, int]]:
    witnesses = set()
    for edge_index, (f0, f1) in enumerate(poly.facet_adjacency):
        c0, c1 = classes[f0], classes[f1]
        if c0.kind != AM_TRIANGLE or c1.kind != AM_TRIANGLE:
            continue
        if c0.m != c1.m:
            continue
        n = c0.m
        if poly.edge_lattice_length(edge_index) != n + 1:
            continue
        shared = set(poly.edges[edge_index])
        for a, b in ((f0, f1), (f1, f0)):
            apex_candidates = [
                i for i in poly.facets[a].vertex_indices if i not in shared
            ]
            if len(apex_candidates) != 1:
                continue
            v0 = poly.vertices[apex_candidates[0]]
            w1 = poly.facets[b].normal
            if dot(w1, v0) == 0:
                witnesses.add((min(f0, f1), max(f0, f1)))
                break
    return sorted(witnesses)


def facet_classes(poly: LatticePolytope) -> list[PolygonClass]:
    return [cls for _, cls in _facet_table(poly)]


def criterion_smooth(poly: LatticePolytope) -> bool:
    """Every facet is a standard triangle."""
    _require_reflexive(poly)
    return _smooth(facet_classes(poly))


def has_only_unitary_edges(poly: LatticePolytope) -> bool:
    """Every edge of the polytope has lattice length 1 (no smooth-case gate)."""
    return all(
        poly.edge_lattice_length(i) == 1 for i in range(len(poly.edges))
    )


def has_only_node_facets(poly: LatticePolytope) -> bool:
    """Every facet is a standard triangle or square (no square-presence gate)."""
    return _node_facets_only(facet_classes(poly))


def criterion_isolated_singular(poly: LatticePolytope) -> bool:
    """Unitary edges throughout, with at least one non-standard-triangle facet."""
    _require_reflexive(poly)
    return _isolated(poly, facet_classes(poly))


def criterion_nodes(poly: LatticePolytope) -> bool:
    """Facets are standard triangles or standard squares, with a square present.

    The all-triangle case is excluded here so that the verdict singles out
    genuinely singular polytopes; the associated varieties have only
    ordinary double points and are therefore deformable to smooth ones.
    """
    _require_reflexive(poly)
    return _nodes(facet_classes(poly))


def criterion_totaro_rigid(poly: LatticePolytope) -> bool:
    """Combinatorial rigidity: triangular facets and unitary height-one edges.

    Every facet must be a triangle, and each edge must have lattice length 1
    and admit an integral dual functional equal to 1 on both endpoints.  On
    a reflexive polytope the facet hyperplane itself provides the
    functional, but the criterion applies to any Fano polytope.
    """
    if not is_fano(poly):
        raise ValueError("criterion requires a Fano polytope")
    if any(len(f.vertex_indices) != 3 for f in poly.facets):
        return False
    for i, (a, b) in enumerate(poly.edges):
        if poly.edge_lattice_length(i) != 1:
            return False
        if solve_height_one(poly.vertices[a], poly.vertices[b]) is None:
            return False
    return True


def criterion_rigid_face(poly: LatticePolytope) -> list[int]:
    """Facets whose cone is rigid yet singular; their presence obstructs smoothing.

    A witness is a triangular facet whose three vertices do not extend to a
    basis of Z^3 (|det| != 1) while each of its edges has endpoints that do
    extend to one.  Faces of dimension below 2 can never combine these
    requirements, so only facets are scanned.
    """
    if not is_fano(poly):
        raise ValueError("criterion requires a Fano polytope")
    witnesses = []
    for fi, facet in enumerate(poly.facets):
        idx = facet.vertex_indices
        if len(idx) != 3:
            continue
        verts = [poly.vertices[i] for i in idx]
        if abs(det3(tuple(verts))) == 1:
            continue
        if all(
            extends_to_basis((verts[k], verts[(k + 1) % 3])) for k in range(3)
        ):
            witnesses.append(fi)
    return witnesses


def criterion_indec(poly: LatticePolytope) -> list[int]:
    """Facets with unitary edges that are Minkowski indecomposable but not standard.

    The cone over such a facet is an isolated singularity whose deformations
    admit no one-parameter smoothing direction at all, so the whole variety
    cannot be smoothed.
    """
    _require_reflexive(poly)
    return _indec_witnesses(_facet_table(poly))


def criterion_aft(poly: LatticePolytope) -> list[tuple[int, int]]:
    """Adjacent almost-flat A_n-triangle pairs.

    A witness is an adjacent facet pair, both A_n-triangles for one n >= 1,
    glued along their long edge (n+2 lattice points), such that the vertex
    of one triangle away from the shared edge pairs to 0 against the other
    facet's normal.  Both orderings of the pair are tested and the unordered
    pair is reported when either fires.
    """
    _require_reflexive(poly)
    return _aft_witnesses(poly, facet_classes(poly))


def ext1_pushforward_degrees(n: int, d: int) -> list[int]:
    """Twists of the pushed-forward obstruction sheaf of an A_n-bundle pair.

    For triangles paired at value d the sheaf splits into line bundles of
    degrees -j*d - j for j = 2..n+1; all of them are negative exactly when
    d >= 0, and d = 0 is the case that kills the obstruction sections.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return [-j * d - j for j in range(2, n + 2)]


def criterion_low_degree(poly: LatticePolytope) -> bool:
    """Degree in {4, 6, 8, 10, 12}; such varieties are known to be smoothable."""
    _require_reflexive(poly)
    return _degree(poly) in LOW_DEGREES


def classify(
    poly: LatticePolytope, polytope_id: int = 0, m_max: int = 5
) -> ClassificationReport:
    """Evaluate every criterion on a Fano polytope and bundle the verdicts.

    Reflexive-only criteria come back as None on a non-reflexive Fano
    polytope.  The Hilbert coefficients h_0..h_{m_max} come from the degree
    by the closed form of ``hilbert_from_degree``.  The report is
    deterministic for a given input.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    if not is_fano(poly):
        raise ValueError("classification requires a Fano polytope")
    table = _facet_table(poly)
    classes = tuple(cls for _, cls in table)
    rigid_witnesses = tuple(criterion_rigid_face(poly))
    common = dict(
        polytope_id=polytope_id,
        facet_classes=classes,
        totaro_rigid=criterion_totaro_rigid(poly),
        rigid_face_obstruction=bool(rigid_witnesses),
        rigid_face_witnesses=rigid_witnesses,
    )
    if not is_reflexive(poly):
        return ClassificationReport(
            **common,
            reflexive=False,
            smooth=None,
            isolated_singular=None,
            nodes=None,
            indec_obstruction=None,
            aft_obstruction=None,
            low_degree=None,
            indec_witnesses=(),
            aft_witnesses=(),
            degree=None,
            hilbert=None,
        )
    indec_witnesses = tuple(_indec_witnesses(table))
    aft_witnesses = tuple(_aft_witnesses(poly, classes))
    deg = _degree(poly)
    return ClassificationReport(
        **common,
        reflexive=True,
        smooth=_smooth(classes),
        isolated_singular=_isolated(poly, classes),
        nodes=_nodes(classes),
        indec_obstruction=bool(indec_witnesses),
        aft_obstruction=bool(aft_witnesses),
        low_degree=deg in LOW_DEGREES,
        indec_witnesses=indec_witnesses,
        aft_witnesses=aft_witnesses,
        degree=deg,
        hilbert=tuple(hilbert_from_degree(deg, m_max)),
    )
