"""Smoothability, rigidity and obstruction criteria for Fano 3-polytopes.

Each criterion inspects the facet polygons (and for some of them the edges
or the facet pairing) of a reflexive polytope and contributes a verdict to
the classification report.  Obstruction criteria report witnesses, i.e. the
facets or facet pairs on which they fire, so mismatches can be debugged
facet by facet.

Every facet is flattened once, by ``polytope.convex_hull``, and classified
once per polytope, into a facet table; every edge is measured once, into an
edge table of its lattice length and of whether its endpoints extend to a
basis of Z^3.  Each verdict lives in one private helper that reads those
tables; a public ``criterion_*`` function checks its guard, builds the
tables it needs and calls its helper.  ``classify`` builds both tables once
and calls the helpers only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import gcd

from .intlinalg import (
    cross,
    dot,
    extends_to_basis,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    solve_height_one,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
)
from .invariants import _degree, hilbert_from_degree
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


@dataclass(frozen=True, kw_only=True)
class ClassificationReport:
    """All verdicts, witnesses and invariants of one polytope.

    Criteria that only make sense on a reflexive polytope keep their
    defaults, None or no witnesses, when the polytope is Fano but not
    reflexive.  ``to_dict`` is the report row: one key per field, in
    declaration order.
    """

    polytope_id: int = field(metadata={"key": "id"})
    reflexive: bool
    facet_classes: tuple[PolygonClass, ...]
    smooth: bool | None = None
    isolated_singular: bool | None = None
    nodes: bool | None = None
    totaro_rigid: bool
    rigid_face_obstruction: bool
    indec_obstruction: bool | None = None
    aft_obstruction: bool | None = None
    low_degree: bool | None = None
    rigid_face_witnesses: tuple[int, ...]
    indec_witnesses: tuple[int, ...] = ()
    aft_witnesses: tuple[tuple[int, int], ...] = ()
    degree: int | None = None
    hilbert: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        row = {}
        for key, name in _REPORT_KEYS:
            value = getattr(self, name)
            row[key] = _json_list(value) if type(value) is tuple else value
        return row


def _json_list(items: tuple) -> list:
    """A tuple field as JSON: facet classes by label, pairs as lists.

    The tuples are homogeneous, so the first item tells the element type.
    """
    if not items or type(items[0]) is int:
        return list(items)
    if type(items[0]) is PolygonClass:
        return [item.label() for item in items]
    return [list(item) for item in items]


# (JSON key, field name) of every report field, in declaration order
_REPORT_KEYS = tuple(
    (f.metadata.get("key", f.name), f.name) for f in fields(ClassificationReport)
)


def _require_reflexive(poly: LatticePolytope) -> None:
    if not is_reflexive(poly):
        raise ValueError("criterion requires a reflexive polytope")


def _facet_table(poly: LatticePolytope) -> list[tuple[LatticePolygon, PolygonClass]]:
    """Flattened polygon and class of every facet, classified once per polytope."""
    table = []
    for fi in range(len(poly.facets)):
        polygon = facet_to_polygon(poly, fi)
        table.append((polygon, classify_polygon(polygon)))
    return table


def _edge_table(poly: LatticePolytope) -> dict[tuple[int, int], tuple[int, bool]]:
    """(lattice length, extends to a basis) of every edge, in ``poly.edges`` order.

    The endpoints a, b extend to a basis of Z^3 exactly when the 2x2 minors
    of (a, b), the entries of a x b, are coprime.  On a Fano polytope
    a x b != 0, as the origin is interior; a zero product reads False.
    """
    vertices = poly.vertices
    table = {}
    for a, b in poly.edges:
        va, vb = vertices[a], vertices[b]
        length = gcd(vb[0] - va[0], vb[1] - va[1], vb[2] - va[2])
        table[a, b] = (length, gcd(*cross(va, vb)) == 1)
    return table


def _smooth(classes) -> bool:
    return all(cls.kind == STANDARD_TRIANGLE for cls in classes)


def _node_facets_only(classes) -> bool:
    return all(cls.kind in (STANDARD_TRIANGLE, STANDARD_SQUARE) for cls in classes)


def _unitary(edges) -> bool:
    return all(length == 1 for length, _ in edges.values())


def _isolated(edges, classes) -> bool:
    return _unitary(edges) and not _smooth(classes)


def _nodes(classes) -> bool:
    return _node_facets_only(classes) and any(
        cls.kind == STANDARD_SQUARE for cls in classes
    )


def _indec_witnesses(table) -> list[int]:
    witnesses = []
    for fi, (polygon, cls) in enumerate(table):
        if cls.kind == STANDARD_TRIANGLE or any(l != 1 for l in cls.edge_lengths):
            continue
        if is_minkowski_indecomposable(polygon):
            witnesses.append(fi)
    return witnesses


def _aft_witnesses(poly: LatticePolytope, edges, classes) -> list[tuple[int, int]]:
    witnesses = set()
    for edge, (f0, f1) in zip(poly.edges, poly.facet_adjacency):
        c0, c1 = classes[f0], classes[f1]
        if c0.kind != AM_TRIANGLE or c1.kind != AM_TRIANGLE or c0.m != c1.m:
            continue
        if edges[edge][0] != c0.m + 1:
            continue
        shared = set(edge)
        for a, b in ((f0, f1), (f1, f0)):
            apex = [i for i in poly.facets[a].vertex_indices if i not in shared]
            if len(apex) != 1:
                continue
            v0 = poly.vertices[apex[0]]
            w1 = poly.facets[b].normal
            if dot(w1, v0) == 0:
                witnesses.add((min(f0, f1), max(f0, f1)))
                break
    return sorted(witnesses)


def _totaro_rigid(poly: LatticePolytope, edges) -> bool:
    triangles = all(len(f.vertex_indices) == 3 for f in poly.facets)
    return triangles and all(basis for _, basis in edges.values())


def _rigid_face_witnesses(poly: LatticePolytope, edges) -> list[int]:
    witnesses = []
    for fi, facet in enumerate(poly.facets):
        idx = facet.vertex_indices
        if len(idx) != 3 or facet.height * facet.polygon.area2 == 1:
            continue
        i, j, k = idx
        if all(edges[min(a, b), max(a, b)][1] for a, b in ((i, j), (j, k), (k, i))):
            witnesses.append(fi)
    return witnesses


def facet_classes(poly: LatticePolytope) -> list[PolygonClass]:
    return [cls for _, cls in _facet_table(poly)]


def criterion_smooth(poly: LatticePolytope) -> bool:
    """Every facet is a standard triangle."""
    _require_reflexive(poly)
    return _smooth(facet_classes(poly))


def has_only_unitary_edges(poly: LatticePolytope) -> bool:
    """Every edge of the polytope has lattice length 1 (no smooth-case gate)."""
    return _unitary(_edge_table(poly))


def has_only_node_facets(poly: LatticePolytope) -> bool:
    """Every facet is a standard triangle or square (no square-presence gate)."""
    return _node_facets_only(facet_classes(poly))


def criterion_isolated_singular(poly: LatticePolytope) -> bool:
    """Unitary edges throughout, with at least one non-standard-triangle facet."""
    _require_reflexive(poly)
    return _isolated(_edge_table(poly), facet_classes(poly))


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
    and admit an integral dual functional equal to 1 on both endpoints.  For
    distinct endpoints a, b both hold exactly when a x b is primitive, that
    is when (a, b) extends to a basis of Z^3, which is what the edge table
    records.  The criterion applies to any Fano polytope.
    """
    if not is_fano(poly):
        raise ValueError("criterion requires a Fano polytope")
    return _totaro_rigid(poly, _edge_table(poly))


def criterion_rigid_face(poly: LatticePolytope) -> list[int]:
    """Facets whose cone is rigid yet singular; their presence obstructs smoothing.

    A witness is a triangular facet whose three vertices do not extend to a
    basis of Z^3 while each of its edges has endpoints that do extend to one.
    The vertices extend to one when their |det| is 1, and that determinant
    is the facet's height times its normalized area.  Faces of dimension
    below 2 can never combine these requirements, so only facets are
    scanned.  The edge condition is read from the edge table, which tests
    each edge once; ``classify`` shares that table with the other verdicts.
    """
    if not is_fano(poly):
        raise ValueError("criterion requires a Fano polytope")
    return _rigid_face_witnesses(poly, _edge_table(poly))


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
    return _aft_witnesses(poly, _edge_table(poly), facet_classes(poly))


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
    edges = _edge_table(poly)
    classes = tuple(cls for _, cls in table)
    rigid_witnesses = tuple(_rigid_face_witnesses(poly, edges))
    common = dict(
        polytope_id=polytope_id,
        facet_classes=classes,
        totaro_rigid=_totaro_rigid(poly, edges),
        rigid_face_obstruction=bool(rigid_witnesses),
        rigid_face_witnesses=rigid_witnesses,
    )
    # Fano already, so reflexive exactly when every facet is at height 1
    if any(f.height != 1 for f in poly.facets):
        return ClassificationReport(**common, reflexive=False)
    indec_witnesses = tuple(_indec_witnesses(table))
    aft_witnesses = tuple(_aft_witnesses(poly, edges, classes))
    deg = _degree(poly)
    return ClassificationReport(
        **common,
        reflexive=True,
        smooth=_smooth(classes),
        isolated_singular=_isolated(edges, classes),
        nodes=_nodes(classes),
        indec_obstruction=bool(indec_witnesses),
        aft_obstruction=bool(aft_witnesses),
        low_degree=deg in LOW_DEGREES,
        indec_witnesses=indec_witnesses,
        aft_witnesses=aft_witnesses,
        degree=deg,
        hilbert=tuple(hilbert_from_degree(deg, m_max)),
    )
