"""Smoothability, rigidity and obstruction criteria for Fano 3-polytopes.

Each criterion inspects the facets (and for some of them the edges or the
facet pairing) of a reflexive polytope and contributes a verdict to the
classification report.  Obstruction criteria report witnesses, i.e. the
facets or facet pairs on which they fire, so mismatches can be debugged
facet by facet.

``classify`` is the one source of every verdict.  It reads the face
lattice that ``polytope.convex_hull`` built once: one pass over the edges
tests whether each edge's endpoints extend to a basis of Z^3, one pass
over the facets classifies each facet from its cycle and area and collects
the rigid-face and indecomposability witnesses, the latter by the summand
search on the facet's steps in Z^3 (no polygon is built), and one pass over
the facet pairs of the edges collects the AFT witnesses.  Each public
``criterion_*`` function checks its guard and reads its field of the report.
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
    PolygonClass,
    classify_counts,
    classify_polygon,
    facet_to_polygon,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    is_minkowski_indecomposable,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    summand_assignments,
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
_NODE_KINDS = frozenset({STANDARD_TRIANGLE, STANDARD_SQUARE})


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


def facet_classes(poly: LatticePolytope) -> list[PolygonClass]:
    return [classify_polygon(facet.polygon) for facet in poly.facets]


def criterion_smooth(poly: LatticePolytope) -> bool:
    """Every facet is a standard triangle."""
    _require_reflexive(poly)
    return classify(poly, m_max=0).smooth


def has_only_unitary_edges(poly: LatticePolytope) -> bool:
    """Every edge of the polytope has lattice length 1 (no smooth-case gate)."""
    return all(poly.edge_lattice_length(i) == 1 for i in range(len(poly.edges)))


def has_only_node_facets(poly: LatticePolytope) -> bool:
    """Every facet is a standard triangle or square (no square-presence gate)."""
    return all(cls.kind in _NODE_KINDS for cls in facet_classes(poly))


def criterion_isolated_singular(poly: LatticePolytope) -> bool:
    """Unitary edges throughout, with at least one non-standard-triangle facet."""
    _require_reflexive(poly)
    return classify(poly, m_max=0).isolated_singular


def criterion_nodes(poly: LatticePolytope) -> bool:
    """Facets are standard triangles or standard squares, with a square present.

    The all-triangle case is excluded here so that the verdict singles out
    genuinely singular polytopes; the associated varieties have only
    ordinary double points and are therefore deformable to smooth ones.
    """
    _require_reflexive(poly)
    return classify(poly, m_max=0).nodes


def criterion_totaro_rigid(poly: LatticePolytope) -> bool:
    """Combinatorial rigidity: triangular facets and unitary height-one edges.

    Every facet must be a triangle, and each edge must have lattice length 1
    and admit an integral dual functional equal to 1 on both endpoints.  For
    distinct endpoints a, b both hold exactly when a x b is primitive, that
    is when (a, b) extends to a basis of Z^3, which is what ``classify``
    tests for each edge.  The criterion applies to any Fano polytope.
    """
    if not is_fano(poly):
        raise ValueError("criterion requires a Fano polytope")
    return classify(poly, m_max=0).totaro_rigid


def criterion_rigid_face(poly: LatticePolytope) -> list[int]:
    """Facets whose cone is rigid yet singular; their presence obstructs smoothing.

    A witness is a triangular facet whose three vertices do not extend to a
    basis of Z^3 while each of its edges has endpoints that do extend to one.
    The vertices extend to one when their |det| is 1, and that determinant
    is the facet's height times its normalized area.  Faces of dimension
    below 2 can never combine these requirements, so only facets are
    scanned.
    """
    if not is_fano(poly):
        raise ValueError("criterion requires a Fano polytope")
    return list(classify(poly, m_max=0).rigid_face_witnesses)


def criterion_indec(poly: LatticePolytope) -> list[int]:
    """Facets with unitary edges that are Minkowski indecomposable but not standard.

    The cone over such a facet is an isolated singularity whose deformations
    admit no one-parameter smoothing direction at all, so the whole variety
    cannot be smoothed.
    """
    _require_reflexive(poly)
    return list(classify(poly, m_max=0).indec_witnesses)


def criterion_aft(poly: LatticePolytope) -> list[tuple[int, int]]:
    """Adjacent almost-flat A_n-triangle pairs.

    A witness is an adjacent facet pair, both A_n-triangles for one n >= 1,
    glued along their long edge (n+2 lattice points), such that the vertex
    of one triangle away from the shared edge pairs to 0 against the other
    facet's normal.  Both orderings of the pair are tested and the unordered
    pair is reported when either fires.
    """
    _require_reflexive(poly)
    return list(classify(poly, m_max=0).aft_witnesses)


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
    return classify(poly, m_max=0).low_degree


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
    vertices, facets = poly.vertices, poly.facets
    # Fano already, so reflexive exactly when every facet is at height 1
    reflexive = all(facet.height == 1 for facet in facets)

    # a, b extend to a basis of Z^3 exactly when the 2x2 minors of (a, b),
    # the entries of a x b, are coprime; such an edge is also unitary
    basis = {
        (a, b) for a, b in poly.edges if gcd(*cross(vertices[a], vertices[b])) == 1
    }

    classes = []
    kinds = set()
    unitary = triangles = True
    rigid_witnesses = []
    indec_witnesses = []
    for fi, facet in enumerate(facets):
        # a unimodular chart keeps lattice lengths: these are the polygon's
        cycle, points = facet.vertex_indices, facet.points
        lengths = []
        ux, uy, uz = points[-1]
        for x, y, z in points:
            lengths.append(gcd(x - ux, y - uy, z - uz))
            ux, uy, uz = x, y, z
        cls = classify_counts(len(cycle), tuple(sorted(lengths)), facet.area2)
        classes.append(cls)
        kinds.add(cls.kind)
        facet_unitary = cls.edge_lengths[-1] == 1
        unitary = unitary and facet_unitary
        if len(cycle) != 3:
            triangles = False
        elif facet.height * facet.area2 != 1:
            i, j, k = cycle
            if all(
                (min(u, v), max(u, v)) in basis for u, v in ((i, j), (j, k), (k, i))
            ):
                rigid_witnesses.append(fi)
        if reflexive and facet_unitary and cls.kind != STANDARD_TRIANGLE:
            # unitary: each step is its own primitive direction, of length 1;
            # indecomposable when only the zero and the full assignment close
            steps = [((bx - ax, by - ay, bz - az), 1)
                     for (ax, ay, az), (bx, by, bz) in zip(points, points[1:] + points[:1])]
            if len(summand_assignments(steps)) <= 2:
                indec_witnesses.append(fi)

    common = dict(
        polytope_id=polytope_id,
        facet_classes=tuple(classes),
        totaro_rigid=triangles and len(basis) == len(poly.edges),
        rigid_face_obstruction=bool(rigid_witnesses),
        rigid_face_witnesses=tuple(rigid_witnesses),
    )
    if not reflexive:
        return ClassificationReport(**common, reflexive=False)

    aft_witnesses = []
    for ei, ((a, b), (f0, f1)) in enumerate(zip(poly.edges, poly.facet_adjacency)):
        c0, c1 = classes[f0], classes[f1]
        if c0.kind != AM_TRIANGLE or c1.kind != AM_TRIANGLE or c0.m != c1.m:
            continue
        if poly.edge_lattice_length(ei) != c0.m + 1:
            continue
        # both are triangles, so each has one apex off the shared edge
        for g, h in ((f0, f1), (f1, f0)):
            (apex,) = (i for i in facets[g].vertex_indices if i != a and i != b)
            if dot(facets[h].normal, vertices[apex]) == 0:
                aft_witnesses.append((min(f0, f1), max(f0, f1)))
                break
    aft_witnesses.sort()

    smooth = kinds == {STANDARD_TRIANGLE}
    deg = _degree(poly)
    return ClassificationReport(
        **common,
        reflexive=True,
        smooth=smooth,
        isolated_singular=unitary and not smooth,
        nodes=STANDARD_SQUARE in kinds and kinds <= _NODE_KINDS,
        indec_obstruction=bool(indec_witnesses),
        aft_obstruction=bool(aft_witnesses),
        low_degree=deg in LOW_DEGREES,
        indec_witnesses=tuple(indec_witnesses),
        aft_witnesses=tuple(aft_witnesses),
        degree=deg,
        hilbert=tuple(hilbert_from_degree(deg, m_max)),
    )
