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
the facet pairs of the edges collects the AFT witnesses.

The report is the API: ``ClassificationReport`` defines every field.  The
four ``criterion_*`` functions each check a guard and return one field, for
callers that bind them by name, such as the benchmark's tracer.
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
    classify_polygon,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
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

    This is the package's answer for a polytope, and each field is defined
    below.  Witnesses are indices into ``poly.facets``, and each
    ``*_obstruction`` says that its witnesses are not empty.  Criteria that
    only make sense on a reflexive polytope keep their defaults, None or no
    witnesses, when the polytope is Fano but not reflexive.

    - ``reflexive``: every facet plane is at lattice height 1.
    - ``facet_classes``: standard triangle (normalized area 1), standard
      square (its four vertices are its only lattice points), A_m-triangle
      (empty, edge lengths 1, 1, m + 1) or other, for each facet.
    - ``smooth``: every facet is a standard triangle.
    - ``isolated_singular``: every edge has lattice length 1, and some facet
      is not a standard triangle.
    - ``nodes``: every facet is a standard triangle or square, and some is a
      square.  The variety then has only ordinary double points, so it
      deforms to a smooth one; the all-triangle case is ``smooth``.
    - ``totaro_rigid``: every facet is a triangle, and every edge has length
      1 and an integral functional equal to 1 at both endpoints a, b.  Both
      hold exactly when a x b is primitive: (a, b) extends to a basis.
    - ``rigid_face_witnesses``: triangular facets whose vertices do not
      extend to a basis of Z^3 while the endpoints of each edge do.  The
      cone over one is rigid yet singular, which obstructs smoothing.
    - ``indec_witnesses``: facets with unitary edges that are Minkowski
      indecomposable and not standard triangles.  The cone over one is an
      isolated singularity with no smoothing direction at all.
    - ``aft_witnesses``: adjacent facet pairs of A_n-triangles, one n >= 1,
      glued along their long edge (n + 2 lattice points), where the vertex
      of one off that edge pairs to d = 0 against the other's normal.  The
      pair's pushed-forward obstruction sheaf splits into line bundles of
      degrees -j d - j for j = 2..n+1.  All are negative exactly when
      d >= 0, and d <= 0 on a reflexive polytope, so d = 0 is the case that
      kills the obstruction sections.
    - ``low_degree``: ``degree`` is in {4, 6, 8, 10, 12}, where the
      varieties are known to be smoothable.
    - ``degree``: (-K)^3, the normalized volume of the polar; ``hilbert``:
      h_0..h_m, the lattice point counts of the polar's dilations.

    ``to_dict`` is the report row: one key per field, in declaration order.
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


def criterion_totaro_rigid(poly: LatticePolytope) -> bool:
    """The report's ``totaro_rigid``; any Fano polytope."""
    if not is_fano(poly):
        raise ValueError("criterion requires a Fano polytope")
    return classify(poly, m_max=0).totaro_rigid


def criterion_rigid_face(poly: LatticePolytope) -> list[int]:
    """The report's ``rigid_face_witnesses``; any Fano polytope."""
    if not is_fano(poly):
        raise ValueError("criterion requires a Fano polytope")
    return list(classify(poly, m_max=0).rigid_face_witnesses)


def criterion_indec(poly: LatticePolytope) -> list[int]:
    """The report's ``indec_witnesses``; reflexive polytopes only."""
    _require_reflexive(poly)
    return list(classify(poly, m_max=0).indec_witnesses)


def criterion_aft(poly: LatticePolytope) -> list[tuple[int, int]]:
    """The report's ``aft_witnesses``; reflexive polytopes only."""
    _require_reflexive(poly)
    return list(classify(poly, m_max=0).aft_witnesses)


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
        elif facet.height * facet.area2 != 1:  # |det| of its vertices
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
