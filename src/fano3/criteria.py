"""Smoothability, rigidity and obstruction criteria for Fano 3-polytopes.

Each criterion inspects the facets (and for some of them the edges or the
facet pairing) of a reflexive polytope and contributes a verdict to the
classification report.  Obstruction criteria report witnesses, i.e. the
facets or facet pairs on which they fire, so mismatches can be debugged
facet by facet.

``classify`` is the one source of every verdict.  It reads the face
lattice that ``polytope.convex_hull`` built once.  One pass over the facets
reads the class of each facet with area2 < k, k its vertex count, off k and
area2 (by Pick: a standard triangle or square, or unit edges but one of
length 2), walks every other cycle for its lattice lengths, and runs the
early-exit summand test on the steps in Z^3 of the unitary ones (no polygon
is built).  Only on a non-reflexive polytope does a pass over the edges
test whether their endpoints extend to a basis of Z^3; on a reflexive one
that holds exactly for the unitary edges.  On a reflexive one, one pass
over the edges and their facet pairs adds up the degree and collects the
AFT witnesses, and the Hilbert coefficients follow from the degree in
closed form.

The report is the API: ``ClassificationReport`` defines every field.  The
four ``criterion_*`` functions each check a guard and return one field, for
callers that bind them by name, such as the benchmark's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from math import gcd

from .intlinalg import (
    cross,
    dot,
    extends_to_basis,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    solve_height_one,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
)
from .polygon import (
    AM_TRIANGLE,
    STANDARD_SQUARE,
    STANDARD_TRIANGLE,
    PolygonClass,
    classify_counts,
    classify_polygon,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    facet_to_polygon,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    is_minkowski_indecomposable,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    has_proper_summand,
)
from .polytope import (
    LatticePolytope,
    frozen_builder,
    is_fano,
    is_reflexive,
    lattice_points,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    normalized_volume,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    polar,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
)

LOW_DEGREES = frozenset({4, 6, 8, 10, 12})
_NODE_KINDS = frozenset({STANDARD_TRIANGLE, STANDARD_SQUARE})


@dataclass(frozen=True, kw_only=True, slots=True)
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
      On a reflexive polytope the edges of length 1 are exactly those.
    - ``rigid_face_witnesses``: triangular facets whose vertices do not
      extend to a basis of Z^3 while the endpoints of each edge do (on a
      reflexive polytope: the non-standard triangles with unit edges).
      The cone over one is rigid yet singular, which obstructs smoothing.
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
    A new field must also go into ``db._json_report``: the byte tests fail until it does.
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


_report = frozen_builder(ClassificationReport)
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


@cache  # reflexive degrees are even and at most 72: a few dozen keys per m_max
def hilbert_from_degree(deg: int, m_max: int) -> tuple[int, ...]:
    """h_0..h_{m_max} of a reflexive polytope of degree ``deg``.

    h_m is the number of lattice points of m times the polar, the dimension
    of the sections of the m-th anticanonical power.  The polar of a
    reflexive polytope is reflexive too, so its Ehrhart h*-vector is
    (1, L - 4, L - 4, 1), with L its number of lattice points, and its
    normalized volume, the degree, is the sum of that vector, 2 L - 6.
    Summing h*_i against the binomials C(m + 3 - i, 3) gives
    h_m = d m (m + 1) (2 m + 1) / 12 + 2 m + 1.
    The degree is even, so every term is an integer, and no lattice points
    are counted.
    """
    return tuple(deg * m * (m + 1) * (2 * m + 1) // 12 + 2 * m + 1 for m in range(m_max + 1))


def classify(
    poly: LatticePolytope, polytope_id: int = 0, m_max: int = 5
) -> ClassificationReport:
    """Evaluate every criterion on a Fano polytope and bundle the verdicts.

    Reflexive-only criteria come back as None on a non-reflexive Fano
    polytope.  The Hilbert coefficients h_0..h_{m_max} come from the degree
    by the closed form of ``hilbert_from_degree``.  The report is
    deterministic for a given input.  Only a non-reflexive polytope runs
    the Fano test: height 1 on every facet implies Fano (``is_reflexive``).
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    reflexive = is_reflexive(poly)
    if not reflexive and not is_fano(poly):
        raise ValueError("classification requires a Fano polytope")
    vertices, facets = poly.vertices, poly.facets

    # a, b extend to a basis of Z^3 exactly when the entries of a x b are
    # coprime; such an edge is also unitary.  On a reflexive polytope the
    # converse holds, so no set is built: a facet through the edge has a
    # normal n with n.a = n.b = 1, so Z^3 = Z a + n^perp, and Z^3 / (Z a + Z b)
    # = n^perp / Z (b - a) is free exactly when b - a is primitive
    basis = None if reflexive else {
        (a, b) for a, b in poly.edges if gcd(*cross(vertices[a], vertices[b])) == 1
    }

    classes = []
    kinds = set()
    unitary = triangles = True
    rigid_witnesses = []
    indec_witnesses = []
    for fi, facet in enumerate(facets):
        cycle = facet.vertex_indices
        k, area2 = len(cycle), facet.area2
        if area2 < k:
            # Pick: area2 = 2 I + B - 2 with B >= k, the sum of the lengths.
            # area2 = k - 2: I = 0 and unit edges, and then k <= 4 (width 1, or
            # twice a standard triangle): exactly the standard facets.  A square
            # is a sum of two segments: no search.  area2 = k - 1: I = 0 and
            # B = k + 1, so one step of length 2; not unitary, so no summand
            # search and no rigid-face witness
            cls = classify_counts(k, (1,) * (k - 1) + (area2 - k + 3,), area2)
        else:
            # the lattice lengths of the steps in Z^3, which a chart keeps
            lengths = []
            ux, uy, uz = vertices[cycle[-1]]
            for i in cycle:
                x, y, z = vertices[i]
                lengths.append(gcd(x - ux, y - uy, z - uz))
                ux, uy, uz = x, y, z
            cls = classify_counts(k, tuple(sorted(lengths)), area2)
            if reflexive and cls.edge_lengths[-1] == 1:
                # unitary: each step is its own primitive direction, of length 1
                p = [vertices[i] for i in cycle]
                steps = [((x - a, y - b, z - c), 1) for (a, b, c), (x, y, z) in zip(p[-1:] + p, p)]
                if not has_proper_summand(steps):
                    indec_witnesses.append(fi)
        classes.append(cls)
        kinds.add(cls.kind)
        facet_unitary = cls.edge_lengths[-1] == 1
        unitary = unitary and facet_unitary
        if k != 3:
            triangles = False
        elif facet.height * area2 != 1 and facet_unitary:  # |det| of its vertices
            i, j, h = cycle
            if reflexive or all(
                (min(u, v), max(u, v)) in basis for u, v in ((i, j), (j, h), (h, i))
            ):
                rigid_witnesses.append(fi)

    common = dict(
        polytope_id=polytope_id,
        facet_classes=tuple(classes),
        totaro_rigid=triangles and unitary and (reflexive or len(basis) == len(poly.edges)),
        rigid_face_obstruction=bool(rigid_witnesses),
        rigid_face_witnesses=tuple(rigid_witnesses),
    )
    if not reflexive:
        return _report(**common, reflexive=False)

    # One pass over the edges gives the degree and the AFT pairs.  (-K)^3 is
    # the normalized volume of the polar, whose facet dual to a vertex v has
    # the normals of the facets through v as its vertices, in their cyclic
    # order around v.  A step v -> w of the cycle of a facet F separates F from
    # the facet G across that edge, and F, G are consecutive around v.  So the
    # sum of det((n_anchor(v), n_F, n_G)) over all directed edges, n_anchor(v)
    # one fixed normal at v, fans every dual facet from its anchor and cones it
    # over the origin, all with one orientation; its absolute value is the
    # degree.  An edge (a, b) with facets (L, R) is the step a -> b of L and
    # b -> a of R, so its two terms add up to det((n_anchor(a) - n_anchor(b),
    # n_L, n_R)), one determinant per edge; the anchor at v is the left facet
    # of its first edge.  No dual hull is built
    anchor = {}
    total = 0
    aft_witnesses = []
    for (a, b), (l, r) in zip(poly.edges, poly.facet_adjacency):
        fl = facets[l].normal
        (ax, ay, az), (bx, by, bz) = anchor.setdefault(a, fl), anchor.setdefault(b, fl)
        (fx, fy, fz), (gx, gy, gz) = fl, facets[r].normal
        x, y, z = ax - bx, ay - by, az - bz
        total += x * (fy * gz - fz * gy) - y * (fx * gz - fz * gx) + z * (fx * gy - fy * gx)
        if classes[l].kind == AM_TRIANGLE and classes[r].kind == AM_TRIANGLE:
            # both are triangles, so each has one apex off the shared edge.  An
            # apex that pairs to 0 against the other normal lies at lattice
            # distance 1 from the edge, which then has length area2 = m + 1: it
            # is the long edge of both triangles, and their m agree
            for g, h in ((l, r), (r, l)):
                (apex,) = (i for i in facets[g].vertex_indices if i != a and i != b)
                if dot(facets[h].normal, vertices[apex]) == 0:
                    aft_witnesses.append((min(l, r), max(l, r)))
                    break
    aft_witnesses.sort()

    smooth = kinds == {STANDARD_TRIANGLE}
    deg = abs(total)
    return _report(
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
        hilbert=hilbert_from_degree(deg, m_max),
    )
