"""Lattice polygons in Z^2 and the Minkowski structure of polytope facets.

A facet's polygon is its vertex cycle read in Z^2 through the unimodular
chart of ``chart_rows``; ``facet_to_polygon`` charts it on each call, and
no facet keeps it.  Every predicate here (classification, edge lengths,
decomposability) is invariant under such charts, and the summand searches
also run on a facet's steps in Z^3.

The lattice Minkowski summands of a convex lattice polygon are exactly the
choices of sub-lengths of its edge vectors that close up to zero, in the
same cyclic order (the edge vector method).  A test for a proper one stops
at the first; a decomposition carries its lifted cone's rays (Altmann's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import TYPE_CHECKING

from .intlinalg import (
    chart_rows,
    dot,
    inverse_unimodular,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    matvec,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    smith_normal_form,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
)

if TYPE_CHECKING:  # pragma: no cover
    from .polytope import LatticePolytope

Vec2 = tuple[int, int]

# facet classification tags
STANDARD_TRIANGLE = "standard_triangle"
STANDARD_SQUARE = "standard_square"
AM_TRIANGLE = "am_triangle"
OTHER = "other"


@dataclass(frozen=True)
class LatticePolygon:
    """A polygon (or segment, or point) in Z^2 given by its vertex cycle.

    Vertices are listed in boundary order and must be in strictly convex
    position; segments carry their two endpoints.  ``edges`` holds the
    (primitive direction, lattice length) of each boundary step and
    ``area2`` twice the Euclidean area (the normalized area), both computed
    on construction; a segment is traversed there and back, so it has a
    pair of opposite directions and area 0, and a point has no edges.
    Equality, hashing and repr depend on the vertices alone.
    """

    vertices: tuple[Vec2, ...]
    edges: tuple[tuple[Vec2, int], ...] = field(init=False, compare=False, repr=False)
    area2: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vs = tuple(map(tuple, self.vertices))
        object.__setattr__(self, "vertices", vs)
        if not vs:
            raise ValueError("polygon needs at least one vertex")
        if len(vs) != len(set(vs)):
            raise ValueError("repeated vertex in polygon")
        # one walk around the cycle: the edge steps, the shoelace sum, and
        # the turn between consecutive steps for the convexity check; a point
        # has no steps, and a segment's two opposite steps make no turn
        k = len(vs)
        edges = []
        left = right = straight = False
        shoelace = 0
        (x0, y0), (px, py) = vs[-1], vs[0]
        ux, uy = px - x0, py - y0
        for x, y in (vs[1:] + vs[:1]) if k > 1 else ():
            dx, dy = x - px, y - py
            g = gcd(dx, dy)
            edges.append(((dx // g, dy // g), g))
            shoelace += px * dy - py * dx
            s = ux * dy - uy * dx
            if s > 0:
                left = True
            elif s < 0:
                right = True
            else:
                straight = True
            px, py, ux, uy = x, y, dx, dy
        if k >= 3:
            if straight:
                raise ValueError("vertices are not in strictly convex position")
            if left and right:
                raise ValueError("vertex cycle is not convex")
            # turns of one sign wind the edge directions w >= 1 times round,
            # in and out of the upper half-plane 2w times; a star has k >= 5
            if k >= 5:
                up = [dy > 0 or (dy == 0 and dx > 0) for (dx, dy), _ in edges]
                if sum(a != b for a, b in zip(up, up[1:] + up[:1])) != 2:
                    raise ValueError("vertex cycle is not convex")
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "area2", abs(shoelace))


def translation_key(poly: LatticePolygon) -> tuple[Vec2, ...]:
    """Canonical form of a polygon up to translation.

    Shifts the lexicographically smallest vertex to the origin and returns
    the sorted vertex tuple; two polygons are translates of each other
    exactly when their keys agree.
    """
    base = min(poly.vertices)
    return tuple(sorted((v[0] - base[0], v[1] - base[1]) for v in poly.vertices))


def convex_hull_2d(points) -> LatticePolygon:
    """Convex hull in Z^2 by the monotone chain, collinear points dropped.

    Returns the hull as a LatticePolygon with counterclockwise vertices (or
    the segment/point it degenerates to).
    """
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        raise ValueError("no points")
    if len(pts) == 1:
        return LatticePolygon((pts[0],))

    def half(seq):
        chain = []
        for p in seq:
            x, y = p
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) < 2:
        return LatticePolygon((pts[0], pts[-1]))
    return LatticePolygon(tuple(cycle))


@dataclass(frozen=True)
class PolygonClass:
    """Classification tag of a lattice polygon together with its descriptors."""

    kind: str
    m: int | None
    vertex_count: int
    edge_lengths: tuple[int, ...]
    interior_points: int

    def label(self) -> str:
        if self.kind == AM_TRIANGLE:
            return f"A{self.m}-triangle"
        return self.kind.replace("_", "-")

    @cached_property
    def _json_label(self) -> str:
        """The label as a JSON string; classes are interned, so it is encoded once."""
        return encode_basestring_ascii(self.label())


def facet_to_polygon(polytope: "LatticePolytope", facet_index: int) -> LatticePolygon:
    """A facet of a 3-polytope flattened to Z^2.

    Each call reads the facet's vertex cycle from ``polytope.vertices`` and
    maps it through the chart of ``chart_rows``, so it builds a new polygon;
    its vertices follow the cycle, from its smallest vertex index.  The
    result is unique up to AGL(2, Z), which is all that the classification
    and decomposition predicates can see.
    """
    if not 0 <= facet_index < len(polytope.facets):
        raise IndexError(f"facet index {facet_index} out of range")
    facet, vertices = polytope.facets[facet_index], polytope.vertices
    r1, r2 = chart_rows(facet.normal)
    points = [vertices[i] for i in facet.vertex_indices]
    return LatticePolygon([(dot(r1, p), dot(r2, p)) for p in points])


def classify_polygon(poly: LatticePolygon) -> PolygonClass:
    """Classify a polygon as standard triangle, standard square, A_m or other.

    Its ``edge_lengths`` are the sorted lattice lengths of the edges; a
    segment, walked there and back, has one edge of one length.
    """
    lengths = sorted([length for _, length in poly.edges])
    if len(poly.vertices) == 2:
        lengths = lengths[:1]
    return classify_counts(len(poly.vertices), tuple(lengths), poly.area2)


@cache
def classify_counts(k: int, lengths: tuple[int, ...], area2: int) -> PolygonClass:
    """The class of a polygon with k vertices, sorted edge lengths and area.

    A standard triangle is a triangle of normalized area 1; a standard square
    is a quadrilateral whose only lattice points are its four vertices; an
    A_m-triangle (m >= 1) is an empty triangle with edge lengths 1, 1, m+1.
    A triangle has area 1 exactly when it is empty with edge lengths 1, 1, 1,
    so the lengths and the interior count, which Pick's formula gives from
    them and ``area2``, decide all three.  Classes are interned: equal
    arguments return the same frozen instance, shared by every caller.  The
    facets of reflexive 3-polytopes take few distinct argument triples.
    """
    interior = (area2 - sum(lengths) + 2) // 2 if k >= 3 else 0
    kind, m = OTHER, None
    if k == 3 and interior == 0 and lengths[1] == 1:
        kind, m = (STANDARD_TRIANGLE, None) if lengths[2] == 1 else (AM_TRIANGLE, lengths[2] - 1)
    elif k == 4 and interior == 0 and lengths[3] == 1:
        kind = STANDARD_SQUARE
    return PolygonClass(kind, m, k, lengths, interior)


def summand_assignments(steps) -> list[tuple[int, ...]]:
    """All sub-length assignments of a lattice polygon's steps that close up to zero.

    ``steps`` are the (primitive direction in Z^3, lattice length) of the
    boundary steps in cyclic order: a facet's steps in space, or a polygon's
    edges with third coordinate 0.  Each admissible assignment, a length from
    0 to the lattice length per step, determines a Minkowski summand.
    """
    # how far the steps after each step can move each coordinate, last first
    reach = [(0, 0, 0)]
    for (dx, dy, dz), length in reversed(steps[1:]):
        rx, ry, rz = reach[-1]
        reach.append((rx + length * abs(dx), ry + length * abs(dy), rz + length * abs(dz)))
    # keep the prefixes whose partial sum the remaining steps can still
    # bring back to 0; after the last step only sums of 0 are left
    prefixes: list[tuple[tuple[int, ...], int, int, int]] = [((), 0, 0, 0)]
    for ((dx, dy, dz), length), (bx, by, bz) in zip(steps, reversed(reach)):
        prefixes = [
            ((*acc, a), sx + a * dx, sy + a * dy, sz + a * dz)
            for acc, sx, sy, sz in prefixes
            for a in range(length + 1)
            if abs(sx + a * dx) <= bx and abs(sy + a * dy) <= by and abs(sz + a * dz) <= bz
        ]
    return sorted(acc for acc, _, _, _ in prefixes)


def has_proper_summand(steps) -> bool:
    """Whether an assignment other than the zero and the full one closes up.

    ``steps`` are as in ``summand_assignments``; an empty list is a point.
    A closing assignment's complement closes too, so the search keeps
    a_0 < l_0, adds each later step 1..l_i times and stops at a new sum 0.
    """
    sums = {(a * dx, a * dy, a * dz) for (dx, dy, dz), length in steps[:1] for a in range(length)}
    for (dx, dy, dz), length in steps[1:]:
        new = {
            (x + a * dx, y + a * dy, z + a * dz) for a in range(1, length + 1) for x, y, z in sums
        }
        if (0, 0, 0) in new:
            return True
        sums |= new
    return False


def enumerate_summand_vectors(poly: LatticePolygon) -> list[tuple[int, ...]]:
    """``summand_assignments`` of the polygon's edges, one per edge, in edge order."""
    return summand_assignments([((dx, dy, 0), length) for (dx, dy), length in poly.edges])


def is_minkowski_indecomposable(poly: LatticePolygon) -> bool:
    """True when ``has_proper_summand`` finds no proper summand of its edges."""
    return not has_proper_summand([((dx, dy, 0), length) for (dx, dy), length in poly.edges])


@dataclass(frozen=True)
class MinkowskiDecomposition:
    """An unordered collection of lattice summands of a polygon.

    Summands are recorded both as sub-length assignments over the parent's
    edges and as anchored polygons; they sum to a translate of the parent.
    The trivial decomposition is the parent polygon itself.
    """

    assignments: tuple[tuple[int, ...], ...]
    summands: tuple[LatticePolygon, ...]

    def key(self) -> tuple:
        return tuple(sorted(translation_key(s) for s in self.summands))

    @property
    def lifted_rays(self) -> tuple[tuple[int, ...], ...]:
        """Rays of the lifted cone of F = D_0 + ... + D_r, in Z^2 + Z^(r+1).

        Every vertex v of the summand D_k gives the ray (v; e_k), summand by
        summand, each summand's vertices in boundary order; the e-block names
        the summand and makes the ray primitive.  The trivial decomposition
        (r = 0) gives the cone over F x {1}.  Only the rays are produced; the
        toric varieties of these cones are outside this package.
        """
        r1 = len(self.summands)
        return tuple(
            (x, y) + tuple(int(j == k) for j in range(r1))
            for k, summand in enumerate(self.summands)
            for x, y in summand.vertices
        )


def _summand_polygon(poly: LatticePolygon, assignment: tuple[int, ...]) -> LatticePolygon:
    """The summand polygon of a nonzero admissible assignment.

    The summand's boundary is walked in the parent's cyclic order starting
    just after its lowest-indexed edge, anchored at the origin; the step
    along that edge closes the cycle, since the assignment is admissible.
    The full assignment gives the parent polygon itself.
    """
    edges = poly.edges
    if all(a == length for a, (_, length) in zip(assignment, edges)):
        return poly
    present = [i for i, a in enumerate(assignment) if a > 0]
    x = y = 0
    verts = [(0, 0)]
    for i in present[1:]:
        (dx, dy), _ = edges[i]
        x, y = x + assignment[i] * dx, y + assignment[i] * dy
        verts.append((x, y))
    return LatticePolygon(tuple(verts))


def maximal_decompositions(poly: LatticePolygon) -> list[MinkowskiDecomposition]:
    """All decompositions of the polygon into indecomposable lattice summands.

    Indecomposable summands correspond to the minimal nonzero admissible
    assignments, so the decompositions are the multiset partitions of the
    full assignment into minimal ones, each built from one summand polygon
    per minimal assignment.  The search takes the minimal assignments in
    descending order and never returns to an earlier one, so it reaches
    each multiset once, with its parts in descending order; the edges of a
    convex polygon have distinct directions, so distinct multisets give
    distinct summands.  The decompositions are listed by ``key``.  When the
    polygon itself is indecomposable the single trivial decomposition is
    returned.
    """
    assignments = enumerate_summand_vectors(poly)
    nonzero = [a for a in assignments if any(a)]
    minimal = [
        a
        for a in nonzero
        if not any(
            b != a and all(x <= y for x, y in zip(b, a)) for b in nonzero
        )
    ]
    minimal.sort(reverse=True)
    summands = {a: _summand_polygon(poly, a) for a in minimal}
    full = tuple(length for _, length in poly.edges)

    decompositions: list[MinkowskiDecomposition] = []
    # depth first over (what is left, first index to take, parts taken),
    # largest part first; once nothing is left no part fits
    stack = [(full, 0, ())]
    while stack:
        remaining, start, used = stack.pop()
        if not any(remaining):
            decompositions.append(MinkowskiDecomposition(used, tuple(summands[a] for a in used)))
        for idx in reversed(range(start, len(minimal))):
            part = minimal[idx]
            if all(p <= r for p, r in zip(part, remaining)):
                stack.append((tuple(r - p for r, p in zip(remaining, part)), idx, (*used, part)))
    decompositions.sort(key=MinkowskiDecomposition.key)
    return decompositions
