"""Lattice polygons in Z^2 and the Minkowski structure of polytope facets.

A facet of a 3-dimensional lattice polytope is flattened to Z^2 by an affine
unimodular chart; every predicate defined here (classification, edge lengths,
decomposability) is invariant under such charts, so nothing downstream
depends on which chart was picked.

Minkowski summands of a convex lattice polygon are enumerated by the edge
vector method: a lattice summand is exactly a choice of sub-lengths of the
edge vectors that closes up to zero, taken in the same cyclic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import TYPE_CHECKING

from .intlinalg import (
    Vec,
    cross,
    det2,
    dot,
    inverse_unimodular,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    matvec,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    plane_basis,
    smith_normal_form,  # noqa: F401 - unused; kept so perfbench's tracer can rebind it
    vsub,
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
class AffineChart:
    """Affine lattice isomorphism between a facet plane in Z^3 and Z^2."""

    origin: Vec
    basis: tuple[Vec, Vec]

    def lift(self, q: Vec2) -> Vec:
        b0, b1 = self.basis
        return tuple(
            o + q[0] * x + q[1] * y for o, x, y in zip(self.origin, b0, b1)
        )


@dataclass(frozen=True)
class LatticePolygon:
    """A polygon (or segment, or point) in Z^2 given by its vertex cycle.

    Vertices are listed in boundary order and must be in strictly convex
    position; segments carry their two endpoints.  The optional chart
    remembers how a facet was flattened, so polygon lattice points can be
    lifted back to the ambient Z^3.
    """

    vertices: tuple[Vec2, ...]
    chart: AffineChart | None = field(default=None, compare=False)

    def __post_init__(self):
        vs = tuple(tuple(v) for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if not vs:
            raise ValueError("polygon needs at least one vertex")
        if len(vs) != len(set(vs)):
            raise ValueError("repeated vertex in polygon")
        if len(vs) >= 3:
            k = len(vs)
            signs = set()
            for i in range(k):
                a, b, c = vs[i], vs[(i + 1) % k], vs[(i + 2) % k]
                s = det2(vsub(b, a), vsub(c, b))
                if s == 0:
                    raise ValueError("vertices are not in strictly convex position")
                signs.add(s > 0)
            if len(signs) != 1:
                raise ValueError("vertex cycle is not convex")

    @property
    def edges(self) -> tuple[tuple[Vec2, int], ...]:
        """(primitive direction, lattice length) per boundary edge.

        A segment is traversed there and back, so it contributes a pair of
        opposite directions; a point has no edges.
        """
        vs = self.vertices
        if len(vs) == 1:
            return ()
        if len(vs) == 2:
            d = vsub(vs[1], vs[0])
            g = gcd(d[0], d[1])
            p = (d[0] // g, d[1] // g)
            return ((p, g), ((-p[0], -p[1]), g))
        out = []
        for i in range(len(vs)):
            d = vsub(vs[(i + 1) % len(vs)], vs[i])
            g = gcd(d[0], d[1])
            out.append(((d[0] // g, d[1] // g), g))
        return tuple(out)

    @property
    def area2(self) -> int:
        """Twice the Euclidean area (the normalized area), by the shoelace sum."""
        vs = self.vertices
        if len(vs) < 3:
            return 0
        return abs(sum(det2(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))))

    @property
    def boundary_points(self) -> int:
        if len(self.vertices) == 1:
            return 1
        if len(self.vertices) == 2:
            return self.edges[0][1] + 1
        return sum(length for _, length in self.edges)

    @property
    def interior_points(self) -> int:
        """Number of interior lattice points, from Pick's formula."""
        if len(self.vertices) < 3:
            return 0
        return (self.area2 - self.boundary_points + 2) // 2

    def translated(self, t: Vec2) -> "LatticePolygon":
        return LatticePolygon(tuple((v[0] + t[0], v[1] + t[1]) for v in self.vertices))


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
            while len(chain) >= 2 and det2(vsub(chain[-1], chain[-2]), vsub(p, chain[-2])) <= 0:
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


def facet_to_polygon(polytope: "LatticePolytope", facet_index: int) -> LatticePolygon:
    """Flatten a facet of a 3-polytope to Z^2.

    An affine unimodular isomorphism from the lattice of the facet plane onto
    Z^2 is applied to the facet's vertex cycle.  The chart comes from the
    extended-gcd basis (e, b1, b2) of ``plane_basis``: b1, b2 span the
    plane's direction lattice, the rows b2 x e and e x b1 of the inverse
    basis read off the coordinates in it, and the first facet vertex is the
    anchor.  The result is unique up to AGL(2, Z), which is all that the
    classification and decomposition predicates can see.
    """
    if not 0 <= facet_index < len(polytope.facets):
        raise IndexError(f"facet index {facet_index} out of range")
    facet = polytope.facets[facet_index]
    normal = facet.normal
    e, b1, b2 = plane_basis(normal)
    row1, row2 = cross(b2, e), cross(e, b1)
    anchor = polytope.vertices[facet.vertex_indices[0]]
    verts2 = []
    for idx in facet.vertex_indices:
        d = vsub(polytope.vertices[idx], anchor)
        if dot(normal, d) != 0:
            raise AssertionError("facet vertex left the facet plane")
        verts2.append((dot(row1, d), dot(row2, d)))
    return LatticePolygon(tuple(verts2), chart=AffineChart(anchor, (b1, b2)))


def edge_lattice_lengths(poly: LatticePolygon) -> tuple[int, ...]:
    """Multiset of lattice lengths of the edges, sorted ascending."""
    if len(poly.vertices) == 2:
        return (poly.edges[0][1],)
    return tuple(sorted(length for _, length in poly.edges))


def has_unitary_edges(poly: LatticePolygon) -> bool:
    """True when every edge has lattice length 1."""
    return all(length == 1 for length in edge_lattice_lengths(poly))


def classify_polygon(poly: LatticePolygon) -> PolygonClass:
    """Classify a polygon as standard triangle, standard square, A_m or other.

    A standard triangle is a triangle of normalized area 1; a standard square
    is a quadrilateral whose only lattice points are its four vertices; an
    A_m-triangle (m >= 1) is an empty triangle with edge lengths 1, 1, m+1.
    """
    k = len(poly.vertices)
    lengths = edge_lattice_lengths(poly)
    interior = poly.interior_points
    kind = OTHER
    m = None
    if k == 3 and poly.area2 == 1:
        kind = STANDARD_TRIANGLE
    elif k == 4 and interior == 0 and all(l == 1 for l in lengths):
        kind = STANDARD_SQUARE
    elif k == 3 and interior == 0 and lengths[0] == 1 and lengths[1] == 1 and lengths[2] >= 2:
        kind = AM_TRIANGLE
        m = lengths[2] - 1
    return PolygonClass(
        kind=kind,
        m=m,
        vertex_count=k,
        edge_lengths=lengths,
        interior_points=interior,
    )


def enumerate_summand_vectors(poly: LatticePolygon) -> list[tuple[int, ...]]:
    """All sub-length assignments of the edge vectors that close up to zero.

    An assignment gives every edge a length between 0 and its lattice length;
    admissible ones have their weighted edge directions summing to zero, and
    each determines a Minkowski summand.  Enumeration is a depth-first walk
    with a reachability bound on the partial sums.
    """
    edges = poly.edges
    k = len(edges)
    max_x = [0] * (k + 1)
    max_y = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        (dx, dy), length = edges[i]
        max_x[i] = max_x[i + 1] + length * abs(dx)
        max_y[i] = max_y[i + 1] + length * abs(dy)
    out: list[tuple[int, ...]] = []
    acc = [0] * k

    def walk(i: int, sx: int, sy: int) -> None:
        if abs(sx) > max_x[i] or abs(sy) > max_y[i]:
            return
        if i == k:
            if sx == 0 and sy == 0:
                out.append(tuple(acc))
            return
        (dx, dy), length = edges[i]
        for a in range(length + 1):
            acc[i] = a
            walk(i + 1, sx + a * dx, sy + a * dy)
        acc[i] = 0

    walk(0, 0, 0)
    return sorted(out)


def is_minkowski_indecomposable(poly: LatticePolygon) -> bool:
    """True when the only admissible assignments are the zero and full ones."""
    return len(enumerate_summand_vectors(poly)) <= 2


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


def _summand_polygon(poly: LatticePolygon, assignment: tuple[int, ...]) -> LatticePolygon:
    """Build the summand polygon determined by a nonzero assignment.

    The summand's boundary is walked in the parent's cyclic order starting
    just after its lowest-indexed edge, anchored at the origin.  The full
    assignment returns the parent polygon unchanged.
    """
    edges = poly.edges
    if all(a == length for a, (_, length) in zip(assignment, edges)):
        return LatticePolygon(poly.vertices)
    present = [i for i, a in enumerate(assignment) if a > 0]
    if not present:
        raise ValueError("zero assignment does not give a summand")
    order = present[1:] + [present[0]]
    pos = (0, 0)
    verts = [pos]
    for i in order[:-1]:
        (dx, dy), _ = edges[i]
        a = assignment[i]
        pos = (pos[0] + a * dx, pos[1] + a * dy)
        verts.append(pos)
    (dx, dy), _ = edges[order[-1]]
    a = assignment[order[-1]]
    if (pos[0] + a * dx, pos[1] + a * dy) != (0, 0):
        raise ValueError("assignment does not close up")
    return LatticePolygon(tuple(verts))


def decomposition_from_assignments(
    poly: LatticePolygon, parts: list[tuple[int, ...]]
) -> MinkowskiDecomposition:
    """Assemble a decomposition from assignment vectors that sum to the full one."""
    lengths = tuple(length for _, length in poly.edges)
    total = [0] * len(lengths)
    for part in parts:
        for i, a in enumerate(part):
            total[i] += a
    if tuple(total) != lengths:
        raise ValueError("assignments do not add up to the polygon")
    ordered = tuple(sorted(parts, reverse=True))
    return MinkowskiDecomposition(
        assignments=ordered,
        summands=tuple(_summand_polygon(poly, part) for part in ordered),
    )


def maximal_decompositions(poly: LatticePolygon) -> list[MinkowskiDecomposition]:
    """All decompositions of the polygon into indecomposable lattice summands.

    Indecomposable summands correspond to the minimal nonzero admissible
    assignments, so the decompositions are the multiset partitions of the
    full assignment into minimal ones.  Partitions producing the same
    summand multiset are reported once.  When the polygon itself is
    indecomposable the single trivial decomposition is returned.
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
    full = tuple(length for _, length in poly.edges)

    partitions: list[list[tuple[int, ...]]] = []

    def search(remaining: tuple[int, ...], start: int, used: list[tuple[int, ...]]):
        if not any(remaining):
            partitions.append(list(used))
            return
        for idx in range(start, len(minimal)):
            part = minimal[idx]
            if all(p <= r for p, r in zip(part, remaining)):
                used.append(part)
                search(tuple(r - p for r, p in zip(remaining, part)), idx, used)
                used.pop()

    search(full, 0, [])

    seen = {}
    for parts in partitions:
        dec = decomposition_from_assignments(poly, parts)
        seen.setdefault(dec.key(), dec)
    return [seen[k] for k in sorted(seen)]
