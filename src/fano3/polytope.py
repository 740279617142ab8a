"""Lattice polytopes in Z^3: hull, face lattice, polar, volume, point count.

All geometric predicates are exact integer determinants; there is no
floating point and no epsilon anywhere.  Inputs are small (a few dozen
points), so the hull is built by gift wrapping in Z^3, one whole facet per
wrap.  A facet is its vertex cycle, plane and area, all read in Z^3; its
polygon in Z^2 is ``polygon.facet_to_polygon``, charted afresh on each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass
from math import gcd
from operator import index

from ._kernels import count_box_points
from .intlinalg import Vec, det3
from .polygon import convex_hull_2d  # noqa: F401 - unused; kept so perfbench's tracer rebinds it


class DegenerateInputError(ValueError):
    """Raised when hull input does not span all of R^3."""


def frozen_builder(cls):
    """Builds what cls(...) builds, for a frozen slots dataclass cls, with one call.

    cls's ``__init__`` calls ``object.__setattr__`` once per field.  This is a
    plain dataclass with the same slots whose instance then becomes a cls.
    """
    def __post_init__(self):
        self.__class__ = cls

    return make_dataclass(cls.__name__, [
        (f.name, f.type, field(default=f.default, kw_only=f.kw_only)) for f in fields(cls)
    ], bases=cls.__bases__, namespace={"__post_init__": __post_init__},
        slots=True, repr=False, eq=False, match_args=False)  # only __init__ is needed


@dataclass(frozen=True, slots=True)
class Facet:
    """A facet with its cyclically ordered vertices and supporting hyperplane.

    The normal is primitive and outward: <normal, v> = height on the facet
    and < height on the rest of the polytope.  The vertex cycle, indices
    into the polytope's ``vertices``, runs counterclockwise as seen from
    outside, from its smallest vertex index.  ``area2`` is the normalized
    area.  The facet in Z^2 is ``polygon.facet_to_polygon(poly, i)``.  A
    facet has slots, no dict, and the hull builds it with ``frozen_builder``.
    """

    vertex_indices: tuple[int, ...]
    normal: Vec
    height: int
    area2: int


@dataclass(frozen=True, slots=True)
class LatticePolytope:
    """A full-dimensional lattice polytope in Z^3.

    ``vertices`` holds exactly the hull vertices, in input order.  ``edges``
    are index pairs (a, b) with a < b, sorted; ``facet_adjacency[i]`` is the
    pair (left, right) of facets meeting along ``edges[i]`` = (a, b): the
    cycle of the left facet steps from a to b, that of the right facet from
    b to a.
    """

    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]
    edges: tuple[tuple[int, int], ...]
    facet_adjacency: tuple[tuple[int, int], ...]

    def edge_lattice_length(self, edge_index: int) -> int:
        if not 0 <= edge_index < len(self.edges):
            raise IndexError(f"edge index {edge_index} out of range")
        a, b = self.edges[edge_index]
        (ax, ay, az), (bx, by, bz) = self.vertices[a], self.vertices[b]
        return gcd(bx - ax, by - ay, bz - az)


_facet, _polytope = frozen_builder(Facet), frozen_builder(LatticePolytope)


def _lattice_point(p) -> Vec:
    """The point p of Z^3 as a tuple of ints, p itself if it is one; else ValueError."""
    try:
        x, y, z = p
        if type(x) is int and type(y) is int and type(z) is int and type(p) is tuple:
            return p
        if bool in (type(x), type(y), type(z)):  # the JSON reader rejects them too
            raise ValueError
        return (index(x), index(y), index(z))
    except (TypeError, ValueError):
        raise ValueError(f"not a point of Z^3: {p!r}") from None


def _start(pts: list[Vec]) -> tuple[int, int, Vec]:
    """A hull edge a -> c and the outward normal m of a supporting plane through it.

    a is the smallest point, and the plane is vertical, through a and the
    next corner of the xy-projection.  A wrap inside the plane from a,
    farthest point on ties, gives c: no point of the plane lies right of
    a -> c seen from outside, so the face of the plane, an edge or a facet,
    steps from a to c.
    """
    a = pts.index(min(pts))
    ax, ay, az = pts[a]
    # every projection lies at x > ax, or at x = ax and y >= ay: seen from
    # (ax, ay) the directions span less than a half-turn, from (0, 1)
    # clockwise, and one pass finds the most clockwise one, d
    dx, dy = 0, 1
    for x, y, _ in pts:
        x, y = x - ax, y - ay
        if dx * y < dy * x:
            dx, dy = x, y
    # the plane's points a + (x, y, z), (x, y) on the ray of d, are read as
    # (s, t) = (<(x, y), d>, z): right-handed seen along m = (dy, -dx, 0),
    # and a, at (0, 0), is the smallest of them too
    c, cs, ct = a, 0, 0
    for i, (x, y, z) in enumerate(pts):
        x, y = x - ax, y - ay
        if dx * y == dy * x:
            s, t = dx * x + dy * y, z - az
            turn = cs * t - ct * s
            if turn < 0 or turn == 0 and s * s + t * t > cs * cs + ct * ct:
                c, cs, ct = i, s, t
    return a, c, (dy, -dx, 0)


def _wrap(pts: list[Vec], u: int, v: int, m: Vec) -> tuple:
    """The facet whose cycle steps u -> v.

    m is the outward normal of another supporting plane through the hull
    edge uv, whose face, if it is more than the edge, steps v -> u.  The
    plane of m reversed has no point below it; turned about the line uv, in
    one pass over the points, it becomes the plane through u, v and some q
    that has no point above it.  A second pass collects the members of that
    plane and rejects any point above it.  Three members are the triangle
    (u, v, q).  Four are the quadrilateral of u, v and the other two when
    each of its corners turns strictly left; any other members are wrapped
    inside the plane from v back to u, farthest point on ties.  Returns
    (normal, height, area2, cycle, others): the cycle of corners from its
    smallest index and the members off the cycle.
    No point above the plane of m reversed means flat input, which
    DegenerateInputError names, or, with a point below, an m not outward.
    """
    ux, uy, uz = pts[u]
    vx, vy, vz = pts[v]
    ex, ey, ez = vx - ux, vy - uy, vz - uz
    nx, ny, nz = -m[0], -m[1], -m[2]
    h = nx * ux + ny * uy + nz * uz
    # a point p above the plane turns it to the plane through p, with the raw
    # normal (v - u) x (p - u): p lies left of u -> v seen along it
    turned = False
    for x, y, z in pts:
        if nx * x + ny * y + nz * z > h:
            x, y, z = x - ux, y - uy, z - uz
            nx, ny, nz = ey * z - ez * y, ez * x - ex * z, ex * y - ey * x
            h = nx * ux + ny * uy + nz * uz
            turned = True
    if not turned:
        # full-dimensional input never gets here
        if any(nx * x + ny * y + nz * z < h for x, y, z in pts):
            raise AssertionError("vertex on the wrong side of a facet")
        for x, y, z in pts:
            x, y, z = x - ux, y - uy, z - uz
            if ey * z - ez * y or ez * x - ex * z or ex * y - ey * x:
                raise DegenerateInputError("points are coplanar, expected dimension 3")
        raise DegenerateInputError("points are collinear")
    members = []
    for i, (x, y, z) in enumerate(pts):
        value = nx * x + ny * y + nz * z
        if value >= h:
            if value > h:
                raise AssertionError("vertex on the wrong side of a facet")
            members.append(i)
    g = gcd(nx, ny, nz)
    normal, height = (nx // g, ny // g, nz // g), h // g
    if len(members) == 3:
        # the triangle (u, v, q): its raw normal (v - u) x (q - u) is g times
        # the primitive one, g its normalized area
        q = sum(members) - u - v
        cycle = (u, v, q) if u < v and u < q else (v, q, u) if v < q else (q, u, v)
        return normal, height, g, cycle, ()

    # read the plane in two coordinates: drop one, k, where the normal is
    # nonzero, and order the other two so that a left turn seen from outside
    # stays one; then det(n, w - c, r - c) has the sign of their 2x2 cross
    k, i, j = (nz, 0, 1) if nz else (ny, 2, 0) if ny else (nx, 1, 2)
    if k < 0:
        i, j = j, i
    ua, ub = pts[u][i], pts[u][j]
    va, vb = pts[v][i], pts[v][j]
    # the shoelace sum of p x p' over the steps p -> p' is area2 times |k| / g,
    # the size of the primitive normal's coordinate
    if len(members) == 4:
        # the quadrilateral u -> v -> x -> y, with y left of v -> x, is the
        # facet when all four corners turn strictly left; a member inside an
        # edge or inside the facet, or a faulty u -> v, goes on to the walk
        x, y = [r for r in members if r != u and r != v]
        xa, xb, ya, yb = pts[x][i] - va, pts[x][j] - vb, pts[y][i] - va, pts[y][j] - vb
        if xa * yb < xb * ya:
            x, y, xa, xb, ya, yb = y, x, ya, yb, xa, xb
        # x and y are now read from v; with s the step u -> v and t the step
        # x -> y, the turns at v, x, y and u are the 2x2 crosses (s, x),
        # (x, y), (t, -s - y) and (s, y)
        sa, sb, ta, tb = va - ua, vb - ub, ya - xa, yb - xb
        if (sa * xb > sb * xa and xa * yb > xb * ya
                and tb * (sa + ya) > ta * (sb + yb) and sa * yb > sb * ya):
            # the quadrilateral's shoelace sum is the cross of its diagonals
            area = (xa + sa) * yb - (xb + sb) * ya
            cycle = ((u, v, x, y) if u < v and u < x and u < y else (v, x, y, u)
                     if v < x and v < y else (x, y, u, v) if x < y else (y, u, v, x))
            return normal, height, area * g // abs(k), cycle, ()
    flat = [(pts[r][i], pts[r][j], r) for r in members]
    # the corner after c is the member w with every member left of or on
    # c -> w, the farthest one on ties
    cycle = [u]
    c, ca, cb = v, va, vb
    # the term of the step u -> v
    area = ua * cb - ub * ca
    while c != u:
        if len(cycle) == len(members):
            raise AssertionError("facet boundary is not one cycle")
        cycle.append(c)
        w, wa, wb = u, ua - ca, ub - cb
        for ra, rb, r in flat:
            ra, rb = ra - ca, rb - cb
            turn = wa * rb - wb * ra
            if turn < 0 or turn == 0 and ra * ra + rb * rb > wa * wa + wb * wb:
                w, wa, wb = r, ra, rb
        area += ca * wb - cb * wa
        c, ca, cb = w, ca + wa, cb + wb
    others = tuple(set(members).difference(cycle)) if len(members) > len(cycle) else ()
    first = cycle.index(min(cycle))
    cycle = (*cycle[first:], *cycle[:first])
    return normal, height, area * g // abs(k), cycle, others


def convex_hull(points) -> LatticePolytope:
    """Convex hull of lattice points in Z^3 with its full face data.

    Gift wrapping, one whole facet per wrap: ``_start`` finds a hull edge,
    and ``_wrap`` the facet across it, then the facet across each cycle
    step whose reverse is on no facet yet, so F facets take F wraps over
    the points.  Each wrap checks that no point lies above its facet and
    reads the facet's ``area2`` and its cycle of corners, counterclockwise
    seen from outside, in Z^3: a plane of three members, or of four in
    strictly convex position, is read off them, and any other plane is
    walked.  The wrap loop maps each directed cycle step
    to its facet, once; facets are then sorted by (normal, height), and the
    map's keys give the edges, and its values, read through the sort's
    permutation, their oriented facet pairs.  A cycle starts at its smallest
    vertex index.
    Raises DegenerateInputError when the points do not affinely span R^3;
    the wrap whose starting plane holds them all finds it: the first on a
    line or a vertical plane, the second on any other plane.
    """
    pts: list[Vec] = list(dict.fromkeys(map(_lattice_point, points)))
    if len(pts) < 4:
        raise DegenerateInputError("need at least 4 distinct points")

    a, c, m = _start(pts)
    # the steps to wrap, each with the normal of the facet across it; the
    # list grows while it is read, and a step on a facet found is skipped;
    # ``left`` maps each directed cycle step to its facet's index in ``found``
    found, left, todo = [], {}, [(c, a, m)]
    used, off, steps = set(), (), 0
    for u, v, m in todo:
        if (u, v) in left:
            continue
        fi = len(found)
        found.append(facet := _wrap(pts, u, v, m))
        normal, _, _, cycle, others = facet
        used.update(cycle)
        off += others
        steps += len(cycle)
        x = cycle[-1]
        for y in cycle:
            left[x, y] = fi
            todo.append((y, x, normal))
            x = y
        if (u, v) not in left:
            raise AssertionError("hull edge on a single facet")
    # the facets sorted by (normal, height): found[i] goes to place rank[i]
    order = sorted(range(len(found)), key=found.__getitem__)
    rank = sorted(range(len(found)), key=order.__getitem__)

    # a hull vertex on the plane of a facet is a corner of that facet; the
    # usual input has no member off a cycle, and then nothing to check
    if off and not used.isdisjoint(off):
        raise AssertionError("vertex on the wrong side of a facet")
    edges = sorted([step for step in left if step[0] < step[1]])
    # the wrap loop has put the reverse of every step on a facet
    adjacency = tuple([(rank[left[a, b]], rank[left[b, a]]) for a, b in edges])
    # points on no facet cycle (inside, or inside a facet or an edge) are
    # dropped; the usual input has none, and then nothing is renumbered
    if len(used) < len(pts):
        # a monotone renumbering: cycle starts and the edge order stay
        renumber = {old: new for new, old in enumerate(sorted(used))}
        edges = [(renumber[a], renumber[b]) for a, b in edges]
        found = [(*f[:3], tuple([renumber[i] for i in f[3]]), f[4]) for f in found]
        pts = [pts[i] for i in renumber]
    if len(left) != steps or 2 * len(edges) != steps:
        raise AssertionError("hull edge not on exactly two facets")
    if len(pts) - len(edges) + len(found) != 2:
        raise AssertionError("hull is not a 2-sphere")
    facets = tuple([_facet(cycle, normal, height, area2)
                    for normal, height, area2, cycle, _ in map(found.__getitem__, order)])
    return _polytope(tuple(pts), facets, tuple(edges), adjacency)


def is_fano(poly: LatticePolytope) -> bool:
    """Origin strictly interior and every vertex primitive."""
    if any(f.height < 1 for f in poly.facets):
        return False
    return all(gcd(x, y, z) == 1 for x, y, z in poly.vertices)


def is_reflexive(poly: LatticePolytope) -> bool:
    """Every facet hyperplane at lattice height 1; such a polytope is Fano.

    Height 1 > 0 on every facet puts the origin strictly inside, and each
    vertex v lies on a facet plane <n, v> = 1 with n integral, so a common
    divisor of v's coordinates divides 1: v is primitive.
    """
    return all(f.height == 1 for f in poly.facets)


def polar(poly: LatticePolytope) -> LatticePolytope:
    """Polar dual of a reflexive polytope.

    Defined as the hull of the facet normals, so that <w, v> = 1 pairs the
    facets of one polytope with the vertices of the other; with this sign
    convention polar(polar(P)) == P on the nose.
    """
    if not is_reflexive(poly):
        raise ValueError("polar dual requires a reflexive polytope")
    return convex_hull([f.normal for f in poly.facets])


def normalized_volume(poly: LatticePolytope) -> int:
    """3! times the Euclidean volume, exactly.

    The boundary is fanned into triangles which are coned over the origin;
    outward orientation makes the signed determinants add up to the volume
    whether or not the origin is inside.
    """
    total = 0
    for facet in poly.facets:
        cyc = [poly.vertices[i] for i in facet.vertex_indices]
        for k in range(1, len(cyc) - 1):
            total += det3((cyc[0], cyc[k], cyc[k + 1]))
    if total <= 0:
        raise AssertionError("non-positive volume from oriented boundary")
    return total


def lattice_points(poly: LatticePolytope, dilation: int = 1, interior: bool = False) -> int:
    """Exact number of lattice points of ``dilation * poly``.

    Scans the bounding box against the facet inequalities on Python ints;
    with ``interior`` the inequalities are strict.  The cost grows with the
    box, so it depends on how the polytope is embedded.
    """
    if dilation < 0:
        raise ValueError("dilation must be nonnegative")
    columns = tuple(zip(*poly.vertices))
    shift = 1 if interior else 0
    return count_box_points(
        [f.normal for f in poly.facets],
        [f.height * dilation - shift for f in poly.facets],
        tuple(min(c) * dilation for c in columns),
        tuple(max(c) * dilation for c in columns),
    )
