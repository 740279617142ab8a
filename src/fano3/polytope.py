"""Lattice polytopes in Z^3: hull, face lattice, polar, volume, point count.

All geometric predicates are exact 3x3 integer determinants; there is no
floating point and no epsilon anywhere.  Inputs are small (a few dozen
vertices), so the hull is built by straightforward incremental insertion.
Each facet is read off the hull's own triangles in Z^3, and its lattice
polygon is charted only when something asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import gcd
from operator import index

from ._kernels import count_box_points
from .intlinalg import Vec, chart_rows, det3, dot
from .polygon import LatticePolygon
from .polygon import convex_hull_2d  # noqa: F401 - unused; kept so perfbench's tracer rebinds it


class DegenerateInputError(ValueError):
    """Raised when hull input does not span all of R^3."""


@dataclass(frozen=True)
class Facet:
    """A facet with its cyclically ordered vertices and supporting hyperplane.

    The normal is primitive and outward: <normal, v> = height on the facet
    and < height on the rest of the polytope.  The vertex cycle runs
    counterclockwise as seen from outside, from its smallest vertex index;
    ``points`` are its vertices in Z^3.  ``area2`` is the normalized area.
    ``polygon``, built on first access, is the facet in Z^2: the same cycle
    read in the chart of ``chart_rows``.
    """

    vertex_indices: tuple[int, ...]
    normal: Vec
    height: int
    area2: int
    points: tuple[Vec, ...] = field(compare=False, repr=False)

    @cached_property
    def polygon(self) -> LatticePolygon:
        r1, r2 = chart_rows(self.normal)
        return LatticePolygon([(dot(r1, p), dot(r2, p)) for p in self.points])


@dataclass(frozen=True)
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
        a, b = self.edges[edge_index]
        (ax, ay, az), (bx, by, bz) = self.vertices[a], self.vertices[b]
        return gcd(bx - ax, by - ay, bz - az)


def _lattice_point(p) -> Vec:
    """The point p of Z^3 as a tuple of ints; ValueError if it is not one."""
    try:
        x, y, z = p
        return (index(x), index(y), index(z))
    except (TypeError, ValueError):
        raise ValueError(f"not a point of Z^3: {p!r}") from None


def _plane(p: Vec, q: Vec, r: Vec) -> tuple[int, int, int, int]:
    """The plane (n, <n, p>) of the triangle (p, q, r), n = (q - p) x (r - p).

    <n, s> > <n, p> exactly when the tetrahedron (p, q, r, s) has positive volume.
    """
    px, py, pz = p
    ux, uy, uz = q[0] - px, q[1] - py, q[2] - pz
    vx, vy, vz = r[0] - px, r[1] - py, r[2] - pz
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return nx, ny, nz, nx * px + ny * py + nz * pz


def _initial_simplex(points: list[Vec]) -> tuple[int, int, int, int]:
    """Indices (a, b, c, d) of a simplex with d below the plane of (a, b, c).

    The triangles (a, b, c), (a, d, b), (b, d, c) and (c, d, a) are then
    its boundary, oriented outward.
    """
    # ``convex_hull`` passes at least 4 distinct points, so p0 != p1
    i0, i1 = 0, 1
    # the first point p off the line through p0 and p1: u x (p - p0) != 0
    (x0, y0, z0), (x1, y1, z1) = points[i0], points[i1]
    ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
    for i2, (x, y, z) in enumerate(points):
        x, y, z = x - x0, y - y0, z - z0
        if uy * z != uz * y or uz * x != ux * z or ux * y != uy * x:
            break
    else:
        raise DegenerateInputError("points are collinear")
    nx, ny, nz, offset = _plane(points[i0], points[i1], points[i2])
    for i3, (x, y, z) in enumerate(points):
        value = nx * x + ny * y + nz * z
        if value != offset:
            break
    else:
        raise DegenerateInputError("points are coplanar, expected dimension 3")
    if value > offset:
        i1, i2 = i2, i1
    return i0, i1, i2, i3


def _hull_triangles(points: list[Vec]) -> list[tuple[int, ...]]:
    """Triangulated boundary of the hull, triangles oriented outward.

    Incremental insertion: every remaining point that strictly sees some
    triangle tears out the visible region and is coned over the horizon.
    Points on the current hull (including ones lying inside a face plane)
    see nothing strictly and are skipped, which is correct because the hull
    only ever grows.  Each triangle (a, b, c) keeps its plane from
    ``_plane``, computed once when it is added, so a point p sees it when
    <n, p> > <n, a>.  Returns (nx, ny, nz, <n, a>, a, b, c) per triangle,
    with the raw outward normal n = (b - a) x (c - a).
    """
    base = _initial_simplex(points)
    faces: dict[int, tuple[int, ...]] = {}
    edge_owner: dict[tuple[int, int], int] = {}
    a, b, c, d = base
    for next_id, (a, b, c) in enumerate(((a, b, c), (a, d, b), (b, d, c), (c, d, a))):
        faces[next_id] = (*_plane(points[a], points[b], points[c]), a, b, c)
        edge_owner[a, b] = edge_owner[b, c] = edge_owner[c, a] = next_id

    for p, (x, y, z) in enumerate(points):
        if p in base:
            continue
        visible = [
            fid
            for fid, (nx, ny, nz, offset, _, _, _) in faces.items()
            if nx * x + ny * y + nz * z > offset
        ]
        if not visible:
            continue
        visible_set = set(visible)
        horizon = []
        for fid in visible:
            _, _, _, _, a, b, c = faces.pop(fid)
            for u, v in ((a, b), (b, c), (c, a)):
                # a step between two visible faces is read once from each side:
                # drop the other side's entry, which no live face owns
                if edge_owner[v, u] in visible_set:
                    del edge_owner[v, u]
                else:
                    horizon.append((u, v))
        # the cone over the horizon, whose steps u -> v now belong to new faces
        for u, v in horizon:
            next_id += 1
            faces[next_id] = (*_plane(points[u], points[v], points[p]), u, v, p)
            edge_owner[u, v] = edge_owner[v, p] = edge_owner[p, u] = next_id

    return list(faces.values())


def convex_hull(points) -> LatticePolytope:
    """Convex hull of lattice points in Z^3 with its full face data.

    Coplanar hull triangles are merged into facets.  The raw normal
    (b - a) x (c - a) of a triangle is g times the primitive one, g its
    normalized area, so a facet's ``area2`` is the sum of the g.  Its cycle
    is the boundary of its triangles, corners only, found in Z^3 by
    det(n, u, v) of consecutive steps, and starts at its smallest vertex
    index; no chart is built.  One map from each directed cycle step to its
    facet gives the edges and their oriented facet pairs.  Raises
    DegenerateInputError when the points do not affinely span R^3.
    """
    pts: list[Vec] = list(dict.fromkeys(_lattice_point(p) for p in points))
    if len(pts) < 4:
        raise DegenerateInputError("need at least 4 distinct points")

    # per facet plane: the normalized area, then three members per triangle
    planes: dict[tuple[Vec, int], list[int]] = {}
    for nx, ny, nz, offset, a, b, c in _hull_triangles(pts):
        g = gcd(nx, ny, nz)
        plane = planes.setdefault(((nx // g, ny // g, nz // g), offset // g), [0])
        plane[0] += g
        plane += a, b, c

    facets = []
    for (normal, height), (area2, *cycle) in sorted(planes.items()):
        # a single hull triangle is a cycle of corners already; else the steps
        # whose reverse is on no triangle of the plane make one cycle
        if len(cycle) > 3:
            a, b, c = cycle[::3], cycle[1::3], cycle[2::3]
            steps = set(zip(a + b + c, b + c + a))
            after = {u: v for u, v in steps if (v, u) not in steps}
            cycle = [start := next(iter(after))]
            while (u := after.get(cycle[-1])) != start and len(cycle) <= len(after):
                cycle.append(u)
            if len(cycle) != len(after):
                raise AssertionError("facet boundary is not one cycle")
        points = [pts[i] for i in cycle]
        if len(cycle) > 3:
            # keep the corners, which turn left as seen from outside: the steps
            # u into and v out of a corner have det(n, u, v) > 0
            nx, ny, nz = normal
            corners = []
            (ax, ay, az), (bx, by, bz) = points[-2:]
            ux, uy, uz = bx - ax, by - ay, bz - az
            for j, (cx, cy, cz) in enumerate(points):
                vx, vy, vz = cx - bx, cy - by, cz - bz
                turn = (nx * (uy * vz - uz * vy) + ny * (uz * vx - ux * vz)
                        + nz * (ux * vy - uy * vx))
                if turn < 0:
                    raise AssertionError("facet boundary turns right")
                if turn:
                    corners.append(j - 1)
                bx, by, bz, ux, uy, uz = cx, cy, cz, vx, vy, vz
            cycle, points = [cycle[j] for j in corners], [points[j] for j in corners]
        k = cycle.index(min(cycle))
        cycle, points = (*cycle[k:], *cycle[:k]), (*points[k:], *points[:k])
        facets.append(Facet(cycle, normal, height, area2, points))

    # points on no facet cycle (inside, or inside a facet or an edge) are
    # dropped; the usual input has none, and then nothing is renumbered
    used = set().union(*(f.vertex_indices for f in facets))
    if len(used) < len(pts):
        renumber = {old: new for new, old in enumerate(sorted(used))}
        for fi, f in enumerate(facets):
            facets[fi] = replace(f, vertex_indices=tuple(renumber[i] for i in f.vertex_indices))
        pts = [pts[i] for i in renumber]

    # the facet on the left of each directed edge u -> v of a facet cycle
    left: dict[tuple[int, int], int] = {}
    steps = 0
    for fi, facet in enumerate(facets):
        cycle = facet.vertex_indices
        steps += len(cycle)
        u = cycle[-1]
        for v in cycle:
            left[u, v] = fi
            u = v
    edges = tuple(sorted([(u, v) for u, v in left if u < v]))
    try:
        adjacency = tuple([(left[a, b], left[b, a]) for a, b in edges])
    except KeyError:
        raise AssertionError("hull edge on a single facet") from None
    if len(left) != steps or 2 * len(edges) != steps:
        raise AssertionError("hull edge not on exactly two facets")

    poly = LatticePolytope(
        vertices=tuple(pts),
        facets=tuple(facets),
        edges=edges,
        facet_adjacency=adjacency,
    )
    _validate(poly)
    return poly


def _validate(poly: LatticePolytope) -> None:
    if len(poly.vertices) - len(poly.edges) + len(poly.facets) != 2:
        raise AssertionError("hull is not a 2-sphere")
    for facet in poly.facets:
        (nx, ny, nz), height = facet.normal, facet.height
        on = set(facet.vertex_indices)
        for i, (x, y, z) in enumerate(poly.vertices):
            value = nx * x + ny * y + nz * z
            if i in on:
                if value != height:
                    raise AssertionError("facet vertex off its own hyperplane")
            elif value >= height:
                raise AssertionError("vertex on the wrong side of a facet")


def is_fano(poly: LatticePolytope) -> bool:
    """Origin strictly interior and every vertex primitive."""
    if any(f.height < 1 for f in poly.facets):
        return False
    return all(gcd(x, y, z) == 1 for x, y, z in poly.vertices)


def is_reflexive(poly: LatticePolytope) -> bool:
    """Fano with all facet hyperplanes at lattice height 1."""
    return is_fano(poly) and all(f.height == 1 for f in poly.facets)


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
