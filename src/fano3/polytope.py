"""Lattice polytopes in Z^3: hull, face lattice, polar, volume, point counts.

All geometric predicates are exact 3x3 integer determinants; there is no
floating point and no epsilon anywhere.  Inputs are small (a few dozen
vertices), so the hull is built by straightforward incremental insertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ._kernels import count_box_points, list_box_points
from .intlinalg import (
    Vec,
    cross,
    det3,
    dot,
    is_primitive,
    primitive_part,
    vsub,
)
from .polygon import convex_hull_2d


class DegenerateInputError(ValueError):
    """Raised when hull input does not span all of R^3."""


@dataclass(frozen=True)
class Facet:
    """A facet with its cyclically ordered vertices and supporting hyperplane.

    The normal is primitive and outward: <normal, v> = height on the facet
    and < height on the rest of the polytope.  The vertex cycle is
    counterclockwise as seen from outside.
    """

    vertex_indices: tuple[int, ...]
    normal: Vec
    height: int


@dataclass(frozen=True)
class LatticePolytope:
    """A full-dimensional lattice polytope in Z^3.

    ``vertices`` holds exactly the hull vertices.  ``edges`` are index pairs
    (a, b) with a < b, sorted; ``facet_adjacency[i]`` is the pair of facet
    indices meeting along ``edges[i]``.
    """

    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]
    edges: tuple[tuple[int, int], ...]
    facet_adjacency: tuple[tuple[int, int], ...]

    @property
    def bounding_box(self) -> tuple[Vec, Vec]:
        lo = tuple(min(v[i] for v in self.vertices) for i in range(3))
        hi = tuple(max(v[i] for v in self.vertices) for i in range(3))
        return lo, hi

    def edge_lattice_length(self, edge_index: int) -> int:
        a, b = self.edges[edge_index]
        d = vsub(self.vertices[b], self.vertices[a])
        return gcd(gcd(abs(d[0]), abs(d[1])), abs(d[2]))

    def facet_vertices(self, facet_index: int) -> tuple[Vec, ...]:
        return tuple(self.vertices[i] for i in self.facets[facet_index].vertex_indices)


def _orient(a: Vec, b: Vec, c: Vec, d: Vec) -> int:
    """Sign of the volume of the tetrahedron (a, b, c, d)."""
    return det3((vsub(b, a), vsub(c, a), vsub(d, a)))


def _initial_simplex(points: list[Vec]) -> list[int]:
    i0 = 0
    i1 = next((j for j in range(len(points)) if points[j] != points[i0]), None)
    if i1 is None:
        raise DegenerateInputError("all points coincide")
    i2 = next(
        (
            j
            for j in range(len(points))
            if cross(vsub(points[i1], points[i0]), vsub(points[j], points[i0])) != (0, 0, 0)
        ),
        None,
    )
    if i2 is None:
        raise DegenerateInputError("points are collinear")
    i3 = next(
        (
            j
            for j in range(len(points))
            if _orient(points[i0], points[i1], points[i2], points[j]) != 0
        ),
        None,
    )
    if i3 is None:
        raise DegenerateInputError("points are coplanar, expected dimension 3")
    return [i0, i1, i2, i3]


def _hull_triangles(points: list[Vec]) -> list[tuple[int, int, int]]:
    """Triangulated boundary of the hull, triangles oriented outward.

    Incremental insertion: every remaining point that strictly sees some
    triangle tears out the visible region and is coned over the horizon.
    Points on the current hull (including ones lying inside a face plane)
    see nothing strictly and are skipped, which is correct because the hull
    only ever grows.
    """
    base = _initial_simplex(points)
    i0, i1, i2, i3 = base
    faces: dict[int, tuple[int, int, int]] = {}
    edge_owner: dict[tuple[int, int], int] = {}
    next_id = 0

    def add_face(tri: tuple[int, int, int]) -> None:
        nonlocal next_id
        faces[next_id] = tri
        for k in range(3):
            edge_owner[(tri[k], tri[(k + 1) % 3])] = next_id
        next_id += 1

    def drop_face(fid: int) -> None:
        tri = faces.pop(fid)
        for k in range(3):
            del edge_owner[(tri[k], tri[(k + 1) % 3])]

    for tri, opposite in (
        ((i0, i1, i2), i3),
        ((i0, i1, i3), i2),
        ((i0, i2, i3), i1),
        ((i1, i2, i3), i0),
    ):
        a, b, c = tri
        if _orient(points[a], points[b], points[c], points[opposite]) > 0:
            a, b, c = a, c, b
        add_face((a, b, c))

    for p in range(len(points)):
        if p in base:
            continue
        pt = points[p]
        visible = [
            fid
            for fid, (a, b, c) in faces.items()
            if _orient(points[a], points[b], points[c], pt) > 0
        ]
        if not visible:
            continue
        visible_set = set(visible)
        horizon = []
        for fid in visible:
            tri = faces[fid]
            for k in range(3):
                u, v = tri[k], tri[(k + 1) % 3]
                if edge_owner[(v, u)] not in visible_set:
                    horizon.append((u, v))
        for fid in visible:
            drop_face(fid)
        for u, v in horizon:
            add_face((u, v, p))

    return list(faces.values())


def convex_hull(points) -> LatticePolytope:
    """Convex hull of lattice points in Z^3 with its full face data.

    Coplanar hull triangles are merged into facets, facet boundaries are
    reconstructed by a 2-dimensional hull inside each supporting plane, and
    the cyclic order is fixed so the outward normal sees the cycle
    counterclockwise.  Raises DegenerateInputError when the points do not
    affinely span R^3.
    """
    pts: list[Vec] = list(dict.fromkeys(tuple(int(c) for c in p) for p in points))
    if len(pts) < 4:
        raise DegenerateInputError("need at least 4 distinct points")
    triangles = _hull_triangles(pts)

    planes: dict[tuple[Vec, int], set[int]] = {}
    for a, b, c in triangles:
        raw = cross(vsub(pts[b], pts[a]), vsub(pts[c], pts[a]))
        normal = primitive_part(raw)
        planes.setdefault((normal, dot(normal, pts[a])), set()).update((a, b, c))

    facet_data = []
    for (normal, height), members in planes.items():
        axis = max(range(3), key=lambda i: abs(normal[i]))
        keep = [i for i in range(3) if i != axis]
        flat = {(pts[m][keep[0]], pts[m][keep[1]]): m for m in members}
        cycle2 = convex_hull_2d(flat.keys()).vertices
        cycle = [flat[q] for q in cycle2]
        a, b, c = (pts[cycle[0]], pts[cycle[1]], pts[cycle[2]])
        if dot(cross(vsub(b, a), vsub(c, b)), normal) < 0:
            cycle.reverse()
        facet_data.append((normal, height, tuple(cycle)))

    used = sorted({i for _, _, cycle in facet_data for i in cycle})
    renumber = {old: new for new, old in enumerate(used)}
    vertices = tuple(pts[i] for i in used)

    facet_data.sort(key=lambda item: (item[0], item[1]))
    facets = tuple(
        Facet(
            vertex_indices=tuple(renumber[i] for i in cycle),
            normal=normal,
            height=height,
        )
        for normal, height, cycle in facet_data
    )

    edge_facets: dict[tuple[int, int], list[int]] = {}
    for fi, facet in enumerate(facets):
        cyc = facet.vertex_indices
        for k in range(len(cyc)):
            a, b = cyc[k], cyc[(k + 1) % len(cyc)]
            edge_facets.setdefault((min(a, b), max(a, b)), []).append(fi)

    edges = tuple(sorted(edge_facets))
    adjacency = []
    for edge in edges:
        owners = edge_facets[edge]
        if len(owners) != 2:
            raise AssertionError(f"edge {edge} lies on {len(owners)} facets")
        adjacency.append((min(owners), max(owners)))

    poly = LatticePolytope(
        vertices=vertices,
        facets=facets,
        edges=edges,
        facet_adjacency=tuple(adjacency),
    )
    _validate(poly)
    return poly


def _validate(poly: LatticePolytope) -> None:
    if len(poly.vertices) - len(poly.edges) + len(poly.facets) != 2:
        raise AssertionError("hull is not a 2-sphere")
    for facet in poly.facets:
        on = set(facet.vertex_indices)
        for i, v in enumerate(poly.vertices):
            value = dot(facet.normal, v)
            if i in on:
                if value != facet.height:
                    raise AssertionError("facet vertex off its own hyperplane")
            elif value >= facet.height:
                raise AssertionError("vertex on the wrong side of a facet")


def is_fano(poly: LatticePolytope) -> bool:
    """Origin strictly interior and every vertex primitive."""
    if any(f.height < 1 for f in poly.facets):
        return False
    return all(is_primitive(v) for v in poly.vertices)


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
    if dilation == 0:
        return 0 if interior else 1
    lo, hi = poly.bounding_box
    lo = tuple(c * dilation for c in lo)
    hi = tuple(c * dilation for c in hi)
    shift = 1 if interior else 0
    normals = [f.normal for f in poly.facets]
    bounds = [f.height * dilation - shift for f in poly.facets]
    return count_box_points(normals, bounds, lo, hi)


def lattice_point_list(
    poly: LatticePolytope, dilation: int = 1, interior: bool = False
) -> list[Vec]:
    """The lattice points of ``dilation * poly`` themselves (exact scan)."""
    if dilation < 0:
        raise ValueError("dilation must be nonnegative")
    if dilation == 0:
        return [] if interior else [(0, 0, 0)]
    lo, hi = poly.bounding_box
    lo = tuple(c * dilation for c in lo)
    hi = tuple(c * dilation for c in hi)
    shift = 1 if interior else 0
    normals = [f.normal for f in poly.facets]
    bounds = [f.height * dilation - shift for f in poly.facets]
    return list_box_points(normals, bounds, lo, hi)
