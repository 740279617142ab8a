"""Brute-force reference implementations used only by the tests.

Everything here is deliberately independent of the package internals: hulls
are found by trying every candidate plane, lattice points by scanning boxes
with per-point arithmetic on Python ints, volumes by Ehrhart differences,
and 2-dimensional hulls by gift wrapping.  Slow, but exact, which is the
point.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def matmul(a, b):
    """Product of two integer matrices given as tuples of row tuples."""
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _content(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def brute_facets(points):
    """All supporting planes {<n, x> = h} of conv(points), n primitive outward."""
    points = [tuple(p) for p in points]
    facets = {}
    for a, b, c in combinations(points, 3):
        n = _cross3(sub(b, a), sub(c, a))
        if n == (0, 0, 0):
            continue
        g = _content(n)
        n = tuple(x // g for x in n)
        for nn in (n, tuple(-x for x in n)):
            h = _dot(nn, a)
            if all(_dot(nn, p) <= h for p in points):
                facets[nn] = h
    return facets


def brute_vertex_set(points):
    """Hull vertices: the points outside the hull of the remaining ones."""
    pts = list(dict.fromkeys(tuple(p) for p in points))
    verts = set()
    for p in pts:
        others = [q for q in pts if q != p]
        fac = brute_facets(others)
        if not fac or not all(_dot(n, p) <= h for n, h in fac.items()):
            verts.add(p)
    return verts


def brute_count(points, m):
    """#(m * conv(points) cap Z^3) by scanning the bounding box."""
    points = [tuple(p) for p in points]
    if m == 0:
        return 1
    fac = brute_facets(points)
    lo = [min(p[i] for p in points) * m for i in range(3)]
    hi = [max(p[i] for p in points) * m for i in range(3)]
    count = 0
    for x in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if all(_dot(n, x) <= h * m for n, h in fac.items()):
            count += 1
    return count


def brute_normalized_volume(points):
    """6 * volume from the third Ehrhart difference at m = 3."""
    return (
        brute_count(points, 3)
        - 3 * brute_count(points, 2)
        + 3 * brute_count(points, 1)
        - 1
    )


def _ext_gcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0, Euclid by recursion."""
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    q, r = divmod(a, b)
    g, s, t = _ext_gcd(b, r)
    return g, t, s - q * t


def closed_form_plane_basis(n):
    """Basis (e, b1, b2) of Z^3 with det 1, <n, e> = 1 and b1 x b2 = n.

    For a primitive n = (a, b, c), write g = gcd(a, b) = s a + t b and
    1 = u g + v c; then e = (u s, u t, v), b1 = (b, -a, 0) / g and
    b2 = (c s, c t, -g).  When a = b = 0, c = +-1 and the basis is
    (0, 0, c), (c, 0, 0), (0, 1, 0).
    """
    a, b, c = n
    g, s, t = _ext_gcd(a, b)
    if g == 0:
        assert c in (1, -1)
        return (0, 0, c), (c, 0, 0), (0, 1, 0)
    one, u, v = _ext_gcd(g, c)
    assert one == 1
    return (u * s, u * t, v), (b // g, -a // g, 0), (c * s, c * t, -g)


def chart_lift(normal, height, q):
    """Chart point q lifted onto the plane <normal, p> = height.

    The lift is height*e + q0*b1 + q1*b2, with (e, b1, b2) the closed-form basis.
    """
    e, b1, b2 = closed_form_plane_basis(normal)
    return tuple(height * x + q[0] * y + q[1] * z for x, y, z in zip(e, b1, b2))


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def jarvis_hull_2d(points):
    """Convex hull of 2D points by gift wrapping, counterclockwise corners."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    start = pts[0]
    hull = [start]
    current = start
    while True:
        candidate = None
        for p in pts:
            if p == current:
                continue
            if candidate is None:
                candidate = p
                continue
            turn = _det2(sub(candidate, current), sub(p, current))
            if turn < 0 or (turn == 0 and _dot(sub(p, current), sub(p, current)) > _dot(sub(candidate, current), sub(candidate, current))):
                candidate = p
        if candidate == start:
            break
        hull.append(candidate)
        current = candidate
    return hull


def minkowski_sum_2d(vertex_sets):
    """Minkowski sum of convex polygons: pointwise sums of vertices, hulled."""
    acc = [(0, 0)]
    for vs in vertex_sets:
        acc = [(a[0] + v[0], a[1] + v[1]) for a in acc for v in vs]
    return jarvis_hull_2d(acc)


def normalize_translation(points):
    base = min(points)
    return tuple(sorted((p[0] - base[0], p[1] - base[1]) for p in points))


def polygon_lattice_points(vertices):
    """All lattice points of a convex polygon, by box scan with edge tests."""
    vs = [tuple(v) for v in vertices]
    if len(vs) == 1:
        return set(vs)
    if len(vs) == 2:
        d = sub(vs[1], vs[0])
        g = gcd(d[0], d[1])
        step = (d[0] // g, d[1] // g)
        return {(vs[0][0] + k * step[0], vs[0][1] + k * step[1]) for k in range(g + 1)}
    area2 = sum(_det2(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
    if area2 < 0:
        vs.reverse()
    lo = (min(v[0] for v in vs), min(v[1] for v in vs))
    hi = (max(v[0] for v in vs), max(v[1] for v in vs))
    out = set()
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            inside = True
            for i in range(len(vs)):
                a, b = vs[i], vs[(i + 1) % len(vs)]
                if _det2(sub(b, a), sub((x, y), a)) < 0:
                    inside = False
                    break
            if inside:
                out.add((x, y))
    return out


def agl2_equivalent(vs, ws) -> bool:
    """Whether two vertex cycles differ by an affine unimodular map of Z^2.

    Tries every rotation and both orientations of the second cycle, solving
    for the linear part from the first two edges and checking it on the rest.
    """
    vs = [tuple(v) for v in vs]
    ws = [tuple(w) for w in ws]
    if len(vs) != len(ws):
        return False
    k = len(vs)
    e1, e2 = sub(vs[1 % k], vs[0]), sub(vs[2 % k], vs[1 % k])
    dv = _det2(e1, e2)
    if dv == 0:
        raise ValueError("degenerate cycle")
    for target in (ws, ws[::-1]):
        for r in range(k):
            cyc = target[r:] + target[:r]
            f1, f2 = sub(cyc[1 % k], cyc[0]), sub(cyc[2 % k], cyc[1 % k])
            # solve M @ [e1 e2] = [f1 f2] over Q, demand an integer unimodular M
            adj = ((e2[1], -e2[0]), (-e1[1], e1[0]))
            m_num = (
                (f1[0] * adj[0][0] + f2[0] * adj[1][0], f1[0] * adj[0][1] + f2[0] * adj[1][1]),
                (f1[1] * adj[0][0] + f2[1] * adj[1][0], f1[1] * adj[0][1] + f2[1] * adj[1][1]),
            )
            if any(x % dv for row in m_num for x in row):
                continue
            m = tuple(tuple(x // dv for x in row) for row in m_num)
            if abs(_det2(m[0], m[1])) != 1:
                continue
            t = sub(cyc[0], (_dot(m[0], vs[0]), _dot(m[1], vs[0])))
            if all(
                (_dot(m[0], v) + t[0], _dot(m[1], v) + t[1]) == c
                for v, c in zip(vs, cyc)
            ):
                return True
    return False


def polygon_edges(vertices):
    """(primitive direction, lattice length) of each step around a vertex cycle.

    The length is the largest t dividing both coordinates of the step, found
    by trying every t downwards.  A segment is walked there and back; a point
    has no steps.
    """
    vs = [tuple(v) for v in vertices]
    if len(vs) == 1:
        return ()
    out = []
    for a, b in zip(vs, vs[1:] + vs[:1]):
        d = sub(b, a)
        t = next(
            t for t in range(max(abs(d[0]), abs(d[1])), 0, -1)
            if d[0] % t == 0 and d[1] % t == 0
        )
        out.append(((d[0] // t, d[1] // t), t))
    return tuple(out)
