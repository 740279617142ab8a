"""Brute-force reference implementations used only by the tests.

Everything here is deliberately independent of the package, and imports
nothing from it: hulls are found by trying every candidate plane, lattice
points by scanning boxes with per-point arithmetic on Python ints (or, for
volumes, column by column), volumes by Ehrhart differences, and
2-dimensional hulls by gift wrapping.  ``reference_report`` builds a whole
classification from these pieces and the paper's definitions: facet classes
by AGL(2, Z) equivalence to model polygons, Minkowski indecomposability by a
search over the facet's lattice points, and height-one functionals by a
column Hermite form.  Slow, but exact, which is the point.
"""

from __future__ import annotations

import json
import re
import sys
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


def _det3(a, b, c):
    return _dot(a, _cross3(b, c))


def _lattice_length(a, b):
    """Lattice length of the segment [a, b]: the gcd of its step."""
    return _content(sub(b, a))


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
            # a normal that supports is done; one that failed through a may
            # still support through a point of another triple
            if nn in facets:
                continue
            x, y, z = nn
            h = x * a[0] + y * a[1] + z * a[2]
            if all(x * p[0] + y * p[1] + z * p[2] <= h for p in points):
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


def brute_points(points, m=1):
    """The points of m * conv(points) cap Z^3, in lexicographic order.

    Scans the bounding box point by point against ``brute_facets``.
    """
    points = [tuple(p) for p in points]
    fac = brute_facets(points)
    lo = [min(p[i] for p in points) * m for i in range(3)]
    hi = [max(p[i] for p in points) * m for i in range(3)]
    return [
        x
        for x in product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if all(_dot(n, x) <= h * m for n, h in fac.items())
    ]


def brute_count(points, m):
    """#(m * conv(points) cap Z^3), by ``brute_points``."""
    return len(brute_points(points, m))


def lattice_counts(points, top):
    """#(m * conv(points) cap Z^3) for m = 0..top, column by column.

    For each (x, y) of the bounding box of the dilation, the facet planes of
    ``brute_facets`` cut the z axis to one interval, whose integer points
    are counted by floor division.  The same counts as ``brute_count``,
    which tests every point, in time square rather than cubic in the box.
    """
    points = [tuple(p) for p in points]
    fac = list(brute_facets(points).items())
    counts = [1]
    for m in range(1, top + 1):
        lo = [min(p[i] for p in points) * m for i in range(3)]
        hi = [max(p[i] for p in points) * m for i in range(3)]
        count = 0
        for x, y in product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)):
            zlo, zhi = lo[2], hi[2]
            for (a, b, c), h in fac:
                rest = h * m - a * x - b * y
                if c > 0:
                    zhi = min(zhi, rest // c)
                elif c < 0:
                    zlo = max(zlo, -(rest // -c))
                elif rest < 0:
                    zhi = zlo - 1
            count += max(0, zhi - zlo + 1)
        counts.append(count)
    return counts


def brute_normalized_volume(points):
    """6 * volume from the third Ehrhart difference at m = 3."""
    c = lattice_counts(points, 3)
    return c[3] - 3 * c[2] + 3 * c[1] - c[0]


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


def chart_point(normal, p):
    """(q0, q1) with p = h e + q0 b1 + q1 b2, by Cramer's rule.

    (e, b1, b2) is ``closed_form_plane_basis(normal)``; its determinant is
    <e, b1 x b2> = <e, normal> = 1, so the solution is integral.
    """
    e, b1, b2 = closed_form_plane_basis(normal)
    d = _det3(e, b1, b2)
    q0, r0 = divmod(_det3(e, p, b2), d)
    q1, r1 = divmod(_det3(e, b1, p), d)
    assert r0 == r1 == 0
    return q0, q1


def _column_hermite(a, b):
    """Columns U of a unimodular matrix with (a; b) U = ((g, 0, 0), (c, d, 0)).

    Each step replaces two columns by the extended-gcd combinations that
    clear one entry of a row: first of row a, then of row b in columns 1
    and 2.  Returns (U, g, c, d).
    """
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def clear(row, i, j):
        x, y = _dot(row, cols[i]), _dot(row, cols[j])
        if y == 0:
            return
        g, s, t = _ext_gcd(x, y)
        ci, cj = cols[i], cols[j]
        cols[i] = tuple(s * u + t * v for u, v in zip(ci, cj))
        cols[j] = tuple((-y // g) * u + (x // g) * v for u, v in zip(ci, cj))

    clear(a, 0, 1)
    clear(a, 0, 2)
    clear(b, 1, 2)
    g, c, d = _dot(a, cols[0]), _dot(b, cols[0]), _dot(b, cols[1])
    assert _dot(a, cols[1]) == _dot(a, cols[2]) == _dot(b, cols[2]) == 0
    return cols, g, c, d


def edge_extends_to_basis(a, b):
    """Whether (a, b) extends to a basis of Z^3.

    The 2x2 minors of (a; b) U are g d, 0 and 0, and a unimodular U keeps
    the gcd of the minors, which is 1 exactly when the pair extends.
    """
    _, g, _, d = _column_hermite(a, b)
    return abs(g * d) == 1


def height_one_functional(a, b):
    """An integral u with <u, a> = <u, b> = 1, or None when there is none.

    With (a; b) U = ((g, 0, 0), (c, d, 0)), u = U w for w solving
    g w0 = 1 and c w0 + d w1 = 1.
    """
    cols, g, c, d = _column_hermite(a, b)
    if abs(g) != 1:
        return None
    w0 = g
    rest = 1 - c * w0
    if d == 0:
        if rest:
            return None
        w1 = 0
    else:
        w1, r = divmod(rest, d)
        if r:
            return None
    u = tuple(w0 * x + w1 * y for x, y in zip(cols[0], cols[1]))
    assert _dot(u, a) == _dot(u, b) == 1
    return u


STANDARD_TRIANGLE_2D = ((0, 0), (1, 0), (0, 1))
STANDARD_SQUARE_2D = ((0, 0), (1, 0), (1, 1), (0, 1))


def polygon_class(cycle):
    """(kind, m) of a lattice polygon, by AGL(2, Z) equivalence to a model.

    The models are the standard triangle, the standard square and the
    A_m-triangle conv((0, 0), (m + 1, 0), (0, 1)), whose normalized area is
    m + 1, so a triangle is tried against the one m its area allows.
    """
    if len(cycle) == 3:
        if agl2_equivalent(cycle, STANDARD_TRIANGLE_2D):
            return "standard_triangle", None
        m = abs(_det2(sub(cycle[1], cycle[0]), sub(cycle[2], cycle[0]))) - 1
        if agl2_equivalent(cycle, ((0, 0), (m + 1, 0), (0, 1))):
            return "am_triangle", m
    if len(cycle) == 4 and agl2_equivalent(cycle, STANDARD_SQUARE_2D):
        return "standard_square", None
    return "other", None


def is_decomposable(cycle):
    """Whether a lattice polygon is Q + R for lattice polygons Q, R, neither a point.

    Q runs over the hulls of the subsets of the polygon's lattice points
    with at least two points, up to translation, apart from translates of
    the polygon itself.  For each, R is the hull of the lattice points x
    with x + Q inside the polygon; Q is a summand exactly when Q + R is the
    polygon up to translation.  R is then no point, since Q is no translate.
    """
    points = sorted(polygon_lattice_points(cycle))
    inside = set(points)
    target = normalize_translation(cycle)
    tried = {target}
    for k in range(2, len(points) + 1):
        for subset in combinations(points, k):
            q = jarvis_hull_2d(subset)
            key = normalize_translation(q)
            if key in tried:
                continue
            tried.add(key)
            shifts = [sub(p, q[0]) for p in points]
            rest = [
                x for x in shifts
                if all((x[0] + v[0], x[1] + v[1]) in inside for v in q)
            ]
            r = jarvis_hull_2d(rest)
            if normalize_translation(minkowski_sum_2d([q, r])) == target:
                return True
    return False


LOW_DEGREES = (4, 6, 8, 10, 12)


def reference_report(points):
    """Every verdict of a Fano polytope's report, from its vertex list alone.

    Facets come from ``brute_facets``, each charted by ``chart_point`` and
    ordered by ``jarvis_hull_2d``.  Facets, witnesses and facet pairs are
    named by their vertex sets, so the result does not depend on any facet
    order.  The reflexive-only entries are None, or empty, on a polytope
    that is Fano but not reflexive.  ``hilbert`` holds h_0..h_3, the lattice
    point counts of the polar's dilations, whose third difference is the
    degree.
    """
    points = [tuple(p) for p in points]
    planes = brute_facets(points)
    reflexive = all(h == 1 for h in planes.values())
    facets = {}  # vertex set -> (normal, chart cycle, class)
    for normal, h in planes.items():
        lift = {chart_point(normal, p): p for p in points if _dot(normal, p) == h}
        cycle = jarvis_hull_2d(lift)
        facets[frozenset(lift[q] for q in cycle)] = (normal, cycle, polygon_class(cycle))
    kinds = {cls[0] for _, _, cls in facets.values()}
    # two facets meet in an edge exactly when they share two vertices
    edges = {}
    for f, g in combinations(facets, 2):
        if len(f & g) == 2:
            edges[f & g] = (f, g)
    unitary_edges = all(_lattice_length(*edge) == 1 for edge in edges)
    totaro = all(len(f) == 3 for f in facets) and all(
        _lattice_length(*edge) == 1 and height_one_functional(*edge) is not None
        for edge in edges
    )
    rigid = {
        f for f in facets
        if len(f) == 3 and abs(_det3(*f)) != 1
        and all(edge_extends_to_basis(*edge) for edge in combinations(f, 2))
    }
    ref = {
        "reflexive": reflexive,
        "facet_classes": {f: cls for f, (_, _, cls) in facets.items()},
        "totaro_rigid": totaro,
        "rigid_face_obstruction": bool(rigid),
        "rigid_face_witnesses": rigid,
        "smooth": None,
        "isolated_singular": None,
        "nodes": None,
        "indec_obstruction": None,
        "aft_obstruction": None,
        "low_degree": None,
        "indec_witnesses": set(),
        "aft_witnesses": set(),
        "degree": None,
        "hilbert": None,
    }
    if not reflexive:
        return ref

    indec = set()
    for f, (_, cycle, cls) in facets.items():
        steps = zip(cycle, cycle[1:] + cycle[:1])
        if cls[0] != "standard_triangle" and all(_lattice_length(a, b) == 1 for a, b in steps):
            if not is_decomposable(cycle):
                indec.add(f)
    aft = set()
    for edge, (f, g) in edges.items():
        (kf, mf), (kg, mg) = facets[f][2], facets[g][2]
        if kf != "am_triangle" or kg != "am_triangle" or mf != mg:
            continue
        if _lattice_length(*edge) != mf + 1:
            continue
        (apex_f,), (apex_g,) = f - edge, g - edge
        if _dot(facets[g][0], apex_f) == 0 or _dot(facets[f][0], apex_g) == 0:
            aft.add(frozenset((f, g)))
    polar = list(planes)
    degree = brute_normalized_volume(polar)
    smooth = kinds == {"standard_triangle"}
    ref.update(
        smooth=smooth,
        isolated_singular=unitary_edges and not smooth,
        nodes="standard_square" in kinds
        and kinds <= {"standard_triangle", "standard_square"},
        indec_obstruction=bool(indec),
        aft_obstruction=bool(aft),
        low_degree=degree in LOW_DEGREES,
        indec_witnesses=indec,
        aft_witnesses=aft,
        degree=degree,
        hilbert=tuple(lattice_counts(polar, 3)),
    )
    return ref


_PALP_INTEGER = re.compile("[+-]?[0-9]+")  # [0-9], not \d: ASCII digits only


def _palp_integer(token):
    """The value of a PALP integer, an optional sign and ASCII digits; else None.

    It has at most ``sys.get_int_max_str_digits()`` digits, Python's limit
    on converting a string to an int (4300 unless set otherwise).
    """
    if not _PALP_INTEGER.fullmatch(token):
        return None
    digits = token.lstrip("+-")
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and len(digits) > limit:
        return None
    # int() on chunks of ASCII digits, each far below its digit limit
    value = 0
    for k in range(0, len(digits), 1000):
        chunk = digits[k:k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if token[0] == "-" else value


def read_palp(text):
    """The records of a PALP text as (id, vertices) pairs, or None if it is malformed.

    Written from the README's format section: a block is a header line ``r
    c`` (extra header tokens ignored) followed by an r x c integer matrix,
    one row per line; the vertices are the columns when r = 3 and the rows
    when c = 3.  Lines end at "\\n", "\\r\\n" or "\\r", and at no other
    character; a byte-order mark may start any line and is dropped; tokens
    are the runs of non-whitespace characters, and a line without tokens is
    skipped.  Records are numbered 1, 2, ... in order.
    """
    lines = []
    for line in re.split("\r\n|\r|\n", text):
        if line.startswith("\ufeff"):
            line = line[1:]
        tokens = re.findall(r"\S+", line)  # \s: what str.isspace() calls whitespace
        if tokens:
            lines.append(tokens)
    records, pos = [], 0
    while pos < len(lines):
        header = lines[pos]
        if len(header) < 2:
            return None
        r, c = _palp_integer(header[0]), _palp_integer(header[1])
        if r is None or c is None or r < 1 or c < 1 or 3 not in (r, c):
            return None
        rows = lines[pos + 1:pos + 1 + r]
        if len(rows) < r or any(len(row) != c for row in rows):
            return None
        matrix = [[_palp_integer(t) for t in row] for row in rows]
        if any(x is None for row in matrix for x in row):
            return None
        vertices = tuple(zip(*matrix)) if r == 3 else tuple(tuple(row) for row in matrix)
        records.append((len(records) + 1, vertices))
        pos += 1 + r
    return records


def json_record_fault(entry):
    """What breaks the README's rules in one record of a JSON database, or None.

    "object" (not a JSON object), "keys" (no "id" or no "vertices" key),
    "id" (not a JSON integer), "vertices" (not a nonempty array of arrays of
    three) or "coordinates" (one not a JSON integer), the first that applies
    in this order.  ``json`` reads JSON integers as ints; a float, a string or
    a bool is none.
    """
    if type(entry) is not dict:
        return "object"
    if "id" not in entry or "vertices" not in entry:
        return "keys"
    if type(entry["id"]) is not int:
        return "id"
    vertices = entry["vertices"]
    if type(vertices) is not list or not vertices:
        return "vertices"
    if any(type(v) is not list or len(v) != 3 for v in vertices):
        return "vertices"
    if any(type(x) is not int for v in vertices for x in v):
        return "coordinates"
    return None


def load_json_db(text):
    """The JSON value of a database or expected-lists text, after an optional
    leading byte-order mark, or None if it is not JSON."""
    try:
        return json.loads(text[1:] if text.startswith("\ufeff") else text)
    except (ValueError, RecursionError):  # not JSON, an int over the digit limit, nesting
        return None


def read_json_db(text):
    """The records of a JSON database text as (id, vertices) pairs, or None if it is malformed.

    Written from the README's format section: the text, read by
    ``load_json_db``, is a JSON array of records without a
    ``json_record_fault``, and their ids are distinct; other keys are ignored.
    """
    data = load_json_db(text)
    if type(data) is not list or any(map(json_record_fault, data)):
        return None
    records = [(entry["id"], tuple(map(tuple, entry["vertices"]))) for entry in data]
    return records if len({pid for pid, _ in records}) == len(records) else None


LIST_NAMES = ("L_smooth", "L_isol", "L_nodes", "L_low", "L_indec", "L_aft")
UNION_KEY = "union_indec_aft"


def expected_lists_fault(data):
    """What breaks the README's rules in the JSON value of an expected-lists file, or None.

    ("object", None) when it is no JSON object; else, for its first faulty
    entry in the object's order, ("union", key) when ``union_indec_aft`` is
    no JSON integer, ("name", key) for a key that is none of the six list
    names, or ("ids", key) for a list that is no array of JSON integers.
    """
    if type(data) is not dict:
        return "object", None
    for key, value in data.items():
        if key == UNION_KEY:
            if type(value) is not int:
                return "union", key
        elif key not in LIST_NAMES:
            return "name", key
        elif type(value) is not list or any(type(i) is not int for i in value):
            return "ids", key
    return None


def read_expected_lists(text):
    """The lists of an expected-lists text, or None if it is malformed.

    Written from the README's format section: the text, read by
    ``load_json_db``, is a JSON object that maps any of the six list names
    to arrays of ids, which are JSON integers, and may hold
    ``union_indec_aft``, a JSON integer; it has no other key.  Returns each
    list present as a frozenset of its ids, and the union size if given.
    """
    data = load_json_db(text)
    if expected_lists_fault(data):
        return None
    return {key: value if key == UNION_KEY else frozenset(value) for key, value in data.items()}
