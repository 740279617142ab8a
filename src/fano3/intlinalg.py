"""Exact integer linear algebra on small vectors and matrices.

Everything in this module works on plain Python integers, so all results are
exact no matter how large the entries get.  Vectors are tuples of ints and
matrices are tuples of row tuples.  Sizes are tiny (rank at most 3 or 4), so
the classical algorithms are used throughout with no attempt at optimisation.
"""

from __future__ import annotations

from math import gcd

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


def cross(a: Vec, b: Vec) -> Vec:
    """Cross product of two vectors in Z^3."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def content(v: Vec) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive_part(v: Vec) -> Vec:
    """v divided by the gcd of its entries."""
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(x // g for x in v)


def is_primitive(v: Vec) -> bool:
    """True if the entries of the nonzero vector v are coprime."""
    g = content(v)
    if g == 0:
        raise ValueError("zero vector is neither primitive nor imprimitive")
    return g == 1


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0, by the Euclidean algorithm."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def plane_basis(n: Vec) -> tuple[Vec, Vec, Vec]:
    """Basis (e, b1, b2) of Z^3 with det 1, <n, e> = 1 and <n, b1> = <n, b2> = 0.

    For a primitive n = (a, b, c), write g = gcd(a, b) = s a + t b and
    1 = u g + v c; then e = (u s, u t, v), b1 = (b, -a, 0) / g and
    b2 = (c s, c t, -g).  So b1, b2 span the plane lattice n^perp, and
    b1 x b2 = n.  When a = b = 0 the basis is read off c = +-1 directly.
    """
    a, b, c = n
    g, s, t = ext_gcd(a, b)
    if g == 0:
        if c not in (1, -1):
            raise ValueError(f"normal {n} is not primitive")
        return (0, 0, c), (c, 0, 0), (0, 1, 0)
    one, u, v = ext_gcd(g, c)
    if one != 1:
        raise ValueError(f"normal {n} is not primitive")
    return (u * s, u * t, v), (b // g, -a // g, 0), (c * s, c * t, -g)


def det2(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def det3(m: Mat) -> int:
    """Determinant of a 3x3 integer matrix, by cofactor expansion."""
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise ValueError("det3 expects a 3x3 matrix")
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det(m: Mat) -> int:
    """Determinant of a small square matrix (cofactor expansion)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n == 1:
        return m[0][0]
    if n == 2:
        return det2(m[0], m[1])
    total = 0
    sign = 1
    for j in range(n):
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in m[1:])
        total += sign * m[0][j] * det(minor)
        sign = -sign
    return total


def matmul(a: Mat, b: Mat) -> Mat:
    cols = len(b[0])
    if any(len(row) != len(b) for row in a):
        raise ValueError("matrix shapes do not match")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for i in range(len(a))
    )


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def inverse_unimodular(m: Mat) -> Mat:
    """Exact inverse of a square integer matrix with determinant +-1."""
    n = len(m)
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {d})")
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(m[r][c] for c in range(n) if c != i)
                for r in range(n)
                if r != j
            )
            row.append((-1) ** (i + j) * det(minor) * d)
        adj.append(tuple(row))
    return tuple(adj)


def smith_normal_form(m: Mat) -> tuple[list[int], Mat, Mat]:
    """Smith normal form of an integer matrix.

    Returns (diag, left, right) where left @ m @ right is diagonal with
    nonnegative entries d_1 | d_2 | ... and the transforms are unimodular.
    The classical gcd row/column reduction; matrix sizes here never exceed
    a handful of rows, so nothing clever is needed.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("matrix is not rectangular")
    a = [list(row) for row in m]
    left = [list(row) for row in identity(rows)]
    right = [list(row) for row in identity(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        for c in range(cols):
            a[dst][c] += k * a[src][c]
        for c in range(rows):
            left[dst][c] += k * left[src][c]

    def add_col(src, dst, k):
        for row in a:
            row[dst] += k * row[src]
        for row in right:
            row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    while t < min(rows, cols):
        # pick the nonzero entry of smallest magnitude in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # reduce until the pivot divides its whole row and column and the
        # rest of them is zero; remainders shrink, so this terminates
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = [a[i][i] for i in range(min(rows, cols))]
    return diag, tuple(tuple(r) for r in left), tuple(tuple(r) for r in right)


def extends_to_basis(vs: tuple[Vec, ...] | list[Vec]) -> bool:
    """Whether the given vectors can be completed to a basis of Z^n.

    Decided by the elementary divisors: the k x n matrix of the vectors must
    have Smith normal form with k ones on the diagonal.
    """
    vs = tuple(vs)
    if not vs:
        raise ValueError("need at least one vector")
    n = len(vs[0])
    if len(vs) > n:
        raise ValueError(f"{len(vs)} vectors can not be part of a basis of Z^{n}")
    diag, _, _ = smith_normal_form(vs)
    return all(d == 1 for d in diag)


def solve_height_one(v1: Vec, v2: Vec) -> Vec | None:
    """Some w in the dual lattice with <w, v1> = <w, v2> = 1, if one exists.

    Solves the 2 x 3 system exactly through the Smith normal form; any single
    witness is returned, or None when there is no integral solution.
    """
    system = (tuple(v1), tuple(v2))
    diag, left, right = smith_normal_form(system)
    target = matvec(left, (1, 1))
    y = [0] * len(v1)
    for i, d in enumerate(diag):
        if d == 0:
            if target[i] != 0:
                return None
        else:
            if target[i] % d != 0:
                return None
            y[i] = target[i] // d
    w = matvec(right, tuple(y))
    return w
