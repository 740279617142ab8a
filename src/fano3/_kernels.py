"""Lattice point counting by a column scan on Python ints.

The scan walks the (x, y) range of the bounding box and, for each column,
clips the z interval against the facet inequalities A @ p <= b with exact
integer floor divisions, so the work is quadratic in the box size rather
than cubic.  Python ints never overflow, so the count is exact for any
coordinate magnitude.  Classification counts no points (its Hilbert
coefficients come from the degree); this path serves ``lattice_points``
and the checks built on it.
"""

from __future__ import annotations


def default_backend() -> str:
    """Name of the counting path, as reported by the benchmark."""
    return "python"


def count_box_points(normals, bounds, lo, hi) -> int:
    """Number of integer points p with lo <= p <= hi and normals @ p <= bounds.

    ``normals`` is a sequence of integer 3-vectors, ``bounds`` the matching
    right-hand sides.  Exact for integers of any size.
    """
    normals = [tuple(int(c) for c in n) for n in normals]
    bounds = [int(b) for b in bounds]
    lo = tuple(int(c) for c in lo)
    hi = tuple(int(c) for c in hi)
    count = 0
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            zlo, zhi = lo[2], hi[2]
            feasible = True
            for (a, b, c), bound in zip(normals, bounds):
                rest = bound - a * x - b * y
                if c == 0:
                    if rest < 0:
                        feasible = False
                        break
                elif c > 0:
                    zhi = min(zhi, rest // c)
                else:
                    zlo = max(zlo, -(rest // (-c)))
                if zlo > zhi:
                    feasible = False
                    break
            if feasible and zlo <= zhi:
                count += zhi - zlo + 1
    return count


def list_box_points(normals, bounds, lo, hi) -> list[tuple[int, int, int]]:
    """The integer points themselves, via an exact python scan."""
    normals = [tuple(int(c) for c in n) for n in normals]
    bounds = [int(b) for b in bounds]
    out = []
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            for z in range(lo[2], hi[2] + 1):
                if all(
                    n[0] * x + n[1] * y + n[2] * z <= b
                    for n, b in zip(normals, bounds)
                ):
                    out.append((x, y, z))
    return out
