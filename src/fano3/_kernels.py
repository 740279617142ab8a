"""Lattice point count by columns on Python ints.

The scan walks the (x, y) range of the bounding box and, for each column,
clips the z interval against the facet inequalities A @ p <= b with exact
integer floor divisions, so the work is quadratic in the box size rather
than cubic.  Python ints never overflow, so the count is exact for any
coordinate magnitude.  Classification counts no points (its Hilbert
coefficients come from the degree); this path serves ``lattice_points``
alone.
"""

from __future__ import annotations


def default_backend() -> str:
    """Name of the counting path, as reported by the benchmark."""
    return "python"


def count_box_points(normals, bounds, lo, hi) -> int:
    """Number of integer points p with lo <= p <= hi and normals @ p <= bounds.

    ``normals`` is a nonempty sequence of 3-vectors, ``bounds`` the matching
    right-hand sides, all of them Python ints, as ``lattice_points`` reads
    them from the hull; nothing is coerced here.  Exact for ints of any size.
    """
    count = 0
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            zlo, zhi = lo[2], hi[2]
            for (a, b, c), bound in zip(normals, bounds):
                rest = bound - a * x - b * y
                if c == 0:
                    if rest < 0:
                        break
                elif c > 0:
                    zhi = min(zhi, rest // c)
                else:
                    zlo = max(zlo, -(rest // (-c)))
                if zlo > zhi:
                    break
            else:
                count += zhi - zlo + 1
    return count
