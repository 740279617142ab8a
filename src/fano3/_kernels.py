"""Lattice point scan by columns on Python ints.

The scan walks the (x, y) range of the bounding box and, for each column,
clips the z interval against the facet inequalities A @ p <= b with exact
integer floor divisions, so the work is quadratic in the box size rather
than cubic.  Python ints never overflow, so the scan is exact for any
coordinate magnitude.  One column generator serves both the point count and
the point list.  Classification counts no points (its Hilbert coefficients
come from the degree); this path serves ``lattice_points``,
``lattice_point_list`` and the checks built on them.
"""

from __future__ import annotations


def default_backend() -> str:
    """Name of the counting path, as reported by the benchmark."""
    return "python"


def box_columns(normals, bounds, lo, hi):
    """Yield (x, y, zlo, zhi) for each column of the box holding points.

    The integer points p with lo <= p <= hi and normals @ p <= bounds are
    exactly the (x, y, z) with zlo <= z <= zhi over the yielded columns.
    ``normals`` is a nonempty sequence of 3-vectors, ``bounds`` the matching
    right-hand sides, all of them Python ints, as ``_dilated_system`` reads
    them from the hull; nothing is coerced here.  Exact for ints of any size.
    """
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
                yield x, y, zlo, zhi


def count_box_points(normals, bounds, lo, hi) -> int:
    """Number of integer points p with lo <= p <= hi and normals @ p <= bounds."""
    return sum(zhi - zlo + 1 for _, _, zlo, zhi in box_columns(normals, bounds, lo, hi))
