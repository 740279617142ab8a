"""Lifting a Minkowski decomposition to a higher-dimensional cone.

A decomposition F = D_0 + ... + D_r of a lattice polygon induces a cone in
Z^2 + Z^(r+1): every vertex v of the summand D_k contributes the ray (v; e_k).
Specialising to the trivial decomposition (r = 0) recovers the cone over
F x {1}.  Only the ray data is produced here; the toric varieties these cones
define are outside the scope of this package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polygon import LatticePolygon, MinkowskiDecomposition


@dataclass(frozen=True)
class LiftedCone:
    """Rays of the lifted cone; the e-block of each names its summand."""

    rays: tuple[tuple[int, ...], ...]


def minkowski_lift(poly: LatticePolygon, dec: MinkowskiDecomposition) -> LiftedCone:
    """Build the lifted cone of a decomposition of ``poly``.

    Rays are emitted summand by summand, each summand's vertices in their
    boundary order.  Every ray carries a unit vector in its e-block, so all
    rays are primitive by construction.
    """
    lengths = tuple(length for _, length in poly.edges)
    totals = [0] * len(lengths)
    for assignment in dec.assignments:
        if len(assignment) != len(lengths):
            raise ValueError("decomposition does not match the polygon")
        for i, a in enumerate(assignment):
            totals[i] += a
    if tuple(totals) != lengths:
        raise ValueError("summands do not add up to the polygon")

    r1 = len(dec.summands)
    rays = []
    for k, summand in enumerate(dec.summands):
        block = tuple(1 if j == k else 0 for j in range(r1))
        for v in summand.vertices:
            rays.append((v[0], v[1]) + block)
    return LiftedCone(rays=tuple(rays))
