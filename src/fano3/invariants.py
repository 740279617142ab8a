"""Numerical invariants of a reflexive polytope.

The degree is the normalized volume of the polar polytope, and the Hilbert
coefficients are the lattice point counts of its dilations.  Both are
constant in flat families of the associated varieties, which is what makes
them useful alongside the classification verdicts.

The degree is read off the polytope's own face lattice: the facets of the
polar are dual to the vertices of P, so its volume is a sum of determinants
of facet normals of P, and no dual hull is built.

For a reflexive polytope the polar is reflexive too, so its Ehrhart
h*-vector is (1, L - 4, L - 4, 1) with L its number of lattice points, and
the counts follow from the degree d alone:
h_m = d m (m + 1) (2 m + 1) / 12 + 2 m + 1.  No lattice points are counted.
"""

from __future__ import annotations

from .polytope import LatticePolytope, is_reflexive


def degree(poly: LatticePolytope) -> int:
    """Anticanonical degree: the normalized volume of the polar polytope."""
    if not is_reflexive(poly):
        raise ValueError("degree requires a reflexive polytope")
    return _degree(poly)


def _degree(poly: LatticePolytope) -> int:
    """``degree`` without its reflexivity check, for callers that made it.

    The polar's facet dual to a vertex v of P has the normals n_F of the
    facets F through v as its vertices, in the cyclic order of those facets
    around v.  A step v -> w of the cycle of a facet F separates F from the
    facet G on the other side of that edge, and F, G are consecutive around
    v.  So the sum of det((n_anchor(v), n_F, n_G)) over all directed edges,
    with n_anchor(v) one fixed normal at v, fans every dual facet from its
    anchor and cones it over the origin, all with one orientation; its
    absolute value is the normalized volume of the polar.  An edge (a, b)
    with facets (L, R) is the step a -> b of L and b -> a of R, so its two
    terms add up to det((n_anchor(a) - n_anchor(b), n_L, n_R)), one
    determinant per edge; the anchor at v is the left facet of its first edge.
    """
    facets = poly.facets
    anchor = {}
    total = 0
    for (a, b), (l, r) in zip(poly.edges, poly.facet_adjacency):
        fl = facets[l].normal
        (ax, ay, az), (bx, by, bz) = anchor.setdefault(a, fl), anchor.setdefault(b, fl)
        (fx, fy, fz), (gx, gy, gz) = fl, facets[r].normal
        x, y, z = ax - bx, ay - by, az - bz
        total += x * (fy * gz - fz * gy) - y * (fx * gz - fz * gx) + z * (fx * gy - fy * gx)
    return abs(total)


def hilbert_from_degree(deg: int, m_max: int) -> list[int]:
    """h_0..h_{m_max} of a reflexive polytope of degree ``deg``.

    The degree equals 2 L - 6, so it is even and every term is an integer.
    """
    return [deg * m * (m + 1) * (2 * m + 1) // 12 + 2 * m + 1 for m in range(m_max + 1)]


def hilbert_prefix(poly: LatticePolytope, m_max: int) -> list[int]:
    """Coefficients h_0..h_{m_max} of the Hilbert series.

    h_m is the number of lattice points of the m-th dilation of the polar
    polytope, which is the dimension of the space of global sections of the
    m-th anticanonical power on the associated variety.  It comes from the
    degree through ``hilbert_from_degree``, so the cost does not depend on
    the embedding.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    if not is_reflexive(poly):
        raise ValueError("hilbert coefficients require a reflexive polytope")
    return hilbert_from_degree(_degree(poly), m_max)
