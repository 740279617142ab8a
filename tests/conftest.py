"""Shared fixtures: named polytopes and a pool of random reflexive ones."""

from __future__ import annotations

import random

import pytest

from fano3.polytope import convex_hull, is_fano, is_reflexive

# projective cone over the degree-7 del Pezzo surface: pentagon at height 1,
# apex below; the running example for most of the classification machinery
PYRAMID = (
    (1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1),
)
PENTAGON = ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1))

TETRAHEDRON = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
OCTAHEDRON = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))
CUBE = tuple((x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1))

# pyramid over a unit square: one standard-square facet, four standard triangles
NODES_FIXTURE = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (-1, -1, -2))

# two A_1-triangle facets glued along their length-2 edge, apexes pairing to 0
AFT_FIXTURE = ((1, 1, 0), (-1, 1, 0), (0, 1, 1), (0, 0, -1), (0, -1, 0))

# adjacent A_1-triangles along their long edge, but both apexes pair to -1
# against the other facet's normal: no AFT witness
NONZERO_PAIRING = ((1, 1, 0), (-1, 1, 0), (0, 1, 1), (0, -1, -1), (0, -1, 0))

# cone over an empty triangle of normalized area 3: rigid but singular
RIGID_FIXTURE = ((1, 0, 1), (0, 1, 1), (-1, -1, 1), (0, 0, -1))

NAMED_FANO = {
    "pyramid": PYRAMID,
    "tetrahedron": TETRAHEDRON,
    "octahedron": OCTAHEDRON,
    "cube": CUBE,
    "nodes": NODES_FIXTURE,
    "aft": AFT_FIXTURE,
    "rigid": RIGID_FIXTURE,
}

# Fano but not reflexive: one facet sits at height 2
NOT_REFLEXIVE = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2))
# Fano, not reflexive, with triangular facets and unitary edges, one of
# which has no integral functional equal to 1 at both ends
FANO_UNITARY_NOT_HEIGHT_ONE = ((-1, 1, -1), (-2, -1, -2), (0, 2, 1), (1, -2, 0))

POOL_SIZE = 200


def random_unimodular(rng: random.Random, size: int = 3, shears: int = 4):
    """A random GL(size, Z) matrix built from shears, swaps and sign flips."""
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]

    def shear(src, dst, k):
        for c in range(size):
            m[dst][c] += k * m[src][c]

    for _ in range(shears):
        i, j = rng.sample(range(size), 2)
        shear(i, j, rng.choice((-2, -1, 1, 2)))
        if rng.random() < 0.5:
            i, j = rng.sample(range(size), 2)
            m[i], m[j] = m[j], m[i]
        if rng.random() < 0.3:
            i = rng.randrange(size)
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def large_shear(rng: random.Random, bound: int = 300, shears: int = 3):
    """A GL(3, Z) matrix from elementary shears with factors up to ``bound``."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(shears):
        src, dst = rng.sample(range(3), 2)
        k = rng.randint(-bound, bound)
        m[dst] = [a + k * b for a, b in zip(m[dst], m[src])]
    return tuple(tuple(row) for row in m)


def apply_matrix(m, points):
    return tuple(
        tuple(sum(m[i][j] * p[j] for j in range(len(p))) for i in range(len(m)))
        for p in points
    )


def report_signature(rep):
    """The GL(3, Z)-invariant content of a classification report."""
    return (
        rep.reflexive,
        rep.smooth,
        rep.isolated_singular,
        rep.nodes,
        rep.totaro_rigid,
        rep.rigid_face_obstruction,
        rep.indec_obstruction,
        rep.aft_obstruction,
        rep.low_degree,
        len(rep.rigid_face_witnesses),
        len(rep.indec_witnesses),
        len(rep.aft_witnesses),
        rep.degree,
        rep.hilbert,
        tuple(sorted((c.kind, c.m, c.edge_lengths) for c in rep.facet_classes)),
    )


def _random_reflexive(rng: random.Random):
    """Rejection-sample a reflexive polytope from small vertex candidates."""
    while True:
        k = rng.randint(4, 9)
        pts = set()
        while len(pts) < k:
            p = (rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-1, 1))
            if p != (0, 0, 0):
                pts.add(p)
        try:
            poly = convex_hull(pts)
        except ValueError:
            continue
        if is_fano(poly) and is_reflexive(poly):
            return apply_matrix(random_unimodular(rng, shears=3), poly.vertices)


@pytest.fixture(scope="session")
def reflexive_pool():
    """Vertex sets of randomly generated reflexive polytopes (fixed seed)."""
    rng = random.Random(0x5E3D)
    return [_random_reflexive(rng) for _ in range(POOL_SIZE)]
