"""Seeded workload inputs, generated without the package under test.

The records follow the pool sampler of ``tests/conftest.py``: vertex sets
drawn from {-1, 0, 1}^3 until the hull is reflexive, each shuffled by a
small random GL(3, Z) move.  The polar of every pool member is added, so the
set is closed under duality like the 4319-polytope list and also holds the
larger, decomposable facets the pool alone lacks.  The moved workload
applies one further seeded GL(3, Z) matrix of six shears to every record.
A move whose record would need more than MOVE_CELL_CAP cells in the
bounding box of 5 * P° (the box the Hilbert scan covers) is redrawn.  The
cap sits near the 90th percentile of uncapped moves: it keeps the slowest
records, which set the p99 latency, of one size on every seed, while the
moved records still cost several times the unmoved ones.

Hulls, reflexivity and polars are computed here by brute force over vertex
triples, so the inputs of a seed never change with the code they measure.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from math import gcd

POOL_SIZE = 300  # 600 records with the polars: enough distinct ones for a steady p99
POOL_SHEARS = 3
MOVE_SHEARS = 6
HILBERT_M = 5
MOVE_CELL_CAP = 12_000_000


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def brute_facets(points) -> dict[tuple[int, int, int], int]:
    """Supporting planes {<n, x> = h} of conv(points): primitive outward n -> h.

    Empty when the points do not span R^3.
    """
    return dict(_brute_facets(tuple(dict.fromkeys(tuple(p) for p in points))))


def uncached_facets(points: tuple) -> tuple:
    """brute_facets as (normal, height) pairs, computed afresh every call."""
    facets = {}
    for a, b, c in combinations(points, 3):
        n = _cross(_sub(b, a), _sub(c, a))
        if n == (0, 0, 0):
            continue
        g = gcd(gcd(n[0], n[1]), n[2])
        n = (n[0] // g, n[1] // g, n[2] // g)
        for nn in (n, (-n[0], -n[1], -n[2])):
            if nn in facets:
                continue
            h = _dot(nn, a)
            if all(_dot(nn, p) <= h for p in points):
                facets[nn] = h
    if facets and all(
        all(_dot(n, p) == h for p in points) for n, h in facets.items()
    ):
        return ()  # coplanar: both sides of one plane
    return tuple(facets.items())


_brute_facets = lru_cache(maxsize=4096)(uncached_facets)


def hull_vertices(points, facets) -> tuple[tuple[int, int, int], ...]:
    """The points of conv(points) at which facet normals of rank 3 meet, sorted."""
    out = []
    for p in dict.fromkeys(tuple(q) for q in points):
        normals = [n for n, h in facets.items() if _dot(n, p) == h]
        if any(
            _dot(_cross(u, v), w) != 0 for u, v, w in combinations(normals, 3)
        ):
            out.append(p)
    return tuple(sorted(out))


def is_reflexive_facets(facets) -> bool:
    return bool(facets) and all(h == 1 for h in facets.values())


def random_unimodular(rng: random.Random, shears: int):
    """A random GL(3, Z) matrix from shears, row swaps and sign flips."""
    m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(shears):
        i, j = rng.sample(range(3), 2)
        k = rng.choice((-2, -1, 1, 2))
        for c in range(3):
            m[j][c] += k * m[i][c]
        if rng.random() < 0.5:
            i, j = rng.sample(range(3), 2)
            m[i], m[j] = m[j], m[i]
        if rng.random() < 0.3:
            i = rng.randrange(3)
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def apply_matrix(m, points):
    return tuple(
        tuple(sum(m[i][j] * p[j] for j in range(3)) for i in range(3)) for p in points
    )


def _random_reflexive(rng: random.Random):
    while True:
        k = rng.randint(4, 9)
        pts = set()
        while len(pts) < k:
            p = (rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-1, 1))
            if p != (0, 0, 0):
                pts.add(p)
        facets = brute_facets(sorted(pts))
        if is_reflexive_facets(facets):
            verts = hull_vertices(sorted(pts), facets)
            return apply_matrix(random_unimodular(rng, POOL_SHEARS), verts)


def pool_records(seed: int) -> list[tuple[tuple[int, int, int], ...]]:
    """Vertex tuples of the pool and of the polar of every pool member.

    Record i + 1 is pool member i; record POOL_SIZE + i + 1 is its polar,
    whose vertices are the member's facet normals.
    """
    rng = random.Random(f"fano3-pool/{seed}")
    pool = [_random_reflexive(rng) for _ in range(POOL_SIZE)]
    polars = [tuple(sorted(brute_facets(p))) for p in pool]
    return pool + polars


def moved_records(seed: int, records):
    """Each record moved by its own seeded GL(3, Z) matrix of six shears."""
    rng = random.Random(f"fano3-moved/{seed}")
    out = []
    for verts in records:
        while True:
            moved = apply_matrix(random_unimodular(rng, MOVE_SHEARS), verts)
            if dual_box_cells(brute_facets(moved)) <= MOVE_CELL_CAP:
                break
        out.append(moved)
    return out


def to_palp(records) -> str:
    """PALP text: a ``3 n`` header and the vertices as columns, per record."""
    lines = []
    for verts in records:
        lines.append(f"3 {len(verts)}")
        for axis in range(3):
            lines.append(" ".join(str(v[axis]) for v in verts))
    return "\n".join(lines) + "\n"


def dual_box_cells(facets, m: int = HILBERT_M) -> int:
    """Cells of the bounding box of m * P°, given the facets of P.

    The facet normals of a reflexive P are the vertices of P°, so this is
    the box the Hilbert scan of P covers at dilation m.
    """
    cells = 1
    for axis in range(3):
        values = [n[axis] for n in facets]
        cells *= m * (max(values) - min(values)) + 1
    return cells


def input_facts(records) -> dict:
    """Facts about a record set that a change's effect may depend on."""
    facets = [brute_facets(r) for r in records]
    return {
        "records": len(records),
        "max_abs_coordinate": max(abs(c) for r in records for v in r for c in v),
        "total_facets": sum(len(f) for f in facets),
        "sum_dual_box_cells_m5": sum(dual_box_cells(f) for f in facets),
    }
