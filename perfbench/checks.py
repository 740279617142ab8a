"""Output checks that do not trust the code under test.

Every check reads the bytes the program wrote (report JSON or list JSON),
never its in-memory objects, and returns a list of failure messages.  The
lattice point oracle scans boxes with the benchmark's own facet finder and
never calls ``fano3._kernels``.
"""

from __future__ import annotations

import random

from inputs import brute_facets, dual_box_cells

LIST_NAMES = ("L_smooth", "L_isol", "L_nodes", "L_low", "L_indec", "L_aft")
LIST_FLAGS = (
    ("L_smooth", "smooth"),
    ("L_isol", "isolated_singular"),
    ("L_nodes", "nodes"),
    ("L_low", "low_degree"),
    ("L_indec", "indec_obstruction"),
    ("L_aft", "aft_obstruction"),
)
ORACLE_SAMPLE = 24
ORACLE_MAX_CELLS = 50_000


def invariant_content(row: dict) -> tuple:
    """The GL(3, Z)-invariant content of one report: no facet indices."""
    return (
        row["reflexive"],
        row["smooth"],
        row["isolated_singular"],
        row["nodes"],
        row["totaro_rigid"],
        row["rigid_face_obstruction"],
        row["indec_obstruction"],
        row["aft_obstruction"],
        row["low_degree"],
        len(row["rigid_face_witnesses"]),
        len(row["indec_witnesses"]),
        len(row["aft_witnesses"]),
        row["degree"],
        tuple(row["hilbert"]) if row["hilbert"] is not None else None,
        tuple(sorted(row["facet_classes"])),
    )


def check_invariance(base_rows, moved_rows) -> list[str]:
    """(a) Per id, moved reports carry the invariant content of unmoved ones."""
    base = {row["id"]: invariant_content(row) for row in base_rows}
    moved = {row["id"]: invariant_content(row) for row in moved_rows}
    if base.keys() != moved.keys():
        return [f"invariance: id sets differ ({len(base)} vs {len(moved)} ids)"]
    return [
        f"invariance: polytope {pid} changed under its GL(3, Z) move"
        for pid in sorted(base)
        if base[pid] != moved[pid]
    ]


def check_third_difference(rows) -> list[str]:
    """(b) h_m - 3h_{m-1} + 3h_{m-2} - h_{m-3} = degree for m = 3..5, h_0 = 1."""
    failures = []
    for row in rows:
        h, deg = row["hilbert"], row["degree"]
        if h is None or len(h) != 6 or h[0] != 1:
            failures.append(f"hilbert: polytope {row['id']} has hilbert {h}")
            continue
        for m in range(3, 6):
            if h[m] - 3 * h[m - 1] + 3 * h[m - 2] - h[m - 3] != deg:
                failures.append(f"hilbert: polytope {row['id']} third difference at m={m} != degree {deg}")
    return failures


def dual_lattice_points(verts) -> int:
    """|P° ∩ Z^3| for P = conv(verts), by scanning the box of P°.

    P° = {u : <u, v> <= 1 for every vertex v of P}; its vertices are the
    facet normals of P, which bound the scanned box.
    """
    normals = list(brute_facets(verts))
    lo = [min(n[a] for n in normals) for a in range(3)]
    hi = [max(n[a] for n in normals) for a in range(3)]
    count = 0
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            for z in range(lo[2], hi[2] + 1):
                if all(x * v[0] + y * v[1] + z * v[2] <= 1 for v in verts):
                    count += 1
    return count


def check_h1(rows, records, seed: int) -> list[str]:
    """(c) h_1 equals the oracle count of P° ∩ Z^3 on a seeded record sample.

    ``records`` maps id -> vertices; only records whose box of P° has at
    most ORACLE_MAX_CELLS cells are eligible, to bound the scan.
    """
    eligible = sorted(
        pid for pid, verts in records.items()
        if dual_box_cells(brute_facets(verts), m=1) <= ORACLE_MAX_CELLS
    )
    sample = random.Random(f"fano3-oracle/{seed}").sample(eligible, min(ORACLE_SAMPLE, len(eligible)))
    by_id = {row["id"]: row for row in rows}
    failures = []
    for pid in sorted(sample):
        expected = dual_lattice_points(records[pid])
        got = by_id[pid]["hilbert"][1]
        if got != expected:
            failures.append(f"oracle: polytope {pid} has h_1 = {got}, box scan finds {expected}")
    if not sample:
        failures.append("oracle: no record small enough to scan")
    return failures


def lists_from_reports(rows) -> dict[str, list[int]]:
    """The six id lists, derived from report rows by the paper's definitions."""
    out = {name: [] for name in LIST_NAMES}
    for row in rows:
        if row["reflexive"]:
            for name, flag in LIST_FLAGS:
                if row[flag]:
                    out[name].append(row["id"])
    return {name: sorted(ids) for name, ids in out.items()}


def check_lists(lists_payload: dict, expected: dict[str, list[int]]) -> list[str]:
    """(d) The written lists equal the ones derived from the reports."""
    failures = [
        f"lists: {name} differs from the list derived from the reports"
        for name in LIST_NAMES
        if lists_payload.get(name) != expected[name]
    ]
    union = set(expected["L_indec"]) | set(expected["L_aft"])
    if lists_payload.get("union_indec_aft") != len(union):
        failures.append("lists: union_indec_aft is not |L_indec u L_aft|")
    return failures


def check_inclusions(lists: dict[str, list[int]], all_ids) -> list[str]:
    """(d) The inclusions of the paper's section 5 between the six lists."""
    sets = {name: set(lists[name]) for name in LIST_NAMES}
    failures = []
    if not sets["L_nodes"] <= sets["L_isol"]:
        failures.append("inclusions: L_nodes is not inside L_isol")
    if not sets["L_isol"] <= set(all_ids) - sets["L_smooth"]:
        failures.append("inclusions: L_isol meets L_smooth")
    if (sets["L_indec"] | sets["L_aft"]) & (sets["L_smooth"] | sets["L_nodes"] | sets["L_low"]):
        failures.append("inclusions: an obstructed polytope is in a smoothable list")
    return failures
