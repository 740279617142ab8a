"""Process CPU per pass of each stage of the benchmark's per-record path.

Usage, from the repository root:

    python3 tools/stage_times.py --workload W [--seed N] [--repeat R]

W is a workload of perfbench/run.py, or ``all`` for each in turn.  The
script imports perfbench/inputs.py and perfbench/run.py unchanged, builds
the workload's seeded PALP text as the benchmark does, and runs R passes
over it in this process.  A pass times each stage over all records in
turn: ``db.parse_palp`` on the text, ``polytope.convex_hull`` on every
record, ``criteria.classify`` on every hull at the workload's ``m_max``,
freeing the polytopes, and, on the classify workloads,
``db.write_reports``.  It prints the best of the R passes of each stage,
in milliseconds of process CPU, with its share of the pass total, and
then that total: the sum of the stages' bests.  Delete this script once
the package has its own stage timer (ROADMAP item 19).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402


def stage_times(pkg, workload, seed: int, repeat: int) -> dict[str, float]:
    """Best-of-``repeat`` process CPU seconds per pass of each stage of one workload."""
    db, convex_hull, classify = pkg["db"], pkg["polytope"].convex_hull, pkg["criteria"].classify
    workdir = run.OUT / f"{workload.name}-seed{seed}-stages"
    workdir.mkdir(parents=True, exist_ok=True)
    pool = inputs.pool_records(seed)
    text = inputs.to_palp(inputs.moved_records(seed, pool) if workload.moved else pool)
    out = workdir / "reports.json"
    best: dict[str, float] = {}

    def timed(stage, fn, *args):
        start = process_time()
        result = fn(*args)
        elapsed = process_time() - start
        best[stage] = min(best.get(stage, elapsed), elapsed)
        return result

    for _ in range(repeat):
        records = timed("parse_palp", db.parse_palp, text)
        polys = timed("convex_hull", lambda: [convex_hull(rec.vertices) for rec in records])
        reports = timed("classify", lambda: [
            classify(poly, polytope_id=rec.id, m_max=workload.m_max)
            for rec, poly in zip(records, polys)
        ])
        timed("free polytopes", polys.clear)
        if not workload.lists:
            timed("write_reports", db.write_reports, reports, out)
    total = sum(best.values())
    print(f"{workload.name} seed {seed}: {len(records)} records, m_max {workload.m_max},"
          f" best of {repeat} passes, ms of process CPU per pass")
    for stage, seconds in best.items():
        print(f"  {stage:16s} {1e3 * seconds:8.2f} {100 * seconds / total:5.1f}%")
    print(f"  {'total':16s} {1e3 * total:8.2f}")
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*run.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--repeat", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    pkg = run.load_package()
    names = list(run.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        stage_times(pkg, run.WORKLOADS[name], args.seed, args.repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
