"""How far each traced benchmark run is from the coverage floor of its check.

Usage, from the repository root:

    python3 tools/trace_margin.py --workload W [--seconds S] [--seed N]

W is a workload of perfbench/run.py, or ``all`` for each in turn.  The
script imports perfbench/run.py unchanged and runs its ``traced_passes``
(untraced and traced passes, alternating) on the workload's seeded input.
For each run it prints the minimum and the median per-pass coverage, by the
formula of ``layer_metrics`` (top-level span time over the traced pass's
wall time), and the median milliseconds per traced pass outside the spans.
``layer_metrics`` fails a traced run whose minimum is below 0.95 but prints
only the median.  Delete this script once perfbench prints the minimum.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402

FLOOR = 0.95  # the minimum coverage that layer_metrics accepts


def margin(pkg, workload, seed: int, seconds: float) -> float:
    """Run the traced passes of one workload, print its margin, return the minimum."""
    workdir = run.OUT / f"{workload.name}-seed{seed}-margin"
    workdir.mkdir(parents=True, exist_ok=True)
    pool = inputs.pool_records(seed)
    records = inputs.moved_records(seed, pool) if workload.moved else pool
    palp = workdir / "input.palp"
    palp.write_text(inputs.to_palp(records))
    out = workdir / ("lists.json" if workload.lists else "reports.json")
    # the warm-up of run_workload, so that the passes start alike
    for i, verts in enumerate(records[: run.WARMUP_RECORDS]):
        pkg["criteria"].classify(pkg["polytope"].convex_hull(verts), polytope_id=i, m_max=workload.m_max)
    _, traced = run.traced_passes(pkg, palp, out, workload, seconds)
    walls = [result.wall_s for result, _ in traced]
    covered = [tracer.summary()["top_level_ns"] / 1e9 for _, tracer in traced]
    coverages = [c / w for c, w in zip(covered, walls)]
    outside_ms = statistics.median(1e3 * (w - c) for c, w in zip(covered, walls))
    low = min(coverages)
    print(
        f"{workload.name} seed {seed}: {len(traced)} traced passes, coverage min {low:.4f}"
        f" median {statistics.median(coverages):.4f}, {outside_ms:.2f} ms per pass outside spans"
        + ("" if low >= FLOOR else f", below the {FLOOR} floor")
    )
    return low


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*run.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    pkg = run.load_package()
    names = list(run.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        margin(pkg, run.WORKLOADS[name], args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
