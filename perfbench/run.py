"""The fano3 benchmark: seeded workloads through the batch classifier.

Run from the repository root:

    python3 perfbench/run.py --workload classify-pool [--seed 0] [--seconds 20] [--trace 0]
    python3 perfbench/run.py --workload all    # the three workloads in turn

Each workload writes its seeded input as a PALP file and runs it through
the CLI's per-record path in one process: ``db.parse_palp``, then
``polytope.convex_hull`` and ``criteria.classify`` per record, then
``db.write_reports`` or the list assembly of ``fano3 lists``.  Whole passes
repeat until ``--seconds`` have passed and the latency percentiles have
enough samples.  The outputs are then checked (see checks.py), the real CLI
is run on the same input in a subprocess, and the last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: polytopes per second over
all passes, the p50 and p99 of the per-record ``convex_hull`` + ``classify``
time, the wall time of a fresh ``fano3`` process on one record (setup), and
peak RSS.  Throughput and latencies are CPU time, and setup is wall time,
rescaled to a reference machine speed (``ref`` seconds, see SpeedProbe): on
a shared host the raw CPU and wall times of the same work drift by a third
or more between runs, which no bound of a quarter could absorb.  The raw
CPU and wall-clock figures are printed too.  Failed records are counted in
``failed`` and ``error_rate``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: calls and self time at each module boundary (spans.py),
kernel work counts, and the trace's coverage and overhead.  The CLI's
``--jobs`` process pool is left out: on a small shared machine its scaling
would measure the neighbours.

Exit codes: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time, thread_time

import numpy as np

import checks
import inputs
from spans import SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
MIN_LATENCY_SAMPLES = 1000  # ten samples beyond p99
SETUP_RUNS = 5
SETUP_PROBES = 20  # probe samples before each setup run
WARMUP_RECORDS = 20
PROBE_REF_S = 0.001  # see SpeedProbe
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    name: str
    moved: bool
    m_max: int
    lists: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lists-pool", False, 0, True,
            "lists/verify path (m_max=0): hull, facet charts and criteria carry the "
            "time, the kernel none; control for kernel changes",
        ),
        Workload(
            "classify-pool", False, 5, False,
            "classify --mmax 5: many small kernel boxes where per-call overhead "
            "dominates, plus the JSON report writer",
        ),
        Workload(
            "classify-moved", True, 5, False,
            "classify --mmax 5 on GL(3,Z)-moved records: the bounding-box scan "
            "dominates; its ratio to classify-pool measures embedding dependence",
        ),
    )
}


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    scale: float  # reference seconds per CPU second (untraced passes), else 1
    records: int
    facets: int
    record_cpu_s: list  # per record: convex_hull + classify, thread CPU seconds
    errors: list

    @property
    def ref_s(self) -> float:
        return self.cpu_s * self.scale


class SpeedProbe:
    """Rescales CPU time to a fixed reference speed of the machine.

    On a shared host the CPU time of the same work changes by a third or
    more from one stretch of seconds to the next, as other tenants load the
    core's caches and sibling threads.  A fixed piece of work of the
    benchmark's own, never code of the package, is timed once before every
    record: a pure-Python facet search (the interpreter work of hulls and
    criteria) and a numpy box scan written like the package's kernel (the
    small-array integer work of the Hilbert scan).  The pass's CPU time is
    multiplied by PROBE_REF_S / the mean probe time, i.e. converted to
    seconds on a machine where the probe takes PROBE_REF_S.

    The probes are single runs and their mean is used: the records between
    them run at the machine's average speed, fast jitter included, and only
    an average of many probes spread through the pass follows it.  The
    fastest or the median of a few probes reads the machine's best speed and
    drifts against the work by several percent from run to run.  (Over seven
    minutes of interleaved probes and records on a 2-vCPU Xeon VM, dividing
    by the mean of single probes cut the spread of the slowest records' CPU
    time between 10-second blocks from 8% to 2-3%; the fastest of three
    probes left it at 7%.)  The probes themselves are not counted.
    """

    POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
              (0, 0, -1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (-1, -1, -1))
    NORMALS = ((1, 2, 3), (-2, 1, 1), (1, -3, 2), (-1, -1, -3), (3, 1, -1), (-2, 2, -1))

    def __init__(self):
        self.ys = np.arange(-150, 151, dtype=np.int64)
        self.cpu = 0.0
        self.samples = 0

    def _box_scan(self) -> int:
        ys, count = self.ys, 0
        for x in range(-6, 7):
            zlo = np.full(ys.shape, -200, dtype=np.int64)
            zhi = np.full(ys.shape, 200, dtype=np.int64)
            for a, b, c in self.NORMALS:
                rest = 400 - a * x - b * ys
                if c > 0:
                    np.minimum(zhi, rest // c, out=zhi)
                else:
                    np.maximum(zlo, -(rest // (-c)), out=zlo)
            widths = zhi - zlo + 1
            np.maximum(widths, 0, out=widths)
            count += int(widths.sum())
        return count

    def sample(self) -> None:
        t0 = thread_time()
        inputs.uncached_facets(self.POINTS)
        self._box_scan()
        self.cpu += thread_time() - t0
        self.samples += 1

    @property
    def scale(self) -> float:
        return PROBE_REF_S * self.samples / self.cpu


def load_package() -> dict:
    """Import fano3 from the checkout's src/, never from an installed copy."""
    if not (SRC / "fano3" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fano3'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"fano3.{name}")
        for name in ("db", "polytope", "polygon", "criteria", "_kernels")
    }
    if Path(modules["db"].__file__).resolve().parent != (SRC / "fano3").resolve():
        print("error: fano3 was imported from outside src/", file=sys.stderr)
        sys.exit(2)
    return modules


def lists_payload(reports) -> dict:
    """The ``fano3 lists`` output: six sorted id lists and the union size."""
    out = {name: [] for name in checks.LIST_NAMES}
    for rep in reports:
        if rep.reflexive:
            for name, flag in checks.LIST_FLAGS:
                if getattr(rep, flag):
                    out[name].append(rep.polytope_id)
    payload = {name: sorted(ids) for name, ids in out.items()}
    payload["union_indec_aft"] = len(set(payload["L_indec"]) | set(payload["L_aft"]))
    return payload


def write_lists(reports, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(lists_payload(reports), indent=1) + "\n")


def run_pass(pkg, palp_path, out_path, workload: Workload, tracer=None) -> PassResult:
    """One pass: parse, hull and classify every record, write the output.

    Untraced passes probe the machine's speed as they go (SpeedProbe);
    traced passes do not, so that the spans cover the whole pass.
    """
    db, polytope, criteria = pkg["db"], pkg["polytope"], pkg["criteria"]
    assemble = tracer.wrap("bench.list_assembly", write_lists) if tracer else write_lists
    record_cpu, errors, reports = [], [], []
    probe = None if tracer else SpeedProbe()
    start, start_cpu = perf_counter(), process_time()
    with open(palp_path) as fh:
        records = db.parse_palp(fh)
    for rec in records:
        if tracer:
            tracer.polytope_id = rec.id
        else:
            probe.sample()
        c0 = thread_time()
        stage = "hull"
        try:
            poly = polytope.convex_hull(rec.vertices)
            stage = "classify"
            rep = criteria.classify(poly, polytope_id=rec.id, m_max=workload.m_max)
        except Exception as exc:  # counted per record; the pass goes on
            errors.append({"id": rec.id, "stage": stage, "error": repr(exc)})
            continue
        record_cpu.append(thread_time() - c0)
        reports.append(rep)
    if tracer:
        tracer.polytope_id = None
    if workload.lists:
        assemble(reports, out_path)
    else:
        db.write_reports(reports, out_path)
    wall, cpu = perf_counter() - start, process_time() - start_cpu
    scale = 1.0
    if probe:
        wall, cpu, scale = wall - probe.cpu, cpu - probe.cpu, probe.scale
    facets = sum(len(rep.facet_classes) for rep in reports)
    return PassResult(wall, cpu, scale, len(records), facets, record_cpu, errors)


def cli(args) -> subprocess.CompletedProcess:
    """Run the real ``fano3`` command line in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "fano3.cli", *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )


def cli_output_args(workload: Workload, palp, out, jobs: int) -> list:
    if workload.lists:
        return ["lists", palp, "--out", out, "--jobs", jobs]
    return ["classify", palp, "--out", out, "--mmax", workload.m_max, "--jobs", jobs]


def measure_setup(workload: Workload, records, workdir: Path) -> tuple[float, float]:
    """Median wall time of a fresh ``fano3`` process on a one-record input.

    The record is the one with the median Hilbert-scan box, so the figure is
    typical of the workload; one unmeasured run first compiles the bytecode.
    Returns the median in reference seconds (SpeedProbe, sampled between
    the runs) and in wall seconds.
    """
    cells = [inputs.dual_box_cells(inputs.brute_facets(r)) for r in records]
    median_index = sorted(range(len(records)), key=lambda i: (cells[i], i))[len(records) // 2]
    one = workdir / "one.palp"
    one.write_text(inputs.to_palp([records[median_index]]))
    args = cli_output_args(workload, one, workdir / "one.out", 1)
    probe = SpeedProbe()
    times = []
    for i in range(SETUP_RUNS + 1):
        for _ in range(SETUP_PROBES):
            probe.sample()
        t0 = perf_counter()
        proc = cli(args)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"fano3 failed on the one-record input: {proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    for _ in range(SETUP_PROBES):
        probe.sample()
    wall = statistics.median(times)
    return wall * probe.scale, wall


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def reference_rows(records, workdir: Path) -> list[dict]:
    """Rows of ``fano3 classify --mmax 5`` on the unmoved records, run as a CLI."""
    palp, out = workdir / "reference.palp", workdir / "reference.json"
    palp.write_text(inputs.to_palp(records))
    proc = cli(["classify", palp, "--out", out, "--mmax", 5, "--jobs", 2])
    if proc.returncode != 0:
        raise RuntimeError(f"fano3 classify failed on the reference input: {proc.stderr.strip()}")
    return read_json(out)


def check_outputs(workload: Workload, seed, records, pool, out_path, input_path, workdir):
    """Output checks on the bytes the last pass wrote.

    (a)-(d) are in checks.py; (e) compares the committed digest at the
    default seed; (f) runs the real CLI on the same input.

    Returns the failures and the checked report rows (for lists-pool, the
    rows of classify --mmax 5 on the same records).
    """
    failures = []
    data = out_path.read_bytes()
    ids = list(range(1, len(records) + 1))
    if workload.lists:
        rows = reference_rows(pool, workdir)
        expected = checks.lists_from_reports(rows)
        failures += checks.check_lists(json.loads(data), expected)
    else:
        rows = json.loads(data)
        if [row["id"] for row in rows] != ids:
            failures.append("reports: ids are not 1..n in order")
        if workload.moved:
            failures += checks.check_invariance(reference_rows(pool, workdir), rows)
        expected = checks.lists_from_reports(rows)
    failures += checks.check_inclusions(expected, ids)
    failures += checks.check_third_difference(rows)
    failures += checks.check_h1(rows, dict(zip(ids, records)), seed)

    digest = hashlib.sha256(data).hexdigest()
    if seed == DEFAULT_SEED:
        committed = read_json(HERE / "digests.json").get(workload.name)
        if committed != digest:
            failures.append(f"digest: output sha256 {digest} != committed {committed}")

    cli_out = workdir / "cli.out"
    proc = cli(cli_output_args(workload, input_path, cli_out, 2))
    if proc.returncode != 0:
        failures.append(f"cli: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    elif cli_out.read_bytes() != data:
        failures.append("cli: fano3 wrote other bytes than the benchmark pass")
    expected_path = workdir / "expected_lists.json"
    expected_path.write_text(json.dumps(expected))
    proc = cli(["verify", input_path, "--expected", expected_path, "--jobs", 2])
    if proc.returncode != 0:
        failures.append(f"cli: fano3 verify exited {proc.returncode}: {proc.stdout.strip()[-300:]}")
    return failures, rows


def provenance(pkg, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        revision = proc.stdout.strip() or revision
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": pkg["_kernels"].default_backend(),
        "git_revision": revision,
        "seed": seed,
    }


def timed_passes(pkg, palp, out_path, workload, seconds):
    """Untraced passes until `seconds` passed and p99 has ten samples beyond it."""
    passes = []
    start = perf_counter()
    while (
        perf_counter() - start < seconds
        or sum(len(p.record_cpu_s) for p in passes) < MIN_LATENCY_SAMPLES
    ):
        passes.append(run_pass(pkg, palp, out_path, workload))
    return passes


def traced_passes(pkg, palp, out_path, workload, seconds):
    """Alternate untraced and traced passes until `seconds` passed."""
    plain, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(run_pass(pkg, palp, out_path, workload))
        tracer = Tracer(pkg)
        with tracer:
            result = run_pass(pkg, palp, out_path, workload, tracer)
        traced.append((result, tracer))
    return plain, traced


def end_to_end_metrics(passes, setup) -> tuple[dict, dict]:
    """Throughput and latency in reference seconds (SpeedProbe), setup, memory.

    Every record is rescaled by its pass's probe scale.  Raw CPU and
    wall-clock figures go to the informational output.
    """
    ref = [t * p.scale for p in passes for t in p.record_cpu_s]
    cpu = [t for p in passes for t in p.record_cpu_s]
    records = sum(p.records for p in passes)
    p99 = percentile(ref, 99)
    metrics = {
        "polytopes_per_ref_s": (records / sum(p.ref_s for p in passes), "1/s"),
        "ref_latency_p50_ms": (1e3 * statistics.median(ref), "ms"),
        "ref_latency_p99_ms": (1e3 * p99, "ms"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "passes": len(passes),
        "latency_samples": len(ref),
        "samples_beyond_p99": sum(1 for t in ref if t > p99),
        "setup_runs": SETUP_RUNS,
        "setup_wall_s": setup[1],
        "polytopes_per_cpu_s": records / sum(p.cpu_s for p in passes),
        "cpu_latency_p50_ms": 1e3 * statistics.median(cpu),
        "cpu_latency_p99_ms": 1e3 * percentile(cpu, 99),
        "polytopes_per_wall_s": records / sum(p.wall_s for p in passes),
        "probe_ms": [round(1e3 * PROBE_REF_S / p.scale, 4) for p in passes],
    }
    return metrics, info


def layer_metrics(plain, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, median over passes."""
    failures = []
    summaries = [tracer.summary() for _, tracer in traced]
    counts = [
        (tracer.columns_scanned, tracer.box_cells, tracer.points_counted,
         {name: s["calls"] for name, s in summary["spans"].items()})
        for (_, tracer), summary in zip(traced, summaries)
    ]
    if any(c != counts[0] for c in counts):
        failures.append("trace: call counts differ between traced passes")
    columns, cells, points, calls = counts[0]
    metrics = {}

    def med(values):
        return statistics.median(list(values))

    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (
            med(s["spans"].get(name, {}).get("self_ns", 0) / 1e9 for s in summaries), "s",
        )
    for layer in ("db", "polytope", "kernels", "polygon", "intlinalg", "criteria"):
        metrics[f"layer.{layer}.self_s"] = (
            med(
                sum(v["self_ns"] for k, v in s["spans"].items() if k.split(".")[0] == layer) / 1e9
                for s in summaries
            ),
            "s",
        )
    facets = traced[0][0].facets
    metrics["kernels.columns_scanned"] = (columns, "count")
    metrics["kernels.points_counted"] = (points, "count")
    metrics["kernels.hit_ratio"] = (points / cells if cells else 0.0, "ratio")
    metrics["polygon.facets"] = (facets, "count")
    metrics["polygon.chart_redundancy"] = (
        calls.get("polygon.facet_to_polygon", 0) / facets if facets else 0.0, "ratio",
    )
    coverages = [s["top_level_ns"] / 1e9 / r.wall_s for s, (r, _) in zip(summaries, traced)]
    metrics["trace.coverage"] = (med(coverages), "ratio")
    metrics["trace.wall_s"] = (med(r.wall_s for r, _ in traced), "s")
    metrics["trace.overhead"] = (med(r.cpu_s for r, _ in traced) / med(p.cpu_s for p in plain), "ratio")
    if min(coverages) < 0.95:
        failures.append(f"trace: spans cover {min(coverages):.3f} of the traced wall, below 0.95")
    return metrics, failures


def run_workload(pkg, workload: Workload, seed: int, seconds: float, trace: int) -> int:
    """Generate, measure and check one workload; print its metrics and result."""
    workdir = OUT / f"{workload.name}-seed{seed}-trace{trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    pool = inputs.pool_records(seed)
    records = inputs.moved_records(seed, pool) if workload.moved else pool
    palp = workdir / "input.palp"
    palp.write_text(inputs.to_palp(records))
    out_path = workdir / ("lists.json" if workload.lists else "reports.json")
    facts = inputs.input_facts(records)

    setup = measure_setup(workload, records, workdir) if trace == 0 else None
    for i, verts in enumerate(records[:WARMUP_RECORDS]):
        pkg["criteria"].classify(pkg["polytope"].convex_hull(verts), polytope_id=i, m_max=workload.m_max)

    if trace == 0:
        passes = timed_passes(pkg, palp, out_path, workload, seconds)
        metrics, samples = end_to_end_metrics(passes, setup)
        failures = []
        notes = {
            "polytopes_per_ref_s": f"{samples['passes']} passes of {len(records)} records",
            "ref_latency_p50_ms": f"{samples['latency_samples']} samples",
            "ref_latency_p99_ms": f"{samples['latency_samples']} samples, {samples['samples_beyond_p99']} beyond",
            "setup_s": f"median of {SETUP_RUNS} fresh processes on one record, reference seconds",
        }
    else:
        plain, traced = traced_passes(pkg, palp, out_path, workload, seconds)
        metrics, failures = layer_metrics(plain, traced)
        samples = {"untraced_passes": len(plain), "traced_passes": len(traced)}
        notes = {}
        traced[-1][1].dump(workdir / "spans.jsonl")
        passes = plain + [r for r, _ in traced]

    errors = [e for p in passes for e in p.errors]
    attempted = sum(p.records for p in passes)
    failures += [f"record {e['id']} failed in {e['stage']}: {e['error']}" for e in errors[:20]]
    check_failures, rows = check_outputs(workload, seed, records, pool, out_path, palp, workdir)
    failures += check_failures
    facts["facet_classes"] = dict(sorted(Counter(c for row in rows for c in row["facet_classes"]).items()))

    info = {
        "workload": workload.name,
        "why": workload.why,
        "provenance": provenance(pkg, seed),
        "input": facts,
        "samples": samples,
        "error_rate": len(errors) / attempted,
        "errors": errors,
        "output_sha256": hashlib.sha256(out_path.read_bytes()).hexdigest(),
        "failures": failures,
    }
    print(f"== {workload.name}, seed {seed}, trace {trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6f} {unit:6s} {notes.get(name, '')}")
    print(f"{'error_rate':44s} {info['error_rate']:>16.6f} ratio  {len(errors)} of {attempted} records")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(info, sort_keys=True))
    (workdir / "result.json").write_text(json.dumps(dict(info, metrics=metrics), indent=1) + "\n")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pkg = load_package()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(pkg, WORKLOADS[n], args.seed, args.seconds, args.trace) for n in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
