"""Command line driver: classify, lists, verify, inspect.

The commands are batch oriented: they read a polytope database, run the
classification and write static reports.  Output ordering is by polytope id,
so results are bit-identical across runs and across worker counts.

Exit codes: 0 on success (and on a clean verify match), 1 when verify finds
a mismatch, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import db
from .criteria import ClassificationReport, classify
from .lift import minkowski_lift
from .polygon import facet_to_polygon, maximal_decompositions
from .polytope import DegenerateInputError, convex_hull
from .db import DatabaseFormatError


class InputError(Exception):
    pass


def _load_records(path: str, format: str, strict: bool, sidecar: str | None):
    if format == "auto":
        format = "json" if path.endswith(".json") else "palp"
    try:
        if format == "json":
            if sidecar is not None:
                raise InputError("id sidecars apply to palp input only")
            return db.parse_json(path)
        ids = db.load_id_sidecar(sidecar) if sidecar else None
        with open(path) as fh:
            return db.parse_palp(fh, strict=strict, ids=ids)
    except (OSError, DatabaseFormatError) as exc:
        raise InputError(str(exc)) from exc


def _classify_record(args) -> ClassificationReport:
    record, m_max = args
    try:
        poly = convex_hull(record.vertices)
        return classify(poly, polytope_id=record.id, m_max=m_max)
    except (DegenerateInputError, ValueError) as exc:
        raise ValueError(f"polytope {record.id}: {exc}") from exc


def _classify_all(records, jobs: int, m_max: int) -> list[ClassificationReport]:
    tasks = [(rec, m_max) for rec in records]
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                reports = list(pool.map(_classify_record, tasks, chunksize=32))
        else:
            reports = [_classify_record(t) for t in tasks]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return sorted(reports, key=lambda r: r.polytope_id)


def _computed_lists(reports) -> dict[str, list[int]]:
    out = {name: [] for name in db.LIST_NAMES}
    for rep in reports:
        if not rep.reflexive:
            continue
        if rep.smooth:
            out["L_smooth"].append(rep.polytope_id)
        if rep.isolated_singular:
            out["L_isol"].append(rep.polytope_id)
        if rep.nodes:
            out["L_nodes"].append(rep.polytope_id)
        if rep.low_degree:
            out["L_low"].append(rep.polytope_id)
        if rep.indec_obstruction:
            out["L_indec"].append(rep.polytope_id)
        if rep.aft_obstruction:
            out["L_aft"].append(rep.polytope_id)
    return {name: sorted(ids) for name, ids in out.items()}


def _check_mmax(m_max: int) -> None:
    if m_max < 0:
        raise InputError(f"--mmax must be nonnegative, got {m_max}")


def _write_output(path: str, write) -> None:
    try:
        write(path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_classify(args) -> int:
    _check_mmax(args.mmax)
    records = _load_records(args.input, args.format, args.strict, args.sidecar)
    reports = _classify_all(records, args.jobs, args.mmax)
    _write_output(
        args.out, lambda path: db.write_reports(reports, path, format=args.report)
    )
    print(f"classified {len(reports)} polytopes -> {args.out}")
    return 0


def cmd_lists(args) -> int:
    records = _load_records(args.input, args.format, args.strict, args.sidecar)
    reports = _classify_all(records, args.jobs, 0)
    lists = _computed_lists(reports)
    union = sorted(set(lists["L_indec"]) | set(lists["L_aft"]))
    payload = dict(lists)
    payload["union_indec_aft"] = len(union)
    text = json.dumps(payload, indent=1) + "\n"
    if args.out:
        _write_output(args.out, lambda path: Path(path).write_text(text))
    else:
        sys.stdout.write(text)
    return 0


def _diff_line(name, computed: set[int], expected: set[int], full: bool) -> tuple[str, bool]:
    missing = sorted(expected - computed)
    extra = sorted(computed - expected)
    ok = not missing and not extra
    line = f"{name}: computed {len(computed)}, expected {len(expected)}"
    if ok:
        return line + ", match", True
    cap = None if full else 10

    def clip(ids):
        shown = ids if cap is None else ids[:cap]
        suffix = "" if cap is None or len(ids) <= cap else f" (+{len(ids) - cap} more)"
        return str(shown) + suffix

    if missing:
        line += f"\n  missing: {clip(missing)}"
    if extra:
        line += f"\n  extra:   {clip(extra)}"
    return line, False


def cmd_verify(args) -> int:
    records = _load_records(args.input, args.format, args.strict, args.sidecar)
    reports = _classify_all(records, args.jobs, 0)
    lists = _computed_lists(reports)
    try:
        expected = (
            db.load_expected_lists(args.expected)
            if args.expected
            else db.reference_lists()
        )
    except (OSError, DatabaseFormatError) as exc:
        raise InputError(str(exc)) from exc
    all_match = True
    for name in expected.names():
        line, ok = _diff_line(name, set(lists[name]), set(expected[name]), args.full)
        print(line)
        all_match = all_match and ok
    union = set(lists["L_indec"]) | set(lists["L_aft"])
    print(f"|L_indec u L_aft| = {len(union)}")
    print("all lists match" if all_match else "MISMATCH")
    return 0 if all_match else 1


def cmd_inspect(args) -> int:
    _check_mmax(args.mmax)
    records = _load_records(args.input, args.format, args.strict, args.sidecar)
    matches = [rec for rec in records if rec.id == args.id]
    if not matches:
        raise InputError(f"no polytope with id {args.id}")
    record = matches[0]
    try:
        poly = convex_hull(record.vertices)
        report = classify(poly, polytope_id=record.id, m_max=args.mmax)
    except (DegenerateInputError, ValueError) as exc:
        raise InputError(f"polytope {record.id}: {exc}") from exc

    print(f"polytope {record.id}")
    print(f"  vertices ({len(poly.vertices)}):")
    for v in poly.vertices:
        print(f"    {v}")
    print(f"  reflexive: {report.reflexive}")
    print(f"  degree: {report.degree}  hilbert: {report.hilbert}")
    print("  edge lattice lengths:", [poly.edge_lattice_length(i) for i in range(len(poly.edges))])
    verdicts = {
        "smooth": report.smooth,
        "isolated_singular": report.isolated_singular,
        "nodes": report.nodes,
        "totaro_rigid": report.totaro_rigid,
        "rigid_face_obstruction": report.rigid_face_obstruction,
        "indec_obstruction": report.indec_obstruction,
        "aft_obstruction": report.aft_obstruction,
        "low_degree": report.low_degree,
    }
    print("  verdicts:", verdicts)
    if report.rigid_face_witnesses:
        print("  rigid-face witnesses:", list(report.rigid_face_witnesses))
    if report.indec_witnesses:
        print("  indecomposable-facet witnesses:", list(report.indec_witnesses))
    if report.aft_witnesses:
        print("  almost-flat pair witnesses:", [list(p) for p in report.aft_witnesses])
    for fi, facet in enumerate(poly.facets):
        cls = report.facet_classes[fi]
        polygon = facet_to_polygon(poly, fi)
        print(f"  facet {fi}: {cls.label()}  normal {facet.normal} height {facet.height}")
        print(f"    cycle: {[poly.vertices[i] for i in facet.vertex_indices]}")
        decs = maximal_decompositions(polygon)
        for di, dec in enumerate(decs):
            parts = [list(s.vertices) for s in dec.summands]
            print(f"    maximal decomposition {di}: {parts}")
            if args.lift:
                cone = minkowski_lift(polygon, dec)
                print(f"      lifted rays: {[list(r) for r in cone.rays]}")
    return 0


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="polytope database file")
    parser.add_argument(
        "--format",
        choices=("auto", "palp", "json"),
        default="auto",
        help="input format (auto: json for *.json, palp otherwise)",
    )
    parser.add_argument(
        "--strict", action="store_true", help="reject ambiguous 3x3 palp blocks"
    )
    parser.add_argument(
        "--sidecar", default=None, help="JSON id sidecar for palp input"
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fano3",
        description="classify reflexive 3-polytopes by smoothability criteria",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="write a full classification report")
    _common(p)
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p.add_argument("--mmax", type=int, default=5, help="hilbert coefficients up to m")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("lists", help="emit the six classification id lists")
    _common(p)
    p.add_argument("--out", default=None, help="output path (stdout when absent)")
    p.set_defaults(func=cmd_lists)

    p = sub.add_parser("verify", help="compare computed lists against expected ones")
    _common(p)
    p.add_argument(
        "--expected",
        default=None,
        help="expected-lists JSON (bundled reference lists when absent)",
    )
    p.add_argument("--full", action="store_true", help="print full diffs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inspect", help="dump one polytope in detail")
    _common(p)
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--mmax", type=int, default=5)
    p.add_argument("--lift", action="store_true", help="print lifted cone rays")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise InputError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
