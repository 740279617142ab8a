"""Reading polytope databases and writing classification results.

Two input formats are supported.  The PALP-style text format is a stream of
blocks, each a header line with two integers r and c followed by an r x c
integer matrix; one of r, c must be 3 and the vertices are the columns when
r = 3, the rows when c = 3.  The JSON format is an array of objects
``{"id": int, "vertices": [[x, y, z], ...]}``.

IDs identify polytopes in an external numbering (for the classified
reflexive 3-polytopes, the Graded Ring Database order).  They are treated as
opaque input: PALP blocks are numbered 1, 2, ... in file order unless a
sidecar file supplies the numbering explicitly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from importlib import resources


class DatabaseFormatError(ValueError):
    """Raised on malformed database input, with the offending record noted."""


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatabaseFormatError(f"{path}: not valid JSON ({exc})") from exc


def _is_id(value) -> bool:
    """Ids are ints; bools are ints to Python but not ids."""
    return isinstance(value, int) and not isinstance(value, bool)


LIST_NAMES = ("L_smooth", "L_isol", "L_nodes", "L_low", "L_indec", "L_aft")


@dataclass(frozen=True)
class PolytopeRecord:
    id: int
    vertices: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class ExpectedLists:
    """Named ID sets to verify a classification run against."""

    lists: dict[str, frozenset[int]]

    def __getitem__(self, name: str) -> frozenset[int]:
        return self.lists[name]

    def names(self) -> tuple[str, ...]:
        return tuple(n for n in LIST_NAMES if n in self.lists)


def parse_palp(stream, strict: bool = False, ids: list[int] | None = None) -> list[PolytopeRecord]:
    """Parse a PALP-style vertex stream into records.

    The header may carry extra tokens after the two dimensions (they are
    ignored).  A 3 x 3 block is read column-wise; with ``strict`` such
    ambiguous blocks are rejected instead.  ``ids`` overrides the 1-based
    file-order numbering.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lines = [ln for ln in (raw.strip() for raw in stream) if ln]
    records = []
    pos = 0
    index = 0
    while pos < len(lines):
        index += 1
        header = lines[pos].split()
        pos += 1
        if len(header) < 2:
            raise DatabaseFormatError(f"record {index}: malformed header {lines[pos-1]!r}")
        try:
            r, c = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DatabaseFormatError(f"record {index}: non-integer header") from exc
        if r <= 0 or c <= 0:
            raise DatabaseFormatError(f"record {index}: bad shape {r}x{c}")
        if 3 not in (r, c):
            raise DatabaseFormatError(f"record {index}: no dimension-3 axis in {r}x{c}")
        if r == c == 3 and strict:
            raise DatabaseFormatError(f"record {index}: ambiguous 3x3 block in strict mode")
        if pos + r > len(lines):
            raise DatabaseFormatError(f"record {index}: truncated matrix")
        rows = []
        for k in range(r):
            tokens = lines[pos + k].split()
            if len(tokens) != c:
                raise DatabaseFormatError(
                    f"record {index}: row {k} has {len(tokens)} entries, expected {c}"
                )
            try:
                rows.append([int(t) for t in tokens])
            except ValueError as exc:
                raise DatabaseFormatError(f"record {index}: non-integer entry") from exc
        pos += r
        if r == 3:
            vertices = tuple(zip(*rows))
        else:
            vertices = tuple(tuple(row) for row in rows)
        records.append(PolytopeRecord(id=index, vertices=vertices))
    if ids is not None:
        if len(ids) != len(records):
            raise DatabaseFormatError(
                f"sidecar holds {len(ids)} ids for {len(records)} records"
            )
        records = [
            PolytopeRecord(id=i, vertices=rec.vertices) for i, rec in zip(ids, records)
        ]
    _check_unique_ids(records)
    return records


def load_id_sidecar(path) -> list[int]:
    """Read an ID sidecar: a JSON array of ints, or ``{"ids": [...]}``."""
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("ids")
    if not isinstance(data, list) or not all(_is_id(i) for i in data):
        raise DatabaseFormatError("sidecar must be a JSON array of integer ids")
    return data


def _check_unique_ids(records: list[PolytopeRecord]) -> None:
    seen = set()
    for rec in records:
        if rec.id in seen:
            raise DatabaseFormatError(f"duplicate polytope id {rec.id}")
        seen.add(rec.id)


def parse_json(path) -> list[PolytopeRecord]:
    """Read records from the JSON schema documented in the module docstring."""
    data = _load_json(path)
    if not isinstance(data, list):
        raise DatabaseFormatError("top level must be a JSON array of records")
    records = []
    for i, entry in enumerate(data):
        try:
            pid = entry["id"]
            verts = entry["vertices"]
            if not _is_id(pid):
                raise TypeError("id must be an integer")
            vertices = tuple(
                tuple(int(c) for c in v) for v in verts
            )
            if not vertices or any(len(v) != 3 for v in vertices):
                raise ValueError("vertices must be nonempty 3-vectors")
        except (KeyError, TypeError, ValueError) as exc:
            raise DatabaseFormatError(f"record {i}: {exc}") from exc
        records.append(PolytopeRecord(id=pid, vertices=vertices))
    _check_unique_ids(records)
    return records


def write_records(records, path) -> None:
    data = [
        {"id": rec.id, "vertices": [list(v) for v in rec.vertices]} for rec in records
    ]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_expected_lists(path) -> ExpectedLists:
    """Read named ID sets; any subset of the six known names may be present."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise DatabaseFormatError("expected-lists file must be a JSON object")
    lists = {}
    for name, ids in data.items():
        if name not in LIST_NAMES:
            raise DatabaseFormatError(f"unknown list name {name!r}")
        if not isinstance(ids, list) or not all(_is_id(i) for i in ids):
            raise DatabaseFormatError(f"list {name} must hold integer ids")
        lists[name] = frozenset(ids)
    return ExpectedLists(lists=lists)


def reference_lists() -> ExpectedLists:
    """The published classification of the 4319 reflexive 3-polytopes.

    ID sets in Graded Ring Database numbering, bundled with the package for
    use as the default target of the verify command.
    """
    text = resources.files("fano3").joinpath("data/expected_lists.json").read_text()
    data = json.loads(text)
    return ExpectedLists(lists={k: frozenset(v) for k, v in data.items()})


CSV_COLUMNS = (
    "id",
    "reflexive",
    "smooth",
    "isolated_singular",
    "nodes",
    "totaro_rigid",
    "rigid_face_obstruction",
    "indec_obstruction",
    "aft_obstruction",
    "low_degree",
    "degree",
    "facet_classes",
    "rigid_face_witnesses",
    "indec_witnesses",
    "aft_witnesses",
    "hilbert",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, list):
        return ";".join(
            "+".join(str(x) for x in item) if isinstance(item, list) else str(item)
            for item in value
        )
    return str(value)


def write_reports(reports, path, format: str = "json") -> None:
    """Persist classification reports, sorted by id, byte-stable across runs."""
    rows = sorted((rep.to_dict() for rep in reports), key=lambda d: d["id"])
    if format == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_csv_cell(row[col]) for col in CSV_COLUMNS])
    else:
        raise ValueError(f"unknown report format {format!r}")


def read_reports(path) -> list[dict]:
    data = _load_json(path)
    if not isinstance(data, list):
        raise DatabaseFormatError("report file must be a JSON array")
    return data
