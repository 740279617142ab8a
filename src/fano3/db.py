"""Reading polytope databases and writing classification results.

``read_records`` reads a database in one of two formats, chosen by the file
name: JSON when it ends in ``.json``, in any case, and PALP otherwise.  The
PALP-style text format is a stream of blocks, each a header line with two
integers r and c followed by an r x c integer matrix; one of r, c must be 3
and the vertices are the columns when r = 3, the rows when c = 3.  The JSON
format is an array of objects ``{"id": int, "vertices": [[x, y, z], ...]}``.

IDs identify polytopes in an external numbering (for the classified
reflexive 3-polytopes, the Graded Ring Database order).  They are treated as
opaque input: PALP blocks are numbered 1, 2, ... in file order unless a
sidecar file supplies the numbering explicitly.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from importlib import resources


class DatabaseFormatError(ValueError):
    """Raised on malformed database input, with the offending record noted."""


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DatabaseFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _load_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, digit limit, nesting
        raise DatabaseFormatError(f"{path}: not valid JSON ({exc})") from exc


def _is_int(value) -> bool:
    """A JSON integer: ids and coordinates are ints, and bools are not ints here."""
    return isinstance(value, int) and not isinstance(value, bool)


# each list with the report verdict that puts a polytope in it
LIST_VERDICTS = (
    ("L_smooth", "smooth"),
    ("L_isol", "isolated_singular"),
    ("L_nodes", "nodes"),
    ("L_low", "low_degree"),
    ("L_indec", "indec_obstruction"),
    ("L_aft", "aft_obstruction"),
)
LIST_NAMES = tuple(name for name, _ in LIST_VERDICTS)
# the size of L_indec u L_aft, written by ``fano3 lists`` next to the lists
UNION_KEY = "union_indec_aft"


@dataclass(frozen=True)
class PolytopeRecord:
    id: int
    vertices: tuple[tuple[int, int, int], ...]


def _palp_ints(tokens, index: int, what: str) -> list[int]:
    """The integers of a PALP header or matrix row; an error names the cause."""
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:  # not an integer, or one over int()'s digit limit
        why = (f"non-integer {what}" if str(exc).startswith("invalid literal")
               else f"{what} over the {sys.get_int_max_str_digits()}-digit limit")
        raise DatabaseFormatError(f"record {index}: {why}") from exc


def parse_palp(stream, ids: list[int] | None = None) -> list[PolytopeRecord]:
    """Parse a PALP-style vertex stream into records.

    The header may carry extra tokens after the two dimensions (they are
    ignored).  A 3 x 3 block is read column-wise; it holds three points
    either way, so it is never a 3-polytope and the hull rejects it.
    ``ids`` overrides the 1-based file-order numbering.
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
        r, c = _palp_ints(header[:2], index, "header")
        if r <= 0 or c <= 0:
            raise DatabaseFormatError(f"record {index}: bad shape {r}x{c}")
        if 3 not in (r, c):
            raise DatabaseFormatError(f"record {index}: no dimension-3 axis in {r}x{c}")
        if pos + r > len(lines):
            raise DatabaseFormatError(f"record {index}: truncated matrix")
        rows = []
        for k in range(r):
            tokens = lines[pos + k].split()
            if len(tokens) != c:
                raise DatabaseFormatError(
                    f"record {index}: row {k} has {len(tokens)} entries, expected {c}"
                )
            rows.append(_palp_ints(tokens, index, "entry"))
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


def read_records(path: str, sidecar: str | None = None) -> list[PolytopeRecord]:
    """The records in ``path``; an id ``sidecar`` applies to PALP input only."""
    if path.lower().endswith(".json"):
        if sidecar is not None:
            raise DatabaseFormatError("id sidecars apply to palp input only")
        return parse_json(path)
    ids = load_id_sidecar(sidecar) if sidecar is not None else None
    return parse_palp(_read_text(path), ids=ids)


def load_id_sidecar(path) -> list[int]:
    """Read an ID sidecar: a JSON array of integer ids, one per PALP block."""
    data = _load_json(path)
    if not isinstance(data, list) or not all(_is_int(i) for i in data):
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
            if not isinstance(entry, dict):
                raise TypeError("must be a JSON object")
            pid = entry["id"]
            verts = entry["vertices"]
            if not _is_int(pid):
                raise TypeError("id must be an integer")
            vertices = tuple(tuple(v) for v in verts)
            if not vertices or any(len(v) != 3 for v in vertices):
                raise ValueError("vertices must be nonempty 3-vectors")
            if not all(_is_int(c) for v in vertices for c in v):
                raise TypeError("coordinates must be integers")
        except (KeyError, TypeError, ValueError) as exc:
            raise DatabaseFormatError(f"record {i}: {exc}") from exc
        records.append(PolytopeRecord(id=pid, vertices=vertices))
    _check_unique_ids(records)
    return records


def _check_lists(data) -> dict:
    """Named id sets in LIST_NAMES order, then the union size if given.

    Any subset of the six lists may be present; the union size, as
    ``fano3 lists`` writes it, must be a JSON integer.
    """
    if not isinstance(data, dict):
        raise DatabaseFormatError("expected-lists file must be a JSON object")
    for name, ids in data.items():
        if name == UNION_KEY:
            if not _is_int(ids):
                raise DatabaseFormatError(f"{UNION_KEY} must be an integer")
        elif name not in LIST_NAMES:
            raise DatabaseFormatError(f"unknown list name {name!r}")
        elif not isinstance(ids, list) or not all(_is_int(i) for i in ids):
            raise DatabaseFormatError(f"list {name} must hold integer ids")
    lists = {name: frozenset(data[name]) for name in LIST_NAMES if name in data}
    if UNION_KEY in data:
        lists[UNION_KEY] = data[UNION_KEY]
    return lists


def load_expected_lists(path) -> dict:
    """Read named id sets, e.g. the output of ``fano3 lists``."""
    return _check_lists(_load_json(path))


def reference_lists() -> dict:
    """The published classification of the 4319 reflexive 3-polytopes.

    ID sets in Graded Ring Database numbering, bundled with the package for
    use as the default target of the verify command.
    """
    text = resources.files("fano3").joinpath("data/expected_lists.json").read_text()
    return _check_lists(json.loads(text))


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
