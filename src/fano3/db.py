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
import json
import sys
from dataclasses import dataclass, fields
from importlib import resources
from operator import attrgetter

from .criteria import ClassificationReport
from .polytope import frozen_builder


class DatabaseFormatError(ValueError):
    """Raised on malformed database input, with the offending record noted."""


def _read_text(path) -> str:
    """The file's text; a leading UTF-8 byte-order mark is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
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


@dataclass(frozen=True, slots=True)
class PolytopeRecord:
    id: int
    vertices: tuple[tuple[int, int, int], ...]


_record = frozen_builder(PolytopeRecord)


def _palp_ints(tokens, index: int, what: str, plain: bool) -> list[int]:
    """The integers of a PALP header or matrix row; an error names the cause.

    An integer is [+-]?[0-9]+.  ``int`` also reads "1_0" and non-ASCII
    digits; on ASCII tokens without "_" or whitespace it takes exactly those.
    ``plain`` says that the whole text is such, and then no row is checked.
    """
    try:
        if plain or (text := "".join(tokens)).isascii() and "_" not in text:
            return list(map(int, tokens))
    except ValueError as exc:  # not an integer, or one over int()'s digit limit
        if not str(exc).startswith("invalid literal"):
            limit = sys.get_int_max_str_digits()
            raise DatabaseFormatError(f"record {index}: {what} over the {limit}-digit limit") from exc
    raise DatabaseFormatError(f"record {index}: non-integer {what}")


def parse_palp(stream, ids: list[int] | None = None) -> list[PolytopeRecord]:
    r"""Parse a PALP-style vertex stream, a str or a text file, into records.

    The header may carry extra tokens after the two dimensions (they are
    ignored).  A 3 x 3 block is read column-wise; it holds three points
    either way, so it is never a 3-polytope and the hull rejects it.
    ``ids`` overrides the 1-based file-order numbering; a BOM may start any line.
    Lines end at "\n", "\r\n" or "\r", as in a text file read with universal
    newlines, and at nothing else.  The integer rule of ``_palp_ints`` is
    decided once for the whole text.
    """
    text = stream if isinstance(stream, str) else stream.read()
    plain = text.isascii() and "_" not in text
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [ln for ln in (raw.removeprefix("\ufeff").strip() for raw in text.split("\n")) if ln]
    records = []
    pos = 0
    index = 0
    while pos < len(lines):
        index += 1
        header = lines[pos].split()
        pos += 1
        if len(header) < 2:
            raise DatabaseFormatError(f"record {index}: malformed header {lines[pos-1]!r}")
        r, c = _palp_ints(header[:2], index, "header", plain)
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
            rows.append(_palp_ints(tokens, index, "entry", plain))
        pos += r
        vertices = tuple(zip(*rows)) if r == 3 else tuple(map(tuple, rows))
        records.append(_record(index, vertices))
    if ids is not None:
        if len(ids) != len(records):
            raise DatabaseFormatError(
                f"sidecar holds {len(ids)} ids for {len(records)} records"
            )
        records = [_record(i, rec.vertices) for i, rec in zip(ids, records)]
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
        if not isinstance(entry, dict):
            cause = "must be a JSON object"
        elif "id" not in entry or "vertices" not in entry:
            cause = "needs an id and vertices"
        elif not _is_int(pid := entry["id"]):
            cause = "id must be an integer"
        elif not (isinstance(verts := entry["vertices"], list) and verts
                  and all(isinstance(v, list) and len(v) == 3 for v in verts)):
            cause = "vertices must be nonempty 3-vectors"
        elif not all(_is_int(c) for v in verts for c in v):
            cause = "coordinates must be integers"
        else:
            records.append(_record(pid, tuple(map(tuple, verts))))
            continue
        raise DatabaseFormatError(f"record {i}: {cause}")
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


# the report's keys as CSV columns: its scalar fields, then its tuple fields
# (multi-valued cells), each in declaration order; the sort is stable
CSV_COLUMNS = tuple(
    f.metadata.get("key", f.name)
    for f in sorted(fields(ClassificationReport), key=lambda f: f.type.startswith("tuple"))
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


# the line breaks of _json_report: f-string braces refuse a backslash before Python 3.12
_JSON = {True: "true", False: "false", None: "null"}
_OPEN, _ITEM, _CLOSE, _PAIR = "[\n   ", ",\n   ", "\n  ]", "[\n    %d,\n    %d\n   ]"
_LABEL = attrgetter("_json_label")  # a facet class's, encoded once per class


def _json_list(values: tuple, render=int.__repr__) -> str:
    return _OPEN + _ITEM.join(map(render, values)) + _CLOSE if values else "[]"


def _json_report(rep: ClassificationReport) -> str:
    """``rep``'s row between its braces, as ``json.dumps(rows, indent=1)`` writes it."""
    j = _JSON
    return (
        f'  "id": {int.__repr__(rep.polytope_id)},\n  "reflexive": {j[rep.reflexive]},\n'
        f'  "facet_classes": {_json_list(rep.facet_classes, _LABEL)},\n'
        f'  "smooth": {j[rep.smooth]},\n  "isolated_singular": {j[rep.isolated_singular]},\n'
        f'  "nodes": {j[rep.nodes]},\n  "totaro_rigid": {j[rep.totaro_rigid]},\n'
        f'  "rigid_face_obstruction": {j[rep.rigid_face_obstruction]},\n'
        f'  "indec_obstruction": {j[rep.indec_obstruction]},\n'
        f'  "aft_obstruction": {j[rep.aft_obstruction]},\n  "low_degree": {j[rep.low_degree]},\n'
        f'  "rigid_face_witnesses": {_json_list(rep.rigid_face_witnesses)},\n'
        f'  "indec_witnesses": {_json_list(rep.indec_witnesses)},\n'
        f'  "aft_witnesses": {_json_list(rep.aft_witnesses, _PAIR.__mod__)},\n'
        f'  "degree": {"null" if rep.degree is None else int.__repr__(rep.degree)},\n'
        f'  "hilbert": {"null" if rep.hilbert is None else _json_list(rep.hilbert)}'
    )


def write_reports(reports, path, format: str = "json") -> None:
    """Persist classification reports, sorted by id, byte-stable across runs.

    JSON is what ``json.dumps`` writes for the ``to_dict`` rows at ``indent=1``, and a newline."""
    reports = sorted(reports, key=lambda rep: rep.polytope_id)
    if format == "json":
        with open(path, "w") as fh:
            sep = "[\n {\n"
            for rep in reports:
                fh.write(sep + _json_report(rep))
                sep = "\n },\n {\n"
            fh.write("\n }\n]\n" if reports else "[]\n")
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in (rep.to_dict() for rep in reports):
                writer.writerow([_csv_cell(row[col]) for col in CSV_COLUMNS])
    else:
        raise ValueError(f"unknown report format {format!r}")
