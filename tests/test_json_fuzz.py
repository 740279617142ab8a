"""A seeded mutation test of the JSON database reader against the oracle reader.

Each text is a small valid JSON database of one to three records, its
coordinates of one digit or, moved by a shear, of several, with one to three
mutations: a token inserted or written over a character or a number, a
character deleted, the text cut short, or a slice of it repeated.  The
tokens are JSON punctuation, ``true``, ``null``, ``1.5``, ``1e3``, ``"1"``,
``-0``, a repeated key, byte-order marks, NUL, a run of 5000 digits and a
run of 100000 ``[``.  For every text, written to a ``.json`` file,
``db.read_records`` and ``oracles.read_json_db`` must both reject it or both
return the same ids and vertices, and a rejection must name its cause in the
reader's own words.  ``fano3 lists`` on every eighth file must exit 0 or 2,
with one ``error:`` line and no traceback on 2, and 0 only when the oracle
accepts the text.
"""

from __future__ import annotations

import json
import random
import re

import oracles
from conftest import AFT_FIXTURE, OCTAHEDRON, PYRAMID, TETRAHEDRON, apply_matrix, large_shear
from fano3 import db
from fano3.cli import main

TOKENS = (
    "[", "]", "{", "}", ",", ":", '"', "true", "null", "1.5", "1e3", '"1"', "-0",
    '"id": 4, ', '"vertices": [[1, 0, 0]], ', "\ufeff", "\x00", "7" * 5000, "[" * 100000,
)
CASES = 1000
CLI_EVERY = 8  # the command line runs on every eighth text

# the reader's words for each fault of a record that the oracle names
CAUSES = {
    "object": "must be a JSON object",
    "keys": "needs an id and vertices",
    "id": "id must be an integer",
    "vertices": "vertices must be nonempty 3-vectors",
    "coordinates": "coordinates must be integers",
}
# its words for a text that is no JSON array
NO_ARRAY = re.compile(r".*\.json: not valid JSON \(.+\)|top level must be a JSON array of records")


def _database(rng: random.Random) -> str:
    shapes = (TETRAHEDRON, OCTAHEDRON, PYRAMID, AFT_FIXTURE)
    rows = []
    for pid in rng.sample(range(-3, 12), rng.randrange(1, 4)):
        vertices = rng.choice(shapes)
        if rng.random() < 0.5:  # coordinates of several digits
            vertices = apply_matrix(large_shear(rng, bound=99), vertices)
        rows.append({"id": pid, "vertices": [list(v) for v in vertices]})
    return json.dumps(rows, indent=rng.choice((None, 1)))


def _mutate(rng: random.Random, text: str) -> str:
    op = rng.choice(("insert", "insert", "replace", "delete", "truncate", "duplicate"))
    if op == "truncate":
        return text[:rng.randrange(len(text) + 1)]
    if op == "duplicate":
        i = rng.randrange(len(text) + 1)
        j = rng.randrange(i, len(text) + 1)
        return text[:j] + text[i:j] + text[j:]
    if op == "delete":
        i = rng.randrange(len(text)) if text else 0
        return text[:i] + text[i + 1:]
    token = rng.choice(TOKENS)
    # a third of the tokens go to a number, which a replacement writes over
    # whole, a third anywhere, and the rest are put at the start, just inside
    # an object, where a key may go, or before one, as a record of its own
    place = rng.choice(("number", "number", "number", "any", "any", "any", "start", "object",
                        "record"))
    numbers = list(re.finditer("-?[0-9]+", text))
    if place == "number" and numbers:
        number = rng.choice(numbers)
        end = number.end() if op == "replace" else number.start()
        return text[:number.start()] + token + text[end:]
    if place == "start":
        return token + text
    if place in ("object", "record"):
        braces = list(re.finditer("{", text))
        i = rng.choice(braces).span()[place == "object"] if braces else 0
        return text[:i] + token + ", " * (place == "record") + text[i:]
    i = rng.randrange(len(text) + 1)
    return text[:i] + token + text[i + (op == "replace"):]


def _cases(rng: random.Random):
    for _ in range(CASES):
        text = _database(rng)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            text = _mutate(rng, text)
        yield text


def _cause(text: str) -> str | None:
    """The start of the reader's message on a text that the oracle rejects, if
    the text is a JSON array: its first faulty record, else a repeated id."""
    data = oracles.load_json_db(text)
    if type(data) is not list:
        return None
    for k, fault in enumerate(map(oracles.json_record_fault, data)):
        if fault:
            return f"record {k}: {CAUSES[fault]}"
    return "duplicate polytope id "


def test_json_reader_agrees_with_the_oracle(tmp_path, capsys):
    path = tmp_path / "db.json"
    seen = set()
    for case, text in enumerate(_cases(random.Random(0x750A))):
        path.write_bytes(text.encode())
        expected = oracles.read_json_db(text)
        try:
            got = [(rec.id, rec.vertices) for rec in db.read_records(str(path))]
        except db.DatabaseFormatError as exc:
            cause = _cause(text)
            message = str(exc)
            assert NO_ARRAY.fullmatch(message) if cause is None else message.startswith(cause), (
                case, message[:200])
            got = None
        assert got == expected, (case, text[:200])
        kinds = {"true": "true" in text, "null": "null" in text, "1.5": "1.5" in text,
                 "1e3": "1e3" in text, '"1"': '"1"' in text, "-0": re.search("-0(?![0-9])", text),
                 "repeated key": '"id": 4, ' in text or '"vertices": [[1, 0, 0]], ' in text,
                 "bom": "\ufeff" in text, "\x00": "\x00" in text, "5000 digits": "7" * 5000 in text,
                 "deep": "[" * 100000 in text}
        seen.update((kind, expected is not None) for kind, hit in kinds.items() if hit)

        if case % CLI_EVERY:
            continue
        code = main(["lists", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2), case
        if code == 2:
            assert out == "" and err.startswith("error: "), case
            assert err.count("\n") == 1 and "Traceback" not in err, case
        else:
            assert err == "" and expected is not None, case
    # each token class reached a rejected text, and each that a valid text
    # may hold reached an accepted one
    for kind in ("true", "null", "1.5", "1e3", '"1"', "-0", "repeated key", "bom", "\x00",
                 "5000 digits", "deep"):
        assert (kind, False) in seen, kind
    for kind in ("-0", "repeated key", "bom"):
        assert (kind, True) in seen, kind
