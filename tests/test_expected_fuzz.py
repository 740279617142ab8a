"""A seeded mutation test of the expected-lists reader against the oracle reader.

Each text is an expected-lists file for a two-record database, the pentagon
pyramid (id 1) and the simplex of P^3 (id 2): some of the six lists, each
with its true ids or with one more, and ``union_indec_aft`` or not; one
text in twenty is that object in an array, or ``null``.  Each takes no
to three mutations: a token inserted or written over a character or a
number, a character deleted, the text cut short, or a slice of it repeated.
The tokens are JSON punctuation, ``true``, ``null``, ``1.5``, ``1e3``,
``"1"``, ``-0``, entries of an unknown name, of a repeated list and of the
union, byte-order marks, NUL, a run of 5000 digits and a run of 100000
``[``.  For every text, written to a ``.json`` file,
``db.load_expected_lists`` and ``oracles.read_expected_lists`` must both
reject it or both return the same lists, and a rejection must name its
cause in the reader's own words.  ``fano3 verify --expected`` on every text
must exit 2 with one ``error:`` line and nothing else on a rejected one, and
else 0 exactly when every list given, and the union size if given, match
the database's true lists.
"""

from __future__ import annotations

import json
import random
import re

import oracles
from conftest import PYRAMID, TETRAHEDRON
from fano3 import db
from fano3.cli import main

# the lists of the database, written by hand as in tools/smoke.sh
TRUE_LISTS = {"L_smooth": [2], "L_isol": [1], "L_nodes": [], "L_low": [], "L_indec": [],
              "L_aft": [], "union_indec_aft": 0}
TOKENS = (
    "[", "]", "{", "}", ",", ":", '"', "true", "null", "1.5", "1e3", '"1"', "-0",
    '"L_other": [1], ', '"L_Smooth": [], ', '"union": 0, ', '"L_isol": [1], ',
    '"union_indec_aft": 0, ', "\ufeff", "\x00", "7" * 5000, "[" * 100000,
)
CASES = 500

# the reader's words for each fault that the oracle names
CAUSES = {
    "object": "expected-lists file must be a JSON object",
    "union": "union_indec_aft must be an integer",
    "name": "unknown list name {key!r}",
    "ids": "list {key} must hold integer ids",
}
NOT_JSON = re.compile(r".*\.json: not valid JSON \(.+\)")
JSON_NULL = re.compile("[ \t\n\r]*null[ \t\n\r]*")  # JSON's whitespace only


def _lists(rng: random.Random) -> str:
    data = {}
    for name in rng.sample(oracles.LIST_NAMES, rng.randrange(7)):
        ids = TRUE_LISTS[name] + [rng.randrange(-1, 4)] * (rng.random() < 0.3)
        data[name] = rng.sample(ids, len(ids))
    if rng.random() < 0.5:
        data["union_indec_aft"] = rng.choice((0, 0, 1))
    if rng.random() < 0.05:  # no JSON object
        data = rng.choice(([data], None))
    return json.dumps(data, indent=rng.choice((None, 1)))


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
    # a token goes to a number, which a replacement writes over whole, just
    # inside an id array, as an id of its own, just inside the object, where
    # a key may go, at the start, or anywhere
    place = rng.choice(("number", "number", "array", "array", "object", "start", "any"))
    numbers = list(re.finditer("-?[0-9]+", text))
    if place == "number" and numbers:
        number = rng.choice(numbers)
        end = number.end() if op == "replace" else number.start()
        return text[:number.start()] + token + text[end:]
    if place in ("array", "object"):
        opens = [m.end() for m in re.finditer("{" if place == "object" else r"\[", text)]
        i = rng.choice(opens) if opens else 0
        comma = place == "array" and text[i:].lstrip()[:1] not in ("]", "")
        return text[:i] + token + ", " * comma + text[i:]
    if place == "start":
        return token + text
    i = rng.randrange(len(text) + 1)
    return text[:i] + token + text[i + (op == "replace"):]


def _cases(rng: random.Random):
    for _ in range(CASES):
        text = _lists(rng)
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            text = _mutate(rng, text)
        yield text


def test_expected_lists_reader_agrees_with_the_oracle(tmp_path, capsys):
    database = tmp_path / "db.json"
    database.write_text(json.dumps([{"id": i, "vertices": [list(v) for v in pts]}
                                    for i, pts in ((1, PYRAMID), (2, TETRAHEDRON))]))
    path = tmp_path / "expected.json"
    seen = set()
    for case, text in enumerate(_cases(random.Random(0xE15))):
        path.write_bytes(text.encode())
        expected = oracles.read_expected_lists(text)
        try:
            got = db.load_expected_lists(str(path))
            message = None
        except db.DatabaseFormatError as exc:
            got, message = None, str(exc)
        assert got == expected, (case, text[:200])
        if expected is None:
            data = oracles.load_json_db(text)
            kind, key = oracles.expected_lists_fault(data)
            if data is None and not JSON_NULL.fullmatch(text.removeprefix("\ufeff")):
                kind = "json"
                assert NOT_JSON.fullmatch(message), (case, message[:200])
            else:
                assert message == CAUSES[kind].format(key=key), (case, message[:200])
            seen.add(kind)
        else:
            seen.add("accepted")

        code = main(["verify", str(database), "--expected", str(path)])
        out, err = capsys.readouterr()
        if expected is None:
            assert (code, out, err) == (2, "", f"error: {message}\n"), case
        else:
            match = all(set(TRUE_LISTS[key]) == ids if key in oracles.LIST_NAMES
                        else TRUE_LISTS[key] == ids for key, ids in expected.items())
            assert (code, err) == (0 if match else 1, ""), case
            seen.add(("match", match))
    # every fault, and both verdicts of an accepted text, were reached
    assert seen == {"json", "object", "union", "name", "ids", "accepted",
                    ("match", True), ("match", False)}
