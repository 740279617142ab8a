"""The README's shape: a short Performance manual, live paths, a Library example that runs."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
PATH = re.compile(r"(?<![\w/.-])(?:src|tests|tools|perfbench)/[\w./-]*")
# the external Kreuzer-Skarke file that the skipped acceptance test reads
EXTERNAL = {"tests/data/reflexive3.palp"}


def section(title: str) -> str:
    """The text from the ``## title`` heading to the next ``## `` heading or the end."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_performance_section_is_short():
    words = len(section("Performance").split())
    assert words <= 900, f"README Performance has {words} words"


def test_backticked_paths_exist():
    blocks = FENCE.findall(README)
    spans = re.findall(r"`([^`]+)`", FENCE.sub("", README))
    paths = {p.rstrip(".") for text in blocks + spans for p in PATH.findall(text)}
    assert "tools/stage_times.py" in paths
    missing = sorted(p for p in paths - EXTERNAL if not (ROOT / p).exists())
    assert missing == []


def test_library_example_runs():
    (block,) = FENCE.findall(section("Library"))
    namespace: dict = {}
    exec(compile(block, "README Library", "exec"), namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
            ast.parse(code.strip(), mode="eval")
        except (ValueError, SyntaxError):
            continue  # not an expression commented with its value
        assert eval(code.strip(), namespace) == expected, line
        checked.append(code.strip())
    assert checked == [
        "report.isolated_singular, report.indec_witnesses",
        "report.degree, report.hilbert[:3]",
    ]
