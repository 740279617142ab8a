"""perfbench's tracer rebinds names inside fano3; each one must still exist.

``perfbench/spans.py`` lists (module, attribute, span name) triples, the
span name being <layer>.<function> of the defining module.  A refactor that
drops or renames one of those attributes breaks ``perfbench/run.py
--trace 1``, so the tier-1 suite checks them.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


def test_every_boundary_resolves_to_the_function_it_names():
    boundaries = _boundaries()
    assert boundaries
    for module, attr, span in boundaries:
        layer, function = span.split(".")
        defining = "_kernels" if layer == "kernels" else layer
        rebound = getattr(importlib.import_module(f"fano3.{module}"), attr, None)
        defined = getattr(importlib.import_module(f"fano3.{defining}"), function)
        assert rebound is defined, f"fano3.{module}.{attr} is not {span}"
