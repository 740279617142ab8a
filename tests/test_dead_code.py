"""No top-level definition of ``src/fano3`` is dead unless the allowlist names it.

The call graph is static, from the stdlib ``ast`` alone.  It starts from
``cli.main``, the names in ``fano3.__all__`` and the statements each module
runs at import, other than its imports.  From each definition it reaches it
follows every name the definition reads, resolved through the module's own
top-level definitions and its relative imports, and every attribute read
off a module imported by ``from . import``.  A reached class reaches its
whole body.  An import reaches nothing by itself, so a function that only a
``# noqa`` import keeps, for the benchmark's tracer, counts as dead.  Local
names that shadow a top-level one are taken as reads of it, so the graph can
keep a dead definition alive, but never the other way round.

Run as a script, it prints each unreached definition with its line count,
and then the definitions that only ``fano3.__all__`` keeps alive.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fano3"

# unreached top-level definitions, each with the ROADMAP item that deletes it
ALLOWLIST = {
    "_kernels.default_backend": "item 6",
    "intlinalg.det": "item 6",
    "intlinalg.det2": "item 6",
    "intlinalg.extends_to_basis": "item 6",
    "intlinalg.identity": "item 6",
    "intlinalg.inverse_unimodular": "item 6",
    "intlinalg.matvec": "item 6",
    "intlinalg.smith_normal_form": "item 6",
    "intlinalg.solve_height_one": "item 6",
    "polygon.convex_hull_2d": "item 6",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
MAIN = ("cli", "main")


def _package():
    """The modules' definitions, relative imports and top-level statements."""
    definitions, imports, statements = {}, {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(), str(path))
        names = imports[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    # from .m import f -> (m, f); from . import m -> (m, None)
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    names[alias.asname or alias.name] = target
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                definitions[module, node.name] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                statements.append((module, node))
    return definitions, imports, statements


def _reached(roots, definitions, imports, statements):
    """The definitions reached from ``roots`` and from ``statements``."""

    def resolve(module, name):
        while (module, name) not in definitions and name in imports.get(module, {}):
            module, name = imports[module][name]
        return (module, name) if (module, name) in definitions else None

    reached, todo = set(roots), list(statements)
    todo += [(key[0], definitions[key]) for key in roots]
    while todo:
        module, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                key = resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imports[module].get(sub.value.id)
                key = resolve(target[0], sub.attr) if target and target[1] is None else None
            else:
                continue
            if key and key not in reached:
                reached.add(key)
                todo.append((key[0], definitions[key]))
    return reached


def _public(definitions, imports):
    """The definitions that ``fano3.__all__`` names."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    (exported,) = (
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    )
    return {imports["__init__"][name] for name in exported} & definitions.keys()


def _lines(node) -> int:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return node.end_lineno - first + 1


def test_unreached_definitions_are_the_allowlist():
    definitions, imports, statements = _package()
    roots = {MAIN} | _public(definitions, imports)
    reached = _reached(roots, definitions, imports, statements)
    unreached = {f"{m}.{name}": _lines(node) for (m, name), node in definitions.items()
                 if (m, name) not in reached}
    listed = "; ".join(f"{name} ({lines} lines)" for name, lines in sorted(unreached.items()))
    assert sorted(unreached) == sorted(ALLOWLIST), f"unreached: {listed}"


if __name__ == "__main__":
    definitions, imports, statements = _package()
    public = _public(definitions, imports)
    reached = _reached({MAIN} | public, definitions, imports, statements)
    unreached = [key for key in definitions if key not in reached]
    print(f"unreached: {sum(_lines(definitions[key]) for key in unreached)} lines")
    for m, name in sorted(unreached):
        tag = ALLOWLIST.get(f"{m}.{name}", "not in the allowlist")
        print(f"  {m}.{name} {_lines(definitions[m, name])} ({tag})")
    print("kept alive by fano3.__all__ alone:")
    for m, name in sorted(reached - _reached({MAIN}, definitions, imports, statements)):
        print(f"  {m}.{name} {_lines(definitions[m, name])}")
