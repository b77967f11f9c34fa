"""API reachability: every public top-level function and class of the
package is loaded, by name or as an attribute, somewhere in ``src/``,
``scripts/`` or ``perfbench/``; every public method or property of a
package class is loaded there as an attribute.  A use inside the
definition's own body does not count.  A helper only tests need belongs
in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qisograph"

#: "module.name" or "module.Class.method" -> why it stays without a caller
ALLOWED = {
    "ncpoly.ustar": "the u* constructor beside q and u; tests build free-unitary "
                    "words with it, while the package builds u* generators by kind",
}


def _loads(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _attribute_loads(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _sources() -> list[tuple[Path, ast.Module]]:
    return [(path, ast.parse(path.read_text(), str(path)))
            for path in sorted(p for d in ("src", "scripts", "perfbench")
                               for p in (ROOT / d).rglob("*.py"))]


def unreached_definitions() -> set[str]:
    """"module.name" of each public top-level function or class of the
    package that no other top-level statement loads."""
    definitions = []                                  # (file, name)
    loads: dict[tuple[Path, str | None], set[str]] = {}
    for path, tree in _sources():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            loads.setdefault((path, own), set()).update(_loads(stmt))
            if (path.parent == PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not own.startswith("_")):
                definitions.append((path, own))
    return {f"{path.stem}.{name}" for path, name in definitions
            if not any(name in names for site, names in loads.items() if site != (path, name))}


def unreached_methods() -> set[str]:
    """"module.Class.method" of each public method or property of a
    package class whose name no attribute load outside its own body
    reads."""
    sources = _sources()
    total = Counter()
    for _, tree in sources:
        total.update(_attribute_loads(tree))
    out = set()
    for path, tree in sources:
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and total[fn.name] == _attribute_loads(fn)[fn.name]):
                    out.add(f"{path.stem}.{cls.name}.{fn.name}")
    return out


def test_every_public_definition_has_a_caller():
    assert sorted(unreached_definitions() - ALLOWED.keys()) == []


def test_every_public_method_has_a_caller():
    assert sorted(unreached_methods() - ALLOWED.keys()) == []


def test_allowlist_holds_only_unreached_definitions():
    assert ALLOWED.keys() <= unreached_definitions() | unreached_methods()
