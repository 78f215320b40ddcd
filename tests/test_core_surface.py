"""The surface of `src/bolext` holds only code that something outside the
tests reaches.

Every top-level function, class and module-level constant of the package
must be read by other package code (a name in `__all__` is a string and
does not count), be imported by `bolext/__init__.py`, be a perfbench tracer
target (read from the text of `perfbench/tracer.py`), or be listed in
`KEPT` with its reason.  Code and data that only tests read belong in
`tests/oracles.py`.  Dunder names (`__all__`) are read by Python itself.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bolext"
TRACER = ROOT / "perfbench" / "tracer.py"

_DEFS = (ast.FunctionDef, ast.ClassDef)

KEPT = {
    "documents:representation_to_doc":
        "writes the canonical round trip of the .rep files the CLI reads",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _defined_names(node):
    """The names a top-level statement defines: a function or class, or the
    plain names a module-level assignment binds."""
    if isinstance(node, _DEFS):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _definitions(trees):
    return {f"{mod}:{name}" for mod, tree in trees.items()
            for node in tree.body for name in _defined_names(node)}


def _read_names(trees):
    """Every name the package reads, as a variable or an attribute, outside
    the definition of that same name (a recursive call is not a reader)."""
    names = set()
    for tree in trees.values():
        for top in tree.body:
            own = _defined_names(top)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    names.add(name)
    return names


def _package_exports(trees):
    return {f"{node.module}:{alias.name}" for node in trees["__init__"].body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _tracer_targets():
    """module:name of each `TARGETS` entry; a method target names its class."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS":
            return {f"{entry.elts[0].value}:{entry.elts[1].value.split('.')[0]}"
                    for entry in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_definition_in_src_has_a_reader_outside_the_tests():
    trees = _trees()
    defined = _definitions(trees)
    read = _read_names(trees)
    reached = {d for d in defined if d.split(":")[1] in read}
    reached |= _package_exports(trees) | _tracer_targets()
    assert sorted(d for d in defined - reached if d not in KEPT) == []
    # a KEPT entry names a definition that nothing else reaches
    assert sorted(set(KEPT) - (defined - reached)) == []


def test_documents_does_not_import_wells():
    tree = _trees()["documents"]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert sorted(m for m in imported if "wells" in m.split(".")) == []
