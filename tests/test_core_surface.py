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


def test_classification_has_one_path_and_no_pairwise_search():
    # `classify_rows` classes every fiber by cosets: it reads neither the
    # fiber's kind nor the pairwise search, and no pairwise classifier or
    # verdict pass is defined in src (they are oracles in tests/oracles.py)
    trees = _trees()
    rows = next(node for node in trees["extensions"].body
                if isinstance(node, ast.FunctionDef) and node.name == "classify_rows")
    read = {node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(rows) if isinstance(node, (ast.Attribute, ast.Name))}
    assert sorted(read & {"is_abelian", "solve_equivalence", "_pairwise_classes"}) == []
    assert sorted(name for name in _definitions(trees)
                  if name.split(":")[1].startswith("_pairwise")) == []


def _calls(tree):
    """(enclosing top-level function, callee name, call node) per call in
    a module."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(
                        func, "id", None)
                    yield top, name, node


def test_no_map_decision_reaches_identity_mask():
    # the decisions about a map phi (`EQV`, `IND`, `Z1`) read the orbit or a
    # kernel: no function in src hands one of their tables to
    # `identity_mask`, directly or through a parameter of its own, and the
    # per-map searches are oracles in tests/oracles.py
    trees = _trees()
    # callee name -> the argument positions that reach identity_mask's suite
    sinks = {"identity_mask": {0}}
    calls = [call for tree in trees.values() for call in _calls(tree)]
    grown = True
    while grown:
        grown = False
        for top, name, node in calls:
            params = [a.arg for a in top.args.args]
            for at in tuple(sinks.get(name, ())):
                arg = node.args[at] if at < len(node.args) else None
                if isinstance(arg, ast.Name) and arg.id in params:
                    known = sinks.setdefault(top.name, set())
                    grown |= params.index(arg.id) not in known
                    known.add(params.index(arg.id))
    handed = [(top.name, name) for top, name, node in calls for at in sinks.get(name, ())
              if at < len(node.args) and {n.attr if isinstance(n, ast.Attribute) else n.id
                                          for n in ast.walk(node.args[at])
                                          if isinstance(n, (ast.Attribute, ast.Name))}
              & {"EQV", "IND", "Z1"}]
    assert handed == []
    assert sorted(name for name in _definitions(trees)
                  if name.split(":")[1] in ("_phi_solutions", "_search_phi")) == []
