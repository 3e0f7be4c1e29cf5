"""Every public function, class and method of ``src/centroaffine`` is used
by name somewhere that a route, the report or the acceptance suite runs:
the library itself, ``tools/``, ``perfbench/`` (the names in
``bench_trace.TARGETS`` included, which it wraps by their dotted paths) or
``tests/test_acceptance.py``.  A name that only unit tests read is dead
API: its tests check a copy of what the routes compute.

A use is a load of the name or of an attribute of that name; an import or
an ``__all__`` entry is not a use.  Names are matched alone, so a use of any
definition of that name counts.

Every ``:func:``, ``:meth:``, ``:class:`` and ``:data:`` reference in a
docstring of the package names a definition in the package: a module-level
function, class or assignment, or (as ``Class.name`` or ``name`` alone) a
method or class attribute."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "centroaffine"


def _public_definitions(tree):
    """Shown name and bare name of each public module function, class and
    method (of a public class) of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                        yield f"{node.name}.{f.name}", f.name


def _trace_targets(tree):
    """The dotted names of ``TARGETS`` in ``perfbench/bench_trace.py``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            for _, _, dotted in ast.literal_eval(node.value):
                yield from dotted.split(".")


def used_names() -> set:
    paths = [p for top in ("src", "tools", "perfbench") for p in sorted((ROOT / top).rglob("*.py"))]
    paths.append(ROOT / "tests" / "test_acceptance.py")
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
        if path.name == "bench_trace.py":
            used.update(_trace_targets(tree))
    return used


def unused_names() -> list:
    used = used_names()
    return [
        f"{path.stem}.{shown}"
        for path in sorted(PACKAGE.glob("*.py"))
        for shown, name in _public_definitions(ast.parse(path.read_text()))
        if name not in used
    ]


def test_every_public_name_is_used_outside_the_unit_tests():
    assert unused_names() == []


REFERENCE = re.compile(r":(?:func|meth|class|data):`~?([\w.]+)`")


def _definitions(tree):
    """Names defined at module level, and the members of each class, of a module."""
    names, members = set(), {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            own = members.setdefault(node.name, set())
            for f in node.body:
                if isinstance(f, ast.FunctionDef):
                    own.add(f.name)
                elif isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name):
                    own.add(f.target.id)
                elif isinstance(f, ast.Assign):
                    own.update(t.id for t in f.targets if isinstance(t, ast.Name))
    return names, members


def dangling_references() -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    names, members = set(), {}
    for tree in trees.values():
        module_names, module_members = _definitions(tree)
        names |= module_names
        for cls, own in module_members.items():
            members.setdefault(cls, set()).update(own)
    names |= set().union(*members.values())
    dangling = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            for target in REFERENCE.findall(ast.get_docstring(node) or ""):
                owner, _, member = target.rpartition(".")
                if member not in (members.get(owner, set()) if owner else names):
                    dangling.append(f"{stem}: {target}")
    return dangling


def test_every_docstring_reference_names_a_definition():
    assert dangling_references() == []
