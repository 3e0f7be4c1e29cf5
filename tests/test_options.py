"""Every defaulted parameter of a function in ``src/centroaffine`` is set by
some call in the repository: an option that no caller passes is a constant.

A call counts for a parameter when it passes it by keyword, reaches its
position with positional arguments, or passes ``*args`` or ``**kwargs``.
Calls are matched by the called name (a function, a method, or a class for
its ``__init__``), so a call to any function of that name counts."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _functions(tree):
    """(called name, shown name, def) of each module function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef):
                    yield (node.name if f.name == "__init__" else f.name), f"{node.name}.{f.name}", f


def _defaulted(args: ast.arguments):
    """(position or None, name) of each parameter with a default."""
    positional = args.posonlyargs + args.args
    offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
    for i in range(len(positional) - len(args.defaults), len(positional)):
        yield i - offset, positional[i].arg
    yield from ((None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _sets(call: ast.Call, position, name: str) -> bool:
    if any(k.arg in (None, name) for k in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def unset_options() -> list:
    calls = defaultdict(list)
    for top in ("src", "tests", "perfbench", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    calls[f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)].append(node)
    unset = []
    for path in sorted((ROOT / "src" / "centroaffine").glob("*.py")):
        for called, shown, func in _functions(ast.parse(path.read_text())):
            for position, param in _defaulted(func.args):
                if not any(_sets(c, position, param) for c in calls[called]):
                    unset.append(f"{path.stem}.{shown}({param})")
    return unset


def test_every_option_has_a_setter():
    assert unset_options() == []
