import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modgap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads. A name counts as read when it
    appears as a bare name (`np`) or as the root of an attribute chain
    (`np.linalg`); `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_scan_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: math", "line 2: path"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.linalg\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PERFBENCH = SRC.parents[1] / "perfbench"

# definitions that nothing in src/modgap or perfbench reads, kept on purpose
KEEP = {
    "level_average": "the oracle of the NewSpaceProjector tests and of acceptance check C01",
    "mu1_decay": "acceptance check C08, the exponential decay of the positive majorant",
    "NewSpaceProjector.apply": "perfbench's tracer patches it by name",
}


def unread_definitions(sources: list[str], readers: list[str]) -> list[str]:
    """Top-level functions and classes, and their methods other than dunders,
    defined in `sources` that no source in `sources + readers` reads. A
    top-level definition is read by a loaded bare name (`f`) or attribute
    (`x.f`). A method, reported as `Class.method`, is read only by a loaded
    attribute whose base is not an imported module: neither `np.abs` nor the
    builtin `abs` reads a method `abs`."""
    trees = [ast.parse(s) for s in sources]
    read, read_as_attribute = set(), set()
    for tree in trees + [ast.parse(s) for s in readers]:
        modules = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
                if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                    read_as_attribute.add(node.attr)
    unread = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read:
                unread.append(node.name)
            if isinstance(node, ast.ClassDef):
                unread += [f"{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                           and item.name not in read_as_attribute]
    return sorted(unread)


def test_scan_flags_an_unread_definition():
    source = ("def used(): pass\ndef unused(): pass\n"
              "class C:\n    def __init__(self): pass\n    def m(self): pass\n"
              "    def n(self): pass\nused()\nC().m\n")
    # a store is not a read
    assert unread_definitions([source], ["x.n = 1\n"]) == ["C.n", "unused"]
    assert unread_definitions([source], ["C.n(c)\nunused\n"]) == []
    # a module attribute or a bare name of the same name reads no method
    assert unread_definitions([source], ["import numpy as np\nnp.n\nn\n"]) == ["C.n", "unused"]


def test_every_definition_is_read():
    sources = [p.read_text() for p in MODULES]
    readers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert unread_definitions(sources, readers) == sorted(KEEP)
