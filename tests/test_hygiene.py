import ast
import json
import os
import subprocess
import sys
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


# parameters that a body never reads, kept on purpose
KEEP_PARAMETERS = {
    "spectral.eta_gap(seed)": "perfbench alone passes seed= (eta-gaps workload, reference script)",
    "decouple.make_context(r_prime)": "perfbench/regen_refs.py passes it positionally",
    **{f"cli.{cmd}(args)": "every subcommand has the one dispatch signature cmd(args)"
       for cmd in ("cmd_delta_estimate", "cmd_decouple_verify", "cmd_opnorm",
                   "cmd_verify_lemmas", "cmd_schottky_check")},
}


def unread_parameters(source: str, module: str) -> list[str]:
    """Parameters of the functions and methods in `source`, reported as
    `module.Class.function(name)`, that their body never reads. A parameter
    is read by a loaded bare name anywhere in the body, nested definitions
    included; `self` and `cls` are exempt, and defaults are not the body."""
    unread = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                          if p is not None and p.arg not in ("self", "cls")]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread.extend(f"{name}({p})" for p in params if p not in read)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(source), module)
    return unread


def test_scan_flags_an_unread_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n    b = 2\n    return c, kw\n"
              "class C:\n    def m(self, x, y=None):\n        def inner():\n            return x\n"
              "        return inner\n")
    # a store is not a read, a nested read is, and self is exempt
    assert unread_parameters(source, "mod") == ["mod.f(a)", "mod.f(b)", "mod.f(args)",
                                                "mod.C.m(y)"]
    assert unread_parameters("def g(x, y=x):\n    pass\n", "mod") == ["mod.g(x)", "mod.g(y)"]


def test_every_parameter_is_read():
    unread = [u for p in MODULES for u in unread_parameters(p.read_text(), p.stem)]
    assert sorted(unread) == sorted(KEEP_PARAMETERS)


def test_a_sweep_and_a_decoupled_bound_leave_numpy_ma_unimported():
    # the plain form of np.unique imports numpy.ma on its first call (numpy
    # 2.4), 11-13 ms of every process that reaches it
    code = "\n".join([
        "import sys",
        "from modgap.decouple import decoupled_upper_bound, fit_decoupling_constant, "
        "flatness_ratio",
        "from modgap.spectral import main_sweep",
        "from modgap.symdyn import zaremba_system",
        "spec = zaremba_system([1, 2])",
        "main_sweep(spec, [8], 0.5322, b=1.0, L=2, c_log=2.2, r_prime_min=2)",
        "fitted = fit_decoupling_constant(spec, 0.5322, base=0.0)",
        "decoupled_upper_bound(spec, 8, 0.5322, 3, 2, fitted, base=0.0)",
        # the survey's members by image, and the gathers held through a middle step
        "flatness_ratio(spec, 0.5322, 4, base=0.0)",
        "decoupled_upper_bound(spec, 8, 0.5322, 2, 3, fitted, base=0.0)",
        "print('numpy.ma' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_default_verify_lemmas_builds_no_dense_matrix(monkeypatch, tmp_path, capsys):
    from modgap import spectral
    from modgap.cli import main

    def dense(*args, **kwargs):
        raise AssertionError("a |G| x |G| matrix was built")

    monkeypatch.setattr(spectral, "dense_conv_matrix", dense)
    monkeypatch.setattr(spectral, "dense_subspace_projector", dense)
    cfg = tmp_path / "c.json"
    cfg.write_text('{"a": 0.5322}')
    rpt = tmp_path / "r.json"
    assert main(["verify-lemmas", "--config", str(cfg), "--report", str(rpt)]) == 0
    capsys.readouterr()
    checks = json.loads(rpt.read_text())["checks"]
    assert all(c["status"] == "pass" for c in checks)
    # every default modulus, 16 past the dense oracles' 2500 included
    assert {c["name"]: c["multiplicity"] for c in checks if "multiplicity" in c} == {
        f"trace identity q={q}": m
        for q, m in zip((4, 5, 7, 8, 9, 11, 13, 16), (3, 3, 16, 4, 8, 12, 7, 6))}
