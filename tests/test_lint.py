"""Static checks on the package sources, and on the library names the
benchmark reads from them, that need no linter installed."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "planarloops"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = ROOT / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references, with their line numbers.

    A reference is any bare name in the module, so `os.path.join` uses `os`;
    names that appear only inside string annotations do not count.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_detected():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)", "os (line 1)"]
    assert unused_imports("import os.path\nos.path.join('x')\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_benchmark_finds_every_library_name_it_uses(monkeypatch):
    """The benchmark reaches the library through module attributes, so a
    renamed or deleted name would only fail when it runs: the tracer patches
    and restores every function it times, the operation counter every
    arithmetic method, and each C./D./L./F./H. attribute that the workloads
    read resolves."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    with tracing.counting_coeff_ops(Counter()):
        pass
    modules = {name: getattr(workloads, name) for name in "CDLFH"}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    missing = [f"{m}.{a}" for m, a in sorted(used) if not hasattr(modules[m], a)]
    assert used and missing == []
