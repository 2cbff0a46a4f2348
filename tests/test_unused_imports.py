"""Every name a package module, test module, demo or benchmark script imports
is used in it, or listed in its ``__all__``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [path for folder in ("src/msignn", "tests", "demos", "perfbench")
           for path in sorted((ROOT / folder).glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never loads or exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_guard_sees_an_import_left_behind():
    source = "from .graph import Graph, GraphBatch\n\ndef f(data: GraphBatch): pass\n"
    assert unused_imports(source) == ["Graph (line 1)"]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
