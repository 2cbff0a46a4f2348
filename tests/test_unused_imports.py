"""Every name a package module, test module, demo or benchmark script imports
is used in it, or listed in its ``__all__``; every private name the package
defines at module level is loaded somewhere in the package."""

import ast

import pytest

from conftest import sources

MODULES = sources("src/msignn", "tests", "demos", "perfbench")


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


def unloaded_private_names(sources: dict[str, str]) -> list[str]:
    """The ``_name`` functions, classes and constants that the modules
    ``{module: source}`` define at module level but none of them loads, by
    name or as an attribute, as ``module:name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unloaded = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            unloaded += [f"{module}:{name}" for name in names
                         if name.startswith("_") and not name.startswith("__")
                         and name not in loaded]
    return unloaded


def test_every_private_name_of_the_package_is_loaded_in_it():
    assert unloaded_private_names({"a": "_K = 1\ndef _f(): pass\n", "b": "f = a._f\n"}) == ["a:_K"]
    assert unloaded_private_names({path.stem: path.read_text(encoding="utf-8")
                                   for path in sources("src/msignn")}) == []
