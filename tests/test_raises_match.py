"""Every ``pytest.raises`` in a test module passes ``match=``, so it names the
check it expects to fire and not only the error type."""

import ast

import pytest

from conftest import sources

MODULES = sources("tests")


def raises_without_match(source: str) -> list[int]:
    """The lines of the ``pytest.raises`` calls in ``source`` that pass no ``match=``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "raises" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "pytest"
            and not any(keyword.arg == "match" for keyword in node.keywords)]


def test_the_guard_sees_a_raises_without_match():
    assert raises_without_match("with pytest.raises(ValueError):\n    f()\n") == [1]
    assert raises_without_match("with pytest.raises(ValueError, match='x'):\n    f()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raises_passes_a_match(path):
    assert raises_without_match(path.read_text(encoding="utf-8")) == []
