"""No package module reads an array's ``strides`` or ``base``.

Where a spectrum block's components share one decomposition, it holds one
row for all of them, which numpy broadcasts; the library tells the layouts
apart by row count, never by how numpy laid an array out in memory. So no
source in ``src/msignn`` reads ``.strides`` or ``.base``."""

import re

import pytest

from conftest import matching_lines, sources

SOURCES = sources("src/msignn")
LAYOUT = re.compile(r"\.(strides|base)\b")


def layout_reads(source: str) -> list[str]:
    """Each line of ``source`` that reads an array's strides or base, with its number."""
    return matching_lines(LAYOUT, source)


def test_the_guard_sees_a_layout_read():
    source = "row = a[:1] if a.strides[0] == 0 else a\nx = 1\nshared = b.base is a.base\n"
    assert layout_reads(source) == ["line 1: row = a[:1] if a.strides[0] == 0 else a",
                                    "line 3: shared = b.base is a.base"]
    assert layout_reads("rows = len(a.values)\nbase = np.base_repr(8)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_source_reads_an_array_layout(path):
    assert layout_reads(path.read_text(encoding="utf-8")) == []
