"""No package module or benchmark script sets a tunable of the C allocator.

A training step keeps its working memory by reusing its own arrays. An
allocator setting (``mallopt``, through ``ctypes``, or a ``MALLOC_*``
environment variable) would hide heap churn from the benchmark instead of
removing it, so none of those names may appear in the sources."""

import re

import pytest

from conftest import matching_lines, sources

SOURCES = sources("src/msignn", "perfbench")
TUNABLE = re.compile(r"mallopt|ctypes|MALLOC_")


def tunables(source: str) -> list[str]:
    """Each line of ``source`` that names an allocator tunable, with its number."""
    return matching_lines(TUNABLE, source)


def test_the_guard_sees_a_tunable():
    source = "import os\nos.environ['MALLOC_TRIM_THRESHOLD_'] = '0'\nimport ctypes\n"
    assert tunables(source) == ["line 2: os.environ['MALLOC_TRIM_THRESHOLD_'] = '0'",
                                "line 3: import ctypes"]
    assert tunables("buffer = np.empty(shape)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_source_sets_an_allocator_tunable(path):
    assert tunables(path.read_text(encoding="utf-8")) == []
