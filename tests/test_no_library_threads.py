"""No package module starts a thread or a process.

A library call runs in its caller's thread. A thread of its own would
multiply the process's BLAS threads and make a fork during the call
unsafe, so none of the names that start one may appear in the sources.
``threading.local``, which holds a thread's working memory, starts
nothing and stays allowed."""

import re

import pytest

from conftest import matching_lines, sources

SOURCES = sources("src/msignn")
STARTS = re.compile(r"threading\.Thread|\bThread\(|concurrent\.futures|multiprocessing"
                    r"|subprocess|os\.fork")


def starters(source: str) -> list[str]:
    """Each line of ``source`` that names a way to start a thread or a process,
    with its number."""
    return matching_lines(STARTS, source)


def test_the_guard_sees_a_thread_or_a_process():
    source = ("import os, threading\n_thread = threading.local()\n"
              "threading.Thread(target=run).start()\n"
              "from concurrent.futures import ThreadPoolExecutor\npid = os.fork()\n")
    assert starters(source) == ["line 3: threading.Thread(target=run).start()",
                                "line 4: from concurrent.futures import ThreadPoolExecutor",
                                "line 5: pid = os.fork()"]
    assert starters("_thread = threading.local()\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_library_module_starts_a_thread_or_a_process(path):
    assert starters(path.read_text(encoding="utf-8")) == []
