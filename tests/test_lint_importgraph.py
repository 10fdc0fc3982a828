"""Import-graph builder tests over the ``tests/fixtures/lintpkg`` tree."""

import os

import pytest

from repro.analysis.lint.importgraph import build_graph

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
PKG_ROOT = os.path.join(FIXTURES, "lintpkg")


@pytest.fixture(scope="module")
def graph():
    return build_graph(PKG_ROOT, "lintpkg")


def edge_map(graph):
    return {(e.src, e.dst): e for e in graph.edges}


def test_files_enumerated(graph):
    assert "runner.py" in graph.files
    assert "__init__.py" in graph.files
    assert all(rel.endswith(".py") for rel in graph.files)


def test_eager_import_edge(graph):
    edge = edge_map(graph)[("helper.py", "extra.py")]
    assert not edge.lazy
    assert not edge.via_init
    assert edge.dispatch is None


def test_lazy_import_edge(graph):
    edge = edge_map(graph)[("runner.py", "extra.py")]
    assert edge.lazy


def test_relative_import_resolves_submodule(graph):
    # ``from . import good`` in runner.py
    assert ("runner.py", "good.py") in edge_map(graph)
    # ``from .base import BasePolicy`` in fam_a.py
    edge = edge_map(graph)[("fam_a.py", "base.py")]
    assert not edge.via_init


def test_reexport_import_marks_via_init(graph):
    edge = edge_map(graph)[("reexport_user.py", "__init__.py")]
    assert edge.via_init
    assert edge.symbol == "BasePolicy"


def test_dispatch_marker_recorded(graph):
    edge = edge_map(graph)[("runner.py", "fam_a.py")]
    assert edge.lazy
    assert edge.dispatch == "A"
    assert edge_map(graph)[("lazy.py", "afdep.py")].dispatch == "GHOST"


def test_closure_skips_dispatch_edges(graph):
    closure = graph.closure(("runner.py",))
    assert "fam_a.py" not in closure
    assert "afdep.py" not in closure


def test_closure_includes_init_without_traversing_it(graph):
    closure = graph.closure(("runner.py",))
    # __init__.py enters as an ancestor/re-export target ...
    assert "__init__.py" in closure
    # ... but its own import of base.py is not followed; base.py is
    # present only because good.py imports it directly.
    assert closure == frozenset({
        "__init__.py", "runner.py", "helper.py", "extra.py",
        "good.py", "base.py",
    })


def test_family_closure_adds_entry_and_deps(graph):
    closure = graph.closure(("runner.py", "fam_a.py"))
    assert {"fam_a.py", "afdep.py"} <= closure
