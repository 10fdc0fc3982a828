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


def test_lazy_import_edge(graph):
    edge = edge_map(graph)[("runner.py", "extra.py")]
    assert edge.lazy


def test_relative_import_resolves_submodule(graph):
    # ``from . import good`` in runner.py
    assert ("runner.py", "good.py") in edge_map(graph)
    # ``from .base import BasePolicy`` in fam_a.py
    assert ("fam_a.py", "base.py") in edge_map(graph)


def test_reexport_import_targets_the_init(graph):
    # ``from lintpkg import BasePolicy``: no module named BasePolicy, so
    # the edge points at the package __init__ that defines the name.
    assert [e.dst for e in graph.edges if e.src == "reexport_user.py"] \
        == ["__init__.py"]


def test_closure_follows_lazy_imports(graph):
    # runner.py imports fam_a.py inside a function; fam_a.py's own
    # dependency comes along with it.
    assert graph.closure(("runner.py",)) == frozenset({
        "__init__.py", "runner.py", "helper.py", "extra.py",
        "good.py", "base.py", "fam_a.py", "afdep.py",
    })


def test_closure_includes_init_without_traversing_it(graph):
    # extra.py imports nothing: __init__.py enters only as its ancestor
    # package, so the __init__'s own import of base.py is not followed.
    assert graph.closure(("extra.py",)) == frozenset({
        "__init__.py", "extra.py"})


def test_closure_traverses_an_imported_init(graph):
    # A symbol imported from the package runs its __init__, whose
    # imports (the re-exported base.py) join the closure.
    assert graph.closure(("reexport_user.py",)) == frozenset({
        "__init__.py", "reexport_user.py", "base.py"})


def test_family_closure_adds_entry_and_deps(graph):
    closure = graph.closure(("runner.py", "fam_a.py"))
    assert {"fam_a.py", "afdep.py"} <= closure
