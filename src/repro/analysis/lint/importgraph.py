"""Static import graph of a Python package (stdlib ``ast`` only).

Builds a file-level import graph without executing any code: every
``import`` / ``from ... import`` statement in every module of the package
becomes an edge to the module file it resolves to (imports of external
packages are ignored).  The graph derives the determinism linter's scope
(the code a cached sweep cell can run), so its semantics are
deliberately conservative:

* **Function-level (lazy) imports count.**  A module imported inside a
  function still runs that module's code when the function executes, so
  it can affect results exactly like a top-level import.
* **``from pkg import name``** resolves to the module ``pkg/name.py``
  when one exists; otherwise it is a *symbol* import and the edge
  targets ``pkg`` itself (``pkg/__init__.py`` for a package).
* **An imported package ``__init__`` is traversed; an ancestor one is
  not.**  Importing from ``pkg`` runs ``pkg/__init__.py`` and whatever
  it imports (a registry such as ``policies.BASELINE_POLICIES`` reaches
  its modules that way), so closures follow its edges.  Importing
  ``repro.a.b`` also executes ``repro/__init__.py`` and
  ``repro/a/__init__.py``; closures include those ancestor files but do
  not follow their imports, which would pull in every sibling module
  (the CLI's harnesses and analyses) that the entry code never calls.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass

__all__ = ["ImportEdge", "ImportGraph", "build_graph"]


@dataclass(frozen=True)
class ImportEdge:
    """One import statement resolved inside the package."""

    src: str           # module file, relative to the package root
    dst: str           # target module file, relative to the package root
    lineno: int
    lazy: bool         # statement sits inside a function body


class ImportGraph:
    """File-level import graph of one package tree."""

    def __init__(self, root: str, package: str, files: tuple[str, ...],
                 edges: tuple[ImportEdge, ...]) -> None:
        self.root = root          # directory containing the package source
        self.package = package    # top-level package name, e.g. "repro"
        self.files = files        # every module file, package-relative
        self.edges = edges
        self._file_set = frozenset(files)
        self._out: dict[str, list[ImportEdge]] = {}
        for edge in edges:
            self._out.setdefault(edge.src, []).append(edge)

    def edges_from(self, rel: str) -> tuple[ImportEdge, ...]:
        return tuple(self._out.get(rel, ()))

    def ancestor_inits(self, rel: str) -> tuple[str, ...]:
        """Every package ``__init__.py`` executed when ``rel`` is
        imported (outermost first), excluding ``rel`` itself."""
        inits = []
        parts = rel.split("/")[:-1]
        for depth in range(len(parts) + 1):
            init = "/".join(parts[:depth] + ["__init__.py"]) \
                if depth else "__init__.py"
            if init != rel and init in self._file_set:
                inits.append(init)
        return tuple(inits)

    def closure(self, entries: tuple[str, ...]) -> frozenset[str]:
        """Transitive import closure of the entry files.

        Follows every edge, lazy ones included, and so traverses each
        ``__init__`` that a visited file imports from; then adds every
        visited file's ancestor ``__init__`` files without following
        their imports.
        """
        seen: set[str] = set()
        stack = list(entries)
        while stack:
            rel = stack.pop()
            if rel in seen:
                continue
            seen.add(rel)
            stack.extend(edge.dst for edge in self.edges_from(rel))
        for rel in tuple(seen):
            seen.update(self.ancestor_inits(rel))
        return frozenset(seen)


def _module_files(root: str) -> tuple[str, ...]:
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                files.append(os.path.relpath(full, root).replace(os.sep, "/"))
    return tuple(files)


def _rel_to_module(rel: str, package: str) -> str:
    """``experiments/parallel.py`` -> ``repro.experiments.parallel``."""
    if rel.endswith("/__init__.py"):
        rel = rel[: -len("/__init__.py")]
    elif rel == "__init__.py":
        return package
    elif rel.endswith(".py"):
        rel = rel[:-3]
    return package + "." + rel.replace("/", ".")


def _module_to_rel(module: str, package: str,
                   files: frozenset[str]) -> str | None:
    """Dotted module name -> package-relative file, if it is ours."""
    if module != package and not module.startswith(package + "."):
        return None
    sub = module[len(package):].lstrip(".")
    candidate = (sub.replace(".", "/") + ".py") if sub else "__init__.py"
    if candidate in files:
        return candidate
    init = (sub.replace(".", "/") + "/__init__.py") if sub \
        else "__init__.py"
    if init in files:
        return init
    return None


class _ImportCollector(ast.NodeVisitor):
    """Collects resolved import edges for one module file."""

    def __init__(self, rel: str, module: str, package: str,
                 files: frozenset[str]) -> None:
        self.rel = rel
        self.module = module
        self.package = package
        self.files = files
        self.depth = 0  # function nesting
        self.edges: list[ImportEdge] = []

    # -- function nesting (lazy detection) ------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    # -- edges -----------------------------------------------------------

    def _add(self, node: ast.stmt, module: str) -> None:
        dst = _module_to_rel(module, self.package, self.files)
        if dst is None:
            return
        self.edges.append(ImportEdge(src=self.rel, dst=dst,
                                     lineno=node.lineno,
                                     lazy=self.depth > 0))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:  # relative import: resolve against our package
            if self.rel.endswith("__init__.py"):
                pkg_parts = self.module.split(".")
            else:
                pkg_parts = self.module.split(".")[:-1]
            drop = node.level - 1
            if drop > len(pkg_parts):
                return  # escapes the package: not ours
            parts = pkg_parts if drop == 0 else pkg_parts[:-drop]
            base = ".".join(parts)
            if node.module:
                base = base + "." + node.module if base else node.module
        else:
            base = node.module or ""
        if not base:
            return
        for alias in node.names:
            submodule = base + "." + alias.name
            if _module_to_rel(submodule, self.package, self.files) is not None:
                # ``from pkg import module`` — a real module import
                self._add(node, submodule)
            else:
                # ``from mod import symbol`` — depends on ``mod`` itself
                self._add(node, base)


def build_graph(root: str, package: str) -> ImportGraph:
    """Parse every module under ``root`` (the *package directory*) and
    build the import graph.  Nothing is imported or executed."""
    files = _module_files(root)
    file_set = frozenset(files)
    edges: list[ImportEdge] = []
    for rel in files:
        full = os.path.join(root, rel)
        with open(full, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=full)
        collector = _ImportCollector(
            rel, _rel_to_module(rel, package), package, file_set)
        collector.visit(tree)
        edges.extend(collector.edges)
    return ImportGraph(root=root, package=package, files=files,
                       edges=tuple(edges))
