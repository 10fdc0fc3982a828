"""Determinism linter: ban nondeterminism hazards in results-affecting
code (rules ND101–ND107, see docs/ANALYSIS.md).

The pass is purely syntactic (stdlib ``ast``); it scans exactly the files
that feed cached simulation results — the import closure of the sweep
cell entry modules (``engine.determinism_scope``) — so "this module can
change an IPC number" and "this module must be deterministic" are
enforced over the same set.

A sanctioned hazard is suppressed with a per-line, per-rule marker::

    self.rng = random.Random(seed)  # repro: allow-nondeterminism[ND105]
"""

from __future__ import annotations

import ast
import os

from repro.analysis.lint.findings import Finding, allowed_codes

__all__ = ["scan_file", "scan_source", "scan_tree"]

_WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
})
_WALL_CLOCK_DT_ATTRS = frozenset({"now", "utcnow", "today"})
_TIME_NAMES = frozenset({"time", "monotonic", "perf_counter",
                         "process_time"})


def _attr_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class _Scanner(ast.NodeVisitor):
    def __init__(self, rel: str, lines: list[str]) -> None:
        self.rel = rel
        self.lines = lines
        self.findings: list[Finding] = []
        #: names bound by ``from time import ...`` / ``from random import``
        self.time_aliases: set[str] = set()
        self.random_aliases: set[str] = set()
        self.random_class_aliases: set[str] = set()

    # -- plumbing --------------------------------------------------------

    def _allowed(self, lineno: int) -> frozenset[str]:
        if 1 <= lineno <= len(self.lines):
            return allowed_codes(self.lines[lineno - 1])
        return frozenset()

    def _report(self, code: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if code in self._allowed(lineno):
            return
        self.findings.append(Finding(rule=code, path=self.rel, line=lineno,
                                     message=message))

    # -- alias tracking --------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_TIME_ATTRS:
                    self.time_aliases.add(alias.asname or alias.name)
        elif node.module == "random":
            for alias in node.names:
                if alias.name == "Random":
                    self.random_class_aliases.add(alias.asname or alias.name)
                else:
                    self.random_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        dotted = ".".join(chain)
        if chain:
            self._check_wall_clock(node, chain, dotted)
            self._check_entropy(node, chain, dotted)
            self._check_rng(node, chain, dotted)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, chain: list[str],
                          dotted: str) -> None:
        if len(chain) >= 2 and chain[-2] == "time" \
                and chain[-1] in _WALL_CLOCK_TIME_ATTRS:
            self._report("ND101", node,
                         "wall-clock read `%s()`" % dotted)
        elif len(chain) >= 2 and chain[-2] in ("datetime", "date") \
                and chain[-1] in _WALL_CLOCK_DT_ATTRS:
            self._report("ND101", node,
                         "wall-clock read `%s()`" % dotted)
        elif len(chain) == 1 and chain[0] in self.time_aliases:
            self._report("ND101", node,
                         "wall-clock read `%s()` (imported from time)"
                         % chain[0])

    def _check_entropy(self, node: ast.Call, chain: list[str],
                       dotted: str) -> None:
        if dotted == "os.urandom":
            self._report("ND102", node, "OS entropy `os.urandom()`")
        elif len(chain) >= 2 and chain[-2] == "uuid" \
                and chain[-1] in ("uuid1", "uuid4"):
            self._report("ND102", node, "OS entropy `%s()`" % dotted)
        elif chain[0] == "secrets" and len(chain) >= 2:
            self._report("ND102", node, "OS entropy `%s()`" % dotted)

    def _check_rng(self, node: ast.Call, chain: list[str],
                   dotted: str) -> None:
        is_random_class = (
            (len(chain) == 2 and chain[0] == "random"
             and chain[1] == "Random")
            or (len(chain) == 1 and chain[0] in self.random_class_aliases))
        if is_random_class:
            if not node.args and not node.keywords:
                self._report("ND104", node,
                             "unseeded RNG `%s()`" % dotted)
            else:
                self._report(
                    "ND105", node,
                    "RNG constructed in results-affecting code "
                    "(`%s(...)`); sanction deliberate sites with "
                    "`# repro: allow-nondeterminism[ND105]`" % dotted)
            return
        if len(chain) == 2 and chain[0] == "random":
            self._report("ND103", node,
                         "process-global RNG call `%s()`" % dotted)
        elif len(chain) == 1 and chain[0] in self.random_aliases:
            self._report("ND103", node,
                         "process-global RNG call `%s()` (imported from "
                         "random)" % chain[0])

    # -- id()-keyed containers ------------------------------------------

    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_id_call(node.slice):
            self._report("ND106", node,
                         "container subscripted by `id(...)` — object "
                         "addresses are not stable across runs")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and self._is_id_call(key):
                self._report("ND106", key,
                             "dict literal keyed by `id(...)`")
        self.generic_visit(node)

    # -- set iteration order --------------------------------------------

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def _check_iter(self, iter_node: ast.expr) -> None:
        if self._is_set_expr(iter_node):
            self._report("ND107", iter_node,
                         "iteration over an unsorted set expression — "
                         "wrap it in sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.expr) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


def scan_source(rel: str, source: str) -> list[Finding]:
    """Determinism findings for one module's source text."""
    tree = ast.parse(source, filename=rel)
    scanner = _Scanner(rel, source.splitlines())
    scanner.visit(tree)
    return scanner.findings


def scan_file(root: str, rel: str) -> list[Finding]:
    with open(os.path.join(root, rel), encoding="utf-8") as handle:
        return scan_source(rel, handle.read())


def scan_tree(root: str, rels: tuple[str, ...]) -> list[Finding]:
    """Scan a set of package-relative files under ``root``."""
    findings: list[Finding] = []
    for rel in sorted(rels):
        findings.extend(scan_file(root, rel))
    return findings
