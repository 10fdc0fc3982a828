"""``repro lint`` orchestration: bind the four static-analysis passes
to the real ``repro`` package and render findings.

* fingerprint coverage auditor  (FP1xx codes — :mod:`.fingerprints`)
* determinism linter            (ND1xx codes — :mod:`.determinism`)
* policy-contract checker       (PC2xx codes — :mod:`.contracts`)
* async-safety pass             (AS3xx codes — :mod:`.asyncsafety`)

The determinism scope is derived, not hand-picked: every file any
family's fingerprint hashes (closures plus explicit source entries) must
be deterministic, because those are exactly the files whose behaviour is
memoized by the result cache.  The service tier sits *outside* every
fingerprint closure (it orchestrates cached cells, it cannot change
their bytes), so its result-path files are added explicitly via
:data:`SERVICE_RESULT_PATH` — they decide *which* results are produced
and merged, and wall-clock-dependent control flow there is exactly as
suspect as in the core.

Also usable as a library (the self-check tests call :func:`run_repo_lint`
directly) and parameterizable over fixture trees via the pass modules.
"""

from __future__ import annotations

import json
import os
from typing import Callable

from repro.analysis.lint import (
    asyncsafety,
    contracts,
    determinism,
    fingerprints,
)
from repro.analysis.lint.findings import RULES, Finding, rule_doc
from repro.analysis.lint.importgraph import ImportGraph, build_graph

__all__ = [
    "PASSES",
    "JSON_SCHEMA_VERSION",
    "explain",
    "explain_all",
    "filter_findings",
    "package_root",
    "render_json",
    "render_text",
    "repo_spec",
    "run_repo_lint",
]

#: Where the policy hook contract is declared.
BASE_POLICY_MODULE = "policies/base.py"
BASE_POLICY_CLASS = "ResourcePolicy"

#: The async-safety pass scans every module under this package prefix.
SERVICE_PREFIX = "service/"

#: Service-tier files on the *result path* — they choose, lease, merge
#: and persist sweep results, so they are held to the same determinism
#: bar as the fingerprinted core.  Deliberately excluded:
#: ``service/loadtest.py`` (wall-clock latency percentiles ARE its
#: output) and ``service/__init__.py`` (docstring only).
SERVICE_RESULT_PATH = (
    "service/chaos.py",
    "service/client.py",
    "service/httpd.py",
    "service/protocol.py",
    "service/server.py",
    "service/worker.py",
)

#: Version of the ``--format json`` payload shape.  Bump on any
#: breaking change to the top-level keys or the finding dict.
JSON_SCHEMA_VERSION = 1


def package_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def repo_spec() -> fingerprints.FingerprintSpec:
    """The live fingerprint configuration from the sweep engine."""
    from repro.experiments import parallel

    return fingerprints.FingerprintSpec(
        core_entries=tuple(parallel._CORE_ENTRIES),
        core_sources=tuple(parallel._CORE_SOURCES),
        family_entries={family: tuple(entries) for family, entries
                        in parallel._FAMILY_ENTRIES.items()},
        family_sources={family: tuple(sources) for family, sources
                        in parallel._POLICY_SOURCES.items()},
    )


def determinism_scope(graph: ImportGraph,
                      spec: fingerprints.FingerprintSpec) -> tuple[str, ...]:
    """Every file whose content is hashed into some cache key, plus the
    service tier's result-path files (:data:`SERVICE_RESULT_PATH`)."""
    scope: set[str] = set()
    file_set = set(graph.files)
    for family, entries in spec.family_entries.items():
        roots = spec.core_entries + entries
        if all(rel in file_set for rel in roots):
            scope.update(graph.closure(roots))
    for entry in spec.core_sources + tuple(
            rel for sources in spec.family_sources.values()
            for rel in sources):
        if entry in file_set:
            scope.add(entry)
        else:
            prefix = entry.rstrip("/") + "/"
            scope.update(rel for rel in graph.files
                         if rel.startswith(prefix))
    scope.update(rel for rel in SERVICE_RESULT_PATH if rel in file_set)
    return tuple(sorted(scope))


def _fingerprint_pass(root: str, graph: ImportGraph) -> list[Finding]:
    return fingerprints.audit_fingerprints(graph, repo_spec())


def _determinism_pass(root: str, graph: ImportGraph) -> list[Finding]:
    return determinism.scan_tree(root, determinism_scope(graph, repo_spec()))


def _contract_pass(root: str, graph: ImportGraph) -> list[Finding]:
    return contracts.check_tree(root, graph.files, BASE_POLICY_MODULE,
                                BASE_POLICY_CLASS)


def _async_pass(root: str, graph: ImportGraph) -> list[Finding]:
    rels = tuple(rel for rel in graph.files
                 if rel.startswith(SERVICE_PREFIX))
    return asyncsafety.scan_tree(root, rels)


PASSES: dict[str, Callable[[str, ImportGraph], list[Finding]]] = {
    "fingerprints": _fingerprint_pass,
    "determinism": _determinism_pass,
    "contracts": _contract_pass,
    "async": _async_pass,
}


def filter_findings(findings: list[Finding],
                    select: tuple[str, ...] = (),
                    ignore: tuple[str, ...] = ()) -> list[Finding]:
    """Keep findings whose code starts with a ``select`` prefix (all, if
    empty) and no ``ignore`` prefix.  ``FP``/``ND1``/``PC203`` all work."""
    kept = []
    for finding in findings:
        if select and not any(finding.rule.startswith(prefix)
                              for prefix in select):
            continue
        if any(finding.rule.startswith(prefix) for prefix in ignore):
            continue
        kept.append(finding)
    return kept


def run_repo_lint(select: tuple[str, ...] = (),
                  ignore: tuple[str, ...] = (),
                  root: str | None = None) -> list[Finding]:
    """All four passes over the installed ``repro`` package."""
    root = root if root is not None else package_root()
    graph = build_graph(root, "repro")
    findings: list[Finding] = []
    for runner in PASSES.values():
        findings.extend(runner(root, graph))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return filter_findings(findings, select, ignore)


def render_text(findings: list[Finding]) -> str:
    if not findings:
        return "repro lint: clean (%d rules, passes: %s)" % (
            len(RULES), ", ".join(PASSES))
    lines = [finding.render() for finding in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append("repro lint: %d finding(s) (%d error(s), %d warning(s))"
                 % (len(findings), errors, warnings))
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Schema-versioned JSON payload with a stable finding order.

    Findings are re-sorted by (path, line, rule, message) here — not
    trusted from the caller — so CI diffs and downstream tooling see a
    deterministic order no matter which pass emitted what first.
    """
    ordered = sorted(findings,
                     key=lambda f: (f.path, f.line, f.rule, f.message))
    return json.dumps({
        "schema_version": JSON_SCHEMA_VERSION,
        "clean": not ordered,
        "findings": [finding.to_dict() for finding in ordered],
    }, indent=1, sort_keys=True) + "\n"


def explain(code: str) -> str:
    """``--explain`` text for a rule code (KeyError when unknown)."""
    return rule_doc(code)


def explain_all() -> str:
    """``--explain all``: one line per rule in the whole catalogue."""
    lines = ["%d rules in %d passes (%s):"
             % (len(RULES), len(PASSES), ", ".join(PASSES))]
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append("  %s %-32s %s" % (rule.code, rule.name, rule.summary))
    return "\n".join(lines)
