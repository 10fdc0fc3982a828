"""Self-check: the four lint passes over the real ``repro`` tree and the
fail-closed directions from the sweep cache's point of view."""

import os
import shutil
import subprocess
import sys

import pytest

from repro.analysis.lint import engine
from repro.analysis.lint.importgraph import build_graph
from repro.experiments import parallel


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------


def test_real_tree_is_clean():
    assert engine.run_repo_lint() == []


def test_determinism_scope_is_the_cached_code():
    graph = build_graph(engine.package_root(), "repro")
    scope = set(engine.determinism_scope(graph, engine.repo_spec()))
    # everything a cache key hashes must be in scope ...
    assert {"pipeline/processor.py", "workloads/generator.py",
            "core/hill_climbing.py", "experiments/parallel.py",
            "experiments/runner.py", "reliability/supervisor.py"} <= scope
    # ... plus the service tier's result-path files ...
    assert set(engine.SERVICE_RESULT_PATH) <= scope
    # ... and code that never feeds a cached result is not policed
    assert "cli.py" not in scope
    assert "analysis/hill_width.py" not in scope
    assert "reliability/faults.py" not in scope
    # documented exclusions: latency IS the loadtest's output, and the
    # service __init__ is docstring-only
    assert "service/loadtest.py" not in scope
    assert "service/__init__.py" not in scope


def test_deleting_a_policy_source_fails_the_audit(monkeypatch):
    doctored = dict(parallel._POLICY_SOURCES)
    doctored["DCRA"] = ()
    monkeypatch.setattr(parallel, "_POLICY_SOURCES", doctored)
    findings = engine.run_repo_lint(select=("FP001",))
    assert any(f.path == "policies/dcra.py" for f in findings)


def test_deleting_a_core_source_fails_the_audit(monkeypatch):
    trimmed = tuple(rel for rel in parallel._CORE_SOURCES
                    if rel != "reliability/supervisor.py")
    monkeypatch.setattr(parallel, "_CORE_SOURCES", trimmed)
    findings = engine.run_repo_lint(select=("FP001",))
    assert any(f.path == "reliability/supervisor.py" for f in findings)


def test_new_unlisted_import_fails_the_audit(tmp_path):
    # Copy the package, grow policies/dcra.py a dependency the
    # fingerprint lists don't know about, and re-audit the copy.
    copy_root = str(tmp_path / "repro")
    shutil.copytree(engine.package_root(), copy_root)
    dcra = os.path.join(copy_root, "policies", "dcra.py")
    with open(dcra, "a", encoding="utf-8") as handle:
        handle.write("\nfrom repro.core.offline import share_grid\n")
    graph = build_graph(copy_root, "repro")
    findings = engine.PASSES["fingerprints"](copy_root, graph)
    assert any(f.rule == "FP001" and f.path == "core/offline.py"
               and "dcra.py" in f.message for f in findings)


# ----------------------------------------------------------------------
# Fail-closed directions for the new passes (copy the tree, break the
# contract one way, require a finding)
# ----------------------------------------------------------------------


def _doctored_tree(tmp_path, rel, transform):
    copy_root = str(tmp_path / "repro")
    shutil.copytree(engine.package_root(), copy_root)
    target = os.path.join(copy_root, rel)
    with open(target, encoding="utf-8") as handle:
        source = handle.read()
    doctored = transform(source)
    assert doctored != source, "transform matched nothing"
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(doctored)
    return copy_root


def test_removing_an_async_waiver_fails_closed(tmp_path):
    copy_root = _doctored_tree(
        tmp_path, "service/server.py",
        lambda src: src.replace(
            "  # repro: allow-async[AS301] bounded local journal append",
            "", 1))
    graph = build_graph(copy_root, "repro")
    findings = engine.PASSES["async"](copy_root, graph)
    assert any(f.rule == "AS301" and f.path == "service/server.py"
               and "_journal" in f.message for f in findings)


def test_unwaived_sleep_in_a_coroutine_fails_closed(tmp_path):
    copy_root = _doctored_tree(
        tmp_path, "service/server.py",
        lambda src: src.replace(
            "    async def _tick_loop(self):\n",
            "    async def _tick_loop(self):\n        time.sleep(1)\n", 1))
    graph = build_graph(copy_root, "repro")
    findings = engine.PASSES["async"](copy_root, graph)
    assert any(f.rule == "AS301" and "_tick_loop" in f.message
               for f in findings)


def test_stripping_a_waiver_justification_fails_closed(tmp_path):
    copy_root = _doctored_tree(
        tmp_path, "service/server.py",
        lambda src: src.replace(
            "# repro: allow-async[AS301] bounded local journal append",
            "# repro: allow-async[AS301]", 1))
    graph = build_graph(copy_root, "repro")
    findings = engine.PASSES["async"](copy_root, graph)
    assert any(f.rule == "AS304" for f in findings)


# ----------------------------------------------------------------------
# The import-graph closure against the hashed hand lists
# ----------------------------------------------------------------------


def test_graph_mode_closure_contains_the_true_positives():
    root = engine.package_root()
    closure = build_graph(root, "repro").closure(
        parallel._CORE_ENTRIES + parallel._FAMILY_ENTRIES["HILL"])
    # core/partition.py was the missing-coverage bug the auditor caught.
    assert "core/partition.py" in closure
    assert "reliability/supervisor.py" in closure
    # Cells run the one epoch loop in experiments/runner.py; the guard
    # module is only a name kept for perfbench's tracer.
    assert "reliability/guard.py" not in closure
    assert "policies/dcra.py" not in closure  # family isolation holds
    # The hand lists HILL's fingerprint hashes cover the whole closure.
    assert closure <= set(parallel._fingerprint_files(root, "HILL"))


# ----------------------------------------------------------------------
# Typing gate (mirrors the CI lint job; skipped when mypy is absent)
# ----------------------------------------------------------------------


def test_lint_package_is_strictly_typed():
    probe = subprocess.run([sys.executable, "-m", "mypy", "--version"],
                           capture_output=True)
    if probe.returncode != 0:
        pytest.skip("mypy is not installed in this environment")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict",
         "--follow-imports=silent", "src/repro/analysis/lint/"],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert result.returncode == 0, result.stdout + result.stderr
