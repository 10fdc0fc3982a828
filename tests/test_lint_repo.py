"""Self-check: the lint passes over the real ``repro`` tree, the
determinism scope they police, and their fail-closed directions."""

import os
import shutil
import subprocess
import sys

import pytest

from repro.analysis.lint import engine
from repro.analysis.lint.importgraph import build_graph


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------


def test_real_tree_is_clean():
    assert engine.run_repo_lint() == []


def test_determinism_scope_is_the_cached_code():
    graph = build_graph(engine.package_root(), "repro")
    scope = set(engine.determinism_scope(graph))
    # every module a sweep cell can import must be in scope: the run
    # machinery, all eight baselines (reached through the registry in
    # policies/__init__.py), the hill climbers and their phase support,
    # checkpoints and trace replay ...
    assert {"pipeline/processor.py", "workloads/generator.py",
            "experiments/parallel.py", "experiments/runner.py",
            "reliability/supervisor.py", "pipeline/checkpoint.py",
            "workloads/tracefile.py"} <= scope
    assert {"policies/%s.py" % name for name in (
        "icount", "fpg", "stall", "flush", "stall_flush", "dg", "dcra",
        "static_partition")} <= scope
    assert {"core/hill_climbing.py", "core/phase_hill.py",
            "core/partition.py"} <= scope
    phase = {rel for rel in graph.files if rel.startswith("phase/")}
    assert phase and phase <= scope
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


def test_new_import_of_nondeterministic_code_fails_closed(tmp_path):
    # The chaos harness reads the wall clock and sits outside the scope;
    # a policy module that starts importing it pulls it in.
    graph = build_graph(engine.package_root(), "repro")
    assert "reliability/chaos.py" not in engine.determinism_scope(graph)
    copy_root = _doctored_tree(
        tmp_path, "policies/dcra.py",
        lambda src: src + "\nfrom repro.reliability.chaos import HangCell\n")
    graph = build_graph(copy_root, "repro")
    findings = engine.PASSES["determinism"](copy_root, graph)
    assert any(f.rule == "ND101" and f.path == "reliability/chaos.py"
               for f in findings)


# ----------------------------------------------------------------------
# The import-graph closure of a sweep cell
# ----------------------------------------------------------------------


def test_graph_mode_closure_contains_the_true_positives():
    closure = build_graph(engine.package_root(), "repro").closure(
        engine.CELL_ENTRIES)
    # The hill climbers, imported lazily by policy_factory, and their
    # share-vector helper are cell code.
    assert {"core/hill_climbing.py", "core/partition.py"} <= closure
    assert "reliability/supervisor.py" in closure
    # The baselines are reached only through the BASELINE_POLICIES
    # registry, so the imported policies/__init__.py is traversed.
    assert "policies/static_partition.py" in closure
    # Cells run the one epoch loop in experiments/runner.py; the guard
    # module is only a name kept for perfbench's tracer.
    assert "reliability/guard.py" not in closure
    # An ancestor __init__ is included but not traversed, so the
    # harnesses it re-exports stay out.
    assert "reliability/__init__.py" in closure
    assert "reliability/chaos.py" not in closure
    assert "cli.py" not in closure


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
