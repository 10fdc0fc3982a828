"""Supervised sweep execution: timeouts, retries, quarantine, chaos.

The supervisor's contract, as tests:

* the retry schedule is deterministic (sha256 jitter, no RNG);
* transient failures are retried with backoff, persistent ones land in
  the ``quarantine.jsonl`` ledger and the sweep *continues*;
* a fault-free supervised sweep is byte-identical to a plain serial
  one, and so is a sweep whose workers were SIGKILLed mid-cell;
* every ``repro chaos`` preset converges (the harness's own ``ok``).
"""

import json
import os

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    SweepEngine,
    grid_cells,
    merged_document,
    merged_json,
)
from repro.experiments.runner import ExperimentScale
from repro.reliability.chaos import (
    CHAOS_PRESETS,
    ChaosPlan,
    PoisonCell,
    build_plan,
    run_chaos,
)
from repro.reliability.supervisor import (
    CellBootstrapError,
    CellResultError,
    CellSupervisor,
    QuarantineLedger,
    Supervision,
    SweepAborted,
    backoff_delay,
    deterministic_jitter,
)


@pytest.fixture
def scale():
    return ExperimentScale.smoke()


def small_cells(epochs=3):
    return grid_cells(workloads=("art-mcf", "apsi-eon"),
                      policies=("ICOUNT",), epochs=epochs)


# -- deterministic backoff --------------------------------------------------


class TestBackoff:
    def test_jitter_is_a_deterministic_fraction(self):
        a = deterministic_jitter(0, "art-mcf/ICOUNT/s0", 1)
        b = deterministic_jitter(0, "art-mcf/ICOUNT/s0", 1)
        assert a == b
        assert 0.0 <= a < 1.0

    def test_jitter_varies_with_seed_key_and_attempt(self):
        base = deterministic_jitter(0, "cell", 1)
        assert deterministic_jitter(1, "cell", 1) != base
        assert deterministic_jitter(0, "other", 1) != base
        assert deterministic_jitter(0, "cell", 2) != base

    def test_delay_grows_exponentially_within_jitter_band(self):
        for attempt in (1, 2, 3):
            nominal = 0.5 * 2 ** (attempt - 1)
            delay = backoff_delay(attempt, 0.5, 30.0, 0, "cell")
            assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_delay_is_capped(self):
        assert backoff_delay(20, 0.5, 2.0, 0, "cell") < 1.5 * 2.0

    def test_zero_base_means_no_delay(self):
        assert backoff_delay(3, 0.0, 30.0, 0, "cell") == 0.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_delay(0, 0.5, 30.0, 0, "cell")


# -- configuration ----------------------------------------------------------


class TestSupervision:
    def test_defaults(self):
        config = Supervision()
        assert config.cell_timeout is None
        assert config.max_attempts == 3
        assert config.degrade is True

    @pytest.mark.parametrize("kwargs", [
        {"cell_timeout": 0.0},
        {"cell_timeout": -1.0},
        {"max_attempts": 0},
        {"retry_base_delay": -0.1},
        {"retry_max_delay": -1.0},
        {"poll_interval": 0.0},
        {"degrade_after_breaks": 0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            Supervision(**kwargs)


# -- the quarantine ledger --------------------------------------------------


class TestQuarantineLedger:
    def test_roundtrip(self, tmp_path):
        ledger = QuarantineLedger(str(tmp_path / "runs" / "q.jsonl"))
        ledger.record({"cell": "a", "attempts": 3})
        ledger.record({"cell": "b", "attempts": 1})
        assert ledger.entries() == [{"cell": "a", "attempts": 3},
                                    {"cell": "b", "attempts": 1}]

    def test_missing_file_is_empty(self, tmp_path):
        assert QuarantineLedger(str(tmp_path / "nope.jsonl")).entries() == []

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"cell": "a"}\n{"cell": "b"\n')
        assert QuarantineLedger(str(path)).entries() == [{"cell": "a"}]

    def test_torn_line_prints_a_one_line_warning(self, tmp_path, capsys):
        path = tmp_path / "q.jsonl"
        path.write_text('{"cell": "a"}\n{"cell": "b"\n{"cell": "c"}\n')
        assert QuarantineLedger(str(path)).entries() == [
            {"cell": "a"}, {"cell": "c"}]
        err = capsys.readouterr().err
        assert "skipping corrupt quarantine-ledger line 2" in err
        assert str(path) in err


# -- the supervisor, in-process (jobs=1 path) -------------------------------


def _fast_config(**overrides):
    kwargs = dict(max_attempts=3, retry_base_delay=0.0, seed=0)
    kwargs.update(overrides)
    return Supervision(**kwargs)


class TestCellSupervisorSerial:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            CellSupervisor(abs, lambda item, attempt: (item,), 0,
                           _fast_config())

    def test_empty_items(self):
        supervisor = CellSupervisor(abs, lambda item, attempt: (item,), 1,
                                    _fast_config())
        assert supervisor.run([]) == {}

    def test_flaky_items_are_retried_to_success(self):
        calls = {}

        def worker(item, attempt):
            calls[item] = calls.get(item, 0) + 1
            if calls[item] == 1:
                raise RuntimeError("transient")
            return item * 10

        events = []
        supervisor = CellSupervisor(
            worker, lambda item, attempt: (item, attempt), 1,
            _fast_config(),
            emit=lambda event, **fields: events.append(event))
        assert supervisor.run([1, 2]) == {1: 10, 2: 20}
        assert supervisor.retries == 2
        assert supervisor.quarantined == {}
        assert events.count("cell-retry") == 2

    def test_persistent_failure_quarantines_and_continues(self, tmp_path):
        def worker(item, attempt):
            if item == "bad":
                raise RuntimeError("poisoned payload")
            return item.upper()

        ledger = QuarantineLedger(str(tmp_path / "q.jsonl"))
        supervisor = CellSupervisor(
            worker, lambda item, attempt: (item, attempt), 1,
            _fast_config(max_attempts=2), ledger=ledger,
            ledger_info=lambda item: {"key": "k-%s" % item})
        results = supervisor.run(["bad", "good"])
        assert results == {"good": "GOOD"}
        assert list(supervisor.quarantined) == ["bad"]
        (entry,) = ledger.entries()
        assert entry["cell"] == "bad"
        assert entry["attempts"] == 2
        assert entry["key"] == "k-bad"
        assert "poisoned payload" in entry["last_error"]
        assert len(entry["failures"]) == 2

    def test_max_attempts_one_means_no_retry(self):
        def worker(item, attempt):
            raise RuntimeError("boom")

        supervisor = CellSupervisor(
            worker, lambda item, attempt: (item, attempt), 1,
            _fast_config(max_attempts=1))
        supervisor.run(["x"])
        assert supervisor.retries == 0
        assert supervisor.attempts["x"] == 1
        assert "x" in supervisor.quarantined

    def test_bootstrap_error_aborts_immediately(self):
        def worker(item, attempt):
            raise CellBootstrapError("cannot construct cell")

        supervisor = CellSupervisor(
            worker, lambda item, attempt: (item, attempt), 1,
            _fast_config())
        with pytest.raises(CellBootstrapError):
            supervisor.run(["x"])
        assert supervisor.retries == 0

    def test_validation_failures_are_retried(self):
        seen = []

        def validate(item, value):
            if value == "garbage":
                raise CellResultError("bad payload for %s" % item)

        def worker(item, attempt):
            return "garbage" if attempt == 1 else "clean"

        supervisor = CellSupervisor(
            worker, lambda item, attempt: (item, attempt), 1,
            _fast_config(), validate=validate,
            on_result=lambda item, value, running: seen.append(value))
        assert supervisor.run(["x"]) == {"x": "clean"}
        # The corrupt payload never reached on_result (nor, in the
        # engine, the cache).
        assert seen == ["clean"]
        assert supervisor.retries == 1


# -- the supervised engine --------------------------------------------------


class TestSupervisedEngine:
    def test_fault_plan_requires_supervision(self, scale, tmp_path):
        with pytest.raises(ValueError):
            SweepEngine(scale, cache_dir=str(tmp_path / "c"),
                        fault_plan=ChaosPlan([], parent_pid=os.getpid()))

    def test_clean_supervised_run_matches_unsupervised(self, scale,
                                                       tmp_path):
        cells = small_cells()
        plain = SweepEngine(scale, jobs=1, cache_dir=str(tmp_path / "c1"))
        supervised = SweepEngine(scale, jobs=1,
                                 cache_dir=str(tmp_path / "c2"),
                                 supervision=_fast_config())
        doc1 = merged_json(cells, plain.run_cells(cells), scale)
        doc2 = merged_json(cells, supervised.run_cells(cells), scale,
                           quarantined=supervised.quarantined)
        assert doc1 == doc2
        assert supervised.stats == {"hits": 0, "misses": 2, "resumed": 0}
        assert supervised.supervisor_stats == {
            "retries": 0, "timeouts": 0, "pool_breaks": 0,
            "degraded": False}
        assert supervised.quarantined == {}

    def test_poisoned_cell_yields_partial_results(self, scale, tmp_path):
        cells = small_cells()
        victim = sorted(cell.label for cell in cells)[0]
        engine = SweepEngine(
            scale, jobs=1, cache_dir=str(tmp_path / "cache"),
            resume_dir=str(tmp_path / "resume"),
            supervision=_fast_config(max_attempts=2),
            fault_plan=ChaosPlan([PoisonCell((victim,))],
                                 parent_pid=os.getpid()))
        results = engine.run_cells(cells)

        by_label = dict(zip((cell.label for cell in cells), results))
        assert by_label[victim] is None
        survivors = [label for label in by_label if label != victim]
        assert all(by_label[label] is not None for label in survivors)

        assert [cell.label for cell in engine.quarantined] == [victim]
        assert os.path.exists(engine.quarantine_path)
        (entry,) = QuarantineLedger(engine.quarantine_path).entries()
        assert entry["cell"] == victim
        assert entry["attempts"] == 2
        assert "ChaosPoison" in entry["last_error"]
        assert entry["checkpoint"] is not None

        doc = merged_document(cells, results, scale,
                              quarantined=engine.quarantined)
        assert len(doc["cells"]) == len(cells) - 1
        (dropped,) = doc["quarantined"]
        assert (dropped["workload"], dropped["policy"]) == \
            tuple(victim.split("/")[:2])
        assert dropped["attempts"] == 2
        json.loads(merged_json(cells, results, scale,
                               quarantined=engine.quarantined))


# -- one retry layer ---------------------------------------------------------


@pytest.fixture
def fail_fifth_epoch(monkeypatch):
    """Make the 5th ``EpochController.run_epoch`` call in this process
    raise once (jobs=1 runs cells in process)."""
    from repro.core.controller import EpochController

    calls = {"n": 0}
    original = EpochController.run_epoch

    def flaky(self):
        calls["n"] += 1
        if calls["n"] == 5:
            raise RuntimeError("injected once")
        return original(self)

    def arm():
        monkeypatch.setattr(EpochController, "run_epoch", flaky)
        return calls
    return arm


class TestOneRetryLayer:
    """A failure inside a cell's epoch loop is one supervisor attempt —
    a ``cell-retry`` event and a ``retries`` count — and never an
    in-cell repair, whatever ``--cell-timeout``/``--resume-dir`` say; the
    retried cell caches the bytes of a clean run."""

    CELL = parallel.SweepCell(workload="art-mcf", policy="FLUSH")

    @pytest.mark.parametrize("flags", ["cell-timeout", "resume-dir"])
    def test_one_shot_fault_is_one_supervisor_retry(
            self, scale, tmp_path, fail_fifth_epoch, flags):
        (clean,) = SweepEngine(scale, cache_dir=str(tmp_path / "clean")
                               ).run_cells([self.CELL])
        fail_fifth_epoch()
        events = []
        if flags == "cell-timeout":
            options = dict(supervision=_fast_config(cell_timeout=600,
                                                    max_attempts=2))
        else:
            options = dict(supervision=_fast_config(max_attempts=2),
                           resume_dir=str(tmp_path / "resume"))
        engine = SweepEngine(scale, jobs=1, cache_dir=str(tmp_path / "c"),
                             on_event=events.append, **options)
        (result,) = engine.run_cells([self.CELL])
        assert engine.supervisor_stats["retries"] == 1
        assert [event["cell"] for event in events
                if event["event"] == "cell-retry"] == [self.CELL.label]
        assert result.to_dict() == clean.to_dict()

    @pytest.mark.parametrize("resume", [False, True])
    def test_fail_fast_raises_naming_the_cell(self, scale, tmp_path,
                                              fail_fifth_epoch, resume):
        from repro.reliability.supervisor import SupervisorError

        fail_fifth_epoch()
        engine = SweepEngine(
            scale, jobs=1, cache_dir=str(tmp_path / "c"),
            resume_dir=str(tmp_path / "resume") if resume else None)
        with pytest.raises(SupervisorError) as excinfo:
            engine.run_cells([self.CELL])
        assert self.CELL.label in str(excinfo.value)


# -- chaos presets ----------------------------------------------------------

POOL_PRESETS = sorted(name for name, (tier, __) in CHAOS_PRESETS.items()
                      if tier == "pool")



class TestChaosPresets:
    def test_cli_choices_match_the_preset_table(self):
        from repro.cli import build_parser

        parser = build_parser()
        commands = next(action for action in parser._actions
                        if action.__class__.__name__ == "_SubParsersAction")
        chaos = commands.choices["chaos"]
        preset = next(action for action in chaos._actions
                      if "--preset" in action.option_strings)
        assert sorted(preset.choices) == sorted(CHAOS_PRESETS)
        for tier, description in CHAOS_PRESETS.values():
            assert tier in ("pool", "service")
            assert len(description) > 20

    def test_every_preset_builds_a_plan(self):
        cells = small_cells()
        for preset in POOL_PRESETS:
            plan, expected, __ = build_plan(preset, cells,
                                            parent_pid=os.getpid())
            assert plan.faults
            assert expected in (0, 1)

    def test_single_victim_presets_target_first_sorted_label(self):
        cells = small_cells()
        plan, __, ___ = build_plan("poison-cell", cells,
                                   parent_pid=os.getpid())
        (fault,) = plan.faults
        assert fault.labels == (sorted(c.label for c in cells)[0],)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            build_plan("meteor-strike", small_cells())
        with pytest.raises(ValueError):
            build_plan("kill-worker", small_cells())  # a service preset

    def test_plan_knows_parent_from_worker(self):
        plan = ChaosPlan([], parent_pid=os.getpid())
        assert not plan.in_worker()
        assert ChaosPlan([], parent_pid=os.getpid() + 1).in_worker()


# -- chaos runs (each spawns real worker pools; seconds, not minutes) -------


class TestChaosRuns:
    def test_flaky_cells_converge_after_retries(self, scale):
        report = run_chaos("flaky-cells", scale, jobs=2, epochs=3)
        assert report["ok"], report
        assert report["identical"]
        assert report["retries"] >= 1
        assert report["quarantined"] == []

    def test_corrupt_result_is_rejected_before_the_cache(self, scale,
                                                         tmp_path):
        workdir = str(tmp_path / "chaos")
        report = run_chaos("corrupt-result", scale, jobs=2, epochs=3,
                           work_dir=workdir)
        assert report["ok"], report
        assert report["retries"] >= 1
        # Every cached chaos-side entry must load cleanly: the garbage
        # payload never reached the cache.
        cache = parallel.ResultCache(os.path.join(workdir, "cache-chaos"))
        assert cache.info().entries == len(report["cells"])

    def test_sigkilled_cell_resumes_and_matches_serial(self, scale):
        # The ISSUE acceptance scenario: SIGKILL a worker mid-cell (after
        # the epoch-2 checkpoint), re-run through the engine's resume
        # dir, and demand byte-identical merged output.
        report = run_chaos("kill-one-worker", scale, jobs=2, epochs=3)
        assert report["ok"], report
        assert report["identical"]
        assert report["pool_breaks"] >= 1
        assert report["resumed"] >= 1  # the retry continued mid-cell
        assert report["quarantined"] == []

    def test_kill_storm_degrades_to_serial_and_finishes(self, scale):
        report = run_chaos("kill-storm", scale, jobs=2, epochs=3)
        assert report["ok"], report
        assert report["degraded"]
        assert report["quarantined"] == []

    def test_hung_cell_is_reaped_by_the_timeout(self, scale):
        report = run_chaos("hang-one-cell", scale, jobs=2, epochs=3,
                           cell_timeout=2.0)
        assert report["ok"], report
        assert report["timeouts"] >= 1
        assert report["quarantined"] == []

    def test_poison_cell_is_quarantined(self, scale, tmp_path):
        workdir = str(tmp_path / "chaos")
        report = run_chaos("poison-cell", scale, jobs=2, epochs=3,
                           max_attempts=2, work_dir=workdir, keep=True)
        assert report["ok"], report
        assert len(report["quarantined"]) == 1
        assert report["expected_quarantined"] == 1
        entries = QuarantineLedger(report["quarantine_path"]).entries()
        assert [entry["cell"] for entry in entries] == \
            report["quarantined"]

    def test_no_degrade_aborts_under_a_kill_storm(self, scale, tmp_path):
        with pytest.raises(SweepAborted):
            run_chaos("kill-storm", scale, jobs=2, epochs=3,
                      degrade=False, work_dir=str(tmp_path / "chaos"))
