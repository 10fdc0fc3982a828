"""The shared containment machine and the engine's one run path.

* a hypothesis state machine over :class:`Containment`: no key is
  charged for another key's failure, every key ends done or quarantined
  within ``max_attempts`` failures, identical event sequences give
  identical delays and ledger records, and a snapshot/restore round trip
  continues exactly as if the machine had never stopped;
* the retry parameters are validated once, by the machine, for both the
  sweep supervisor's ``Supervision`` and the daemon's ``ServiceConfig``;
* ``supervision=None`` fails fast at any ``jobs``: the first failed cell
  raises naming the cell, and nothing is quarantined or written;
* a sweep leaves no temporary directory behind unless it has something
  to keep there (heartbeats need a ``cell_timeout``, the ledger a
  quarantined cell).
"""

import json
import os
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cli import main
from repro.experiments import parallel
from repro.experiments.parallel import SweepEngine, grid_cells
from repro.experiments.runner import ExperimentScale
from repro.reliability.chaos import ChaosPlan, PoisonCell
from repro.reliability.supervisor import (
    CellBootstrapError,
    Containment,
    QuarantineLedger,
    Supervision,
    SupervisorError,
)
from repro.service.server import ServiceConfig

# -- the state machine -------------------------------------------------------

KEYS = ("art-mcf/ICOUNT/s0", "apsi-eon/DCRA/s0", "gzip-twolf/HILL-WIPC/s1")
MAX_ATTEMPTS = 3
ERRORS = ("ChaosFlake: injected", "BrokenProcessPool: a worker died",
          "CellTimeout: heartbeat stale\nTraceback (most recent call last)")


def _machine():
    return Containment(max_attempts=MAX_ATTEMPTS, retry_base_delay=0.5,
                       retry_max_delay=2.0, seed=7)


def _stable(entry):
    """A ledger record without its wall-clock stamp."""
    return {k: v for k, v in entry.items() if k != "quarantined_at"}


class ContainmentMachine(RuleBasedStateMachine):
    """Drives one machine that is snapshot-restored key by key, next to
    a twin that never stops, against a per-key model."""

    def __init__(self):
        super().__init__()
        self.machine = _machine()
        self.twin = _machine()          # never snapshot-restored
        self.charged = dict.fromkeys(KEYS, 0)
        self.state = {}                 # key -> "done" | "quarantined"
        self.events = []                # (rule, key, description)
        self.verdicts = []              # delay or stable ledger record

    def _verdict(self, machine, key, description):
        delay = machine.fail(key, key, description)
        if delay is None:
            return _stable(machine.entry(key, key, {"key": key}))
        return delay

    @rule(key=st.sampled_from(KEYS), description=st.sampled_from(ERRORS))
    def fail(self, key, description):
        if key in self.state:
            with pytest.raises(ValueError):
                self.machine.fail(key, key, description)
            return
        verdict = self._verdict(self.machine, key, description)
        assert self._verdict(self.twin, key, description) == verdict
        self.charged[key] += 1
        self.events.append(("fail", key, description))
        self.verdicts.append(verdict)
        if isinstance(verdict, dict):
            self.state[key] = "quarantined"
            assert verdict["attempts"] == MAX_ATTEMPTS
            assert verdict["last_error"] == description
        else:
            assert verdict >= 0.0

    @rule(key=st.sampled_from(KEYS))
    def succeed(self, key):
        if key in self.state:
            return
        self.machine.succeed(key)
        self.twin.succeed(key)
        self.state[key] = "done"
        self.events.append(("succeed", key, None))

    @rule(key=st.sampled_from(KEYS))
    def save_and_restore(self, key):
        # The daemon snapshots unresolved tasks only, through JSON.
        if key in self.state:
            return
        saved = json.loads(json.dumps(self.machine.saved(key)))
        self.machine.restore(key, **saved)

    @invariant()
    def no_key_is_charged_for_another(self):
        for key in KEYS:
            assert self.machine.attempts.get(key, 0) == self.charged[key]
            assert self.machine.attempt(key) == self.charged[key] + 1

    @invariant()
    def restored_equals_never_stopped(self):
        for key in KEYS:
            assert self.machine.saved(key) == self.twin.saved(key)

    @invariant()
    def attempts_stay_within_the_budget(self):
        for key in KEYS:
            assert self.charged[key] <= MAX_ATTEMPTS
            assert ((self.charged[key] == MAX_ATTEMPTS)
                    == (self.state.get(key) == "quarantined"))

    def teardown(self):
        # Identical event sequences, identical delays and records.
        replay = _machine()
        verdicts = []
        for name, key, description in self.events:
            if name == "succeed":
                replay.succeed(key)
            else:
                verdicts.append(self._verdict(replay, key, description))
        assert verdicts == self.verdicts
        # Every open key terminates within its remaining budget.
        for key in KEYS:
            if key in self.state:
                continue
            for _ in range(MAX_ATTEMPTS - self.charged[key] - 1):
                assert self.machine.fail(key, key, "late") is not None
            assert self.machine.fail(key, key, "late") is None


TestContainmentMachine = ContainmentMachine.TestCase
TestContainmentMachine.settings = settings(
    max_examples=25, stateful_step_count=30, derandomize=True,
    deadline=None)


def test_delays_follow_the_name_not_the_key():
    one, two = _machine(), _machine()
    assert one.fail("key-1", "art-mcf/ICOUNT/s0", "e") == \
        two.fail("key-2", "art-mcf/ICOUNT/s0", "e")
    assert one.entry("key-1", "art-mcf/ICOUNT/s0")["cell"] == \
        "art-mcf/ICOUNT/s0"


# -- retry settings are validated once ---------------------------------------


@pytest.mark.parametrize("config", ["Supervision", "ServiceConfig"])
@pytest.mark.parametrize("kwargs, message", [
    ({"max_attempts": 0}, "max_attempts must be >= 1"),
    ({"retry_base_delay": -0.1}, "retry delays must be >= 0"),
    ({"retry_max_delay": -1.0}, "retry delays must be >= 0"),
])
def test_retry_settings_are_validated_by_the_machine(config, kwargs, message,
                                                     tmp_path):
    make = {"Supervision": Supervision,
            "ServiceConfig": lambda **kw: ServiceConfig(
                state_dir=str(tmp_path / "state"), **kw)}[config]
    with pytest.raises(ValueError, match=message):
        make(**kwargs)
    with pytest.raises(ValueError, match=message):
        Containment(**kwargs)


# -- fail fast without supervision -------------------------------------------


@pytest.fixture
def scale():
    return ExperimentScale.smoke()


@pytest.fixture
def tmpdir_env(tmp_path, monkeypatch):
    """Point ``$TMPDIR`` (and tempfile's cached copy) at an empty dir."""
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    return scratch


_real_run_policy = parallel.run_policy


def _run_policy_failing_art_mcf(workload, policy, scale, **options):
    if workload.name == "art-mcf":
        raise RuntimeError("injected simulator fault")
    return _real_run_policy(workload, policy, scale, **options)


@pytest.mark.parametrize("jobs", [1, 2])
def test_unsupervised_engine_fails_fast(scale, tmp_path, tmpdir_env,
                                        monkeypatch, jobs):
    # Forked pool workers inherit the patched module attribute.
    monkeypatch.setattr(parallel, "run_policy", _run_policy_failing_art_mcf)
    cells = grid_cells(workloads=("apsi-eon", "art-mcf"),
                       policies=("ICOUNT",), epochs=2)
    engine = SweepEngine(scale, jobs=jobs, cache_dir=str(tmp_path / "c"))
    with pytest.raises(SupervisorError) as excinfo:
        engine.run_cells(cells)
    assert "art-mcf/ICOUNT/s0" in str(excinfo.value)
    assert "injected simulator fault" in str(excinfo.value)
    assert engine.quarantined == {}
    assert engine.quarantine_path is None
    assert os.listdir(tmpdir_env) == []


def test_unsupervised_bootstrap_error_still_propagates(scale, tmp_path,
                                                       monkeypatch):
    def broken_factory(policy, scale):
        raise ImportError("No module named 'repro.policies.fancy'")

    monkeypatch.setattr(parallel, "policy_factory", broken_factory)
    engine = SweepEngine(scale, cache_dir=str(tmp_path / "c"))
    with pytest.raises(CellBootstrapError):
        engine.run_cells(grid_cells(workloads=("art-mcf",),
                                    policies=("ICOUNT",), epochs=2))


# -- no leaked temporary directories -----------------------------------------


def test_cli_sweep_leaves_no_temp_dir(tmp_path, tmpdir_env):
    argv = ["sweep", "--workloads", "art-mcf", "--policies", "ICOUNT",
            "--scale", "smoke", "--epochs", "2", "--quiet",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert os.listdir(tmpdir_env) == []
    assert main(argv) == 0       # fully cached: no supervisor at all
    assert os.listdir(tmpdir_env) == []


def test_quarantining_sweep_keeps_a_readable_ledger(scale, tmp_path,
                                                    tmpdir_env):
    cells = grid_cells(workloads=("art-mcf", "apsi-eon"),
                       policies=("ICOUNT",), epochs=2)
    engine = SweepEngine(
        scale, cache_dir=str(tmp_path / "cache"),
        supervision=Supervision(max_attempts=2, retry_base_delay=0.0),
        fault_plan=ChaosPlan([PoisonCell(("art-mcf/ICOUNT/s0",))],
                             parent_pid=os.getpid()))
    assert os.listdir(tmpdir_env) == []
    engine.run_cells(cells)
    assert os.path.dirname(engine.quarantine_path).startswith(
        str(tmpdir_env))
    (entry,) = QuarantineLedger(engine.quarantine_path).entries()
    assert entry["cell"] == "art-mcf/ICOUNT/s0"
    assert entry["attempts"] == 2
    # Without a cell_timeout the work dir holds the ledger and nothing else.
    assert os.listdir(os.path.dirname(engine.quarantine_path)) == [
        "quarantine.jsonl"]
