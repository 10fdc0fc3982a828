"""Service-tier chaos presets: every fault converges byte-identically.

These run the real thing — an in-process daemon, ``repro worker``
subprocesses, SIGKILLs, floods, torn uploads — so they are the slowest
tests in the suite.  Each preset's report must say ``ok`` (merged JSON
byte-identical to the fault-free serial reference, zero quarantined)
plus the preset-specific evidence that the fault actually fired.
"""

import pytest

from repro.experiments.runner import ExperimentScale
from repro.reliability.chaos import CHAOS_PRESETS, run_chaos


class TestPresetTable:
    def test_presets_have_descriptions(self):
        service = {name: description for name, (tier, description)
                   in CHAOS_PRESETS.items() if tier == "service"}
        assert sorted(service) == [
            "kill-worker", "queue-flood", "slow-client", "split-result",
            "worker-storm"]
        for description in service.values():
            assert len(description) > 20

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            run_chaos("unplug-the-datacenter", ExperimentScale.smoke())


class TestServiceChaosPresets:
    def _run(self, preset):
        report = run_chaos(preset, ExperimentScale.smoke(), epochs=2)
        assert report["identical"], report
        assert len(report["quarantined"]) == \
            report["expected_quarantined"] == 0, report
        assert report["ok"], report
        return report

    def test_kill_worker_survivor_finishes(self):
        report = self._run("kill-worker")
        assert report["lease_expiries"] >= 1

    def test_worker_storm_converges(self):
        report = self._run("worker-storm")
        assert report["lease_expiries"] >= 1

    def test_slow_client_blocks_only_itself(self):
        self._run("slow-client")

    def test_queue_flood_throttles_and_converges(self):
        report = self._run("queue-flood")
        assert report["throttled"] >= 1

    def test_split_result_rejected_before_the_cache(self):
        report = self._run("split-result")
        assert report["invalid_results"] >= 1
        assert report["retries"] >= 1
