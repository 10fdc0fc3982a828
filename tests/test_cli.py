"""Tests for the command-line interface."""

import pytest

from repro.cli import _policy_factory, build_parser, main
from repro.experiments.runner import ExperimentScale


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_workloads(self, capsys):
        main(["list-workloads", "--group", "ILP2"])
        out = capsys.readouterr().out
        assert "apsi-eon" in out
        assert out.count("ILP2") == 7

    def test_list_workloads_all(self, capsys):
        main(["list-workloads"])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 42 + 2  # header + rule

    def test_list_benchmarks(self, capsys):
        main(["list-benchmarks"])
        out = capsys.readouterr().out
        assert "mcf" in out and "wupwise" in out

    def test_solo(self, capsys):
        main(["solo", "--benchmark", "gzip", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert "stand-alone IPC" in out

    def test_run_smoke(self, capsys):
        main(["run", "--workload", "art-mcf", "--policy", "ICOUNT",
              "--scale", "smoke", "--epochs", "2"])
        out = capsys.readouterr().out
        assert "weighted IPC" in out

    def test_compare_smoke(self, capsys):
        main(["compare", "--workload", "art-mcf", "--scale", "smoke",
              "--epochs", "2", "--policies", "ICOUNT", "STATIC"])
        out = capsys.readouterr().out
        assert "ICOUNT" in out and "STATIC" in out


class TestPolicyFactory:
    def test_baselines(self):
        scale = ExperimentScale.smoke()
        for name in ("ICOUNT", "flush", "Dcra", "STALL-FLUSH", "PDG"):
            policy = _policy_factory(name, scale)()
            assert hasattr(policy, "fetch_priority")

    def test_hill_variants(self):
        scale = ExperimentScale.smoke()
        assert _policy_factory("HILL", scale)().metric.name == "weighted_ipc"
        assert _policy_factory("HILL-IPC", scale)().metric.name == "avg_ipc"
        assert _policy_factory("HILL-HWIPC", scale)().metric.name == \
            "harmonic_weighted_ipc"

    def test_phase_hill(self):
        scale = ExperimentScale.smoke()
        policy = _policy_factory("PHASE-HILL", scale)()
        assert policy.name.startswith("PHASE-")

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            _policy_factory("MAGIC", ExperimentScale.smoke())


class TestBadNames:
    """Unknown names exit with status 2 and a one-line error listing the
    valid choices, instead of a traceback."""

    def test_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "nope-nope", "--policy", "ICOUNT",
                  "--scale", "smoke"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope-nope" in err
        assert "art-mcf" in err  # valid choices listed

    def test_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solo", "--benchmark", "quake3", "--scale", "smoke"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "quake3" in err
        assert "mcf" in err

    def test_unknown_policy(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "art-mcf", "--policy", "MAGIC",
                  "--scale", "smoke"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "MAGIC" in err
        assert "ICOUNT" in err

    def test_unknown_policy_in_compare(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--workload", "art-mcf", "--scale", "smoke",
                  "--policies", "ICOUNT", "BOGUS"])
        assert excinfo.value.code == 2
        assert "BOGUS" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_smoke(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        main(["profile", "--workload", "art-mcf", "--policy", "FLUSH",
              "--scale", "smoke", "--out", str(out)])
        text = capsys.readouterr().out
        assert "KIPS" in text and "skip ratio" in text
        assert "fast-core speedup" in text
        import json

        records = json.loads(out.read_text())["records"]
        assert set(records) == {"fast", "reference"}
        # Both cores simulated the identical window.
        assert records["fast"]["cycles"] == records["reference"]["cycles"]
        assert records["fast"]["committed"] == \
            records["reference"]["committed"]
        assert records["reference"]["skip_events"] == 0

    def test_profile_single_core(self, capsys):
        main(["profile", "--workload", "art-mcf", "--scale", "smoke",
              "--cores", "fast"])
        text = capsys.readouterr().out
        assert "fast" in text
        assert "speedup" not in text

    def test_unknown_policy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--workload", "art-mcf", "--policy", "WARP",
                  "--scale", "smoke"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "WARP" in err

    def test_unknown_workload_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--workload", "quake3", "--scale", "smoke"])
        assert excinfo.value.code == 2
        assert "quake3" in capsys.readouterr().err

    def test_unknown_core_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--workload", "art-mcf", "--scale", "smoke",
                  "--cores", "turbo"])
        assert excinfo.value.code == 2


class TestCoreEnvValidation:
    """A bad REPRO_CORE fails fast with the standard exit-2 error on any
    simulation command, before any cycles run."""

    def test_run_rejects_bad_core(self, capsys, monkeypatch):
        # "batched" named a core lane that no longer exists.
        for bad in ("turbo", "batched"):
            monkeypatch.setenv("REPRO_CORE", bad)
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "--workload", "art-mcf", "--policy", "ICOUNT",
                      "--scale", "smoke"])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "REPRO_CORE" in err and repr(bad) in err

    def test_profile_rejects_bad_core(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "turbo")
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--workload", "art-mcf", "--scale", "smoke"])
        assert excinfo.value.code == 2
        assert "REPRO_CORE" in capsys.readouterr().err

    def test_sweep_rejects_bad_core(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CORE", "turbo")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--workloads", "art-mcf", "--policies",
                  "ICOUNT", "--scale", "smoke", "--quiet",
                  "--cache-dir", str(tmp_path / "cache")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "REPRO_CORE" in err and "turbo" in err

    def test_reference_core_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "reference")
        main(["run", "--workload", "art-mcf", "--policy", "ICOUNT",
              "--scale", "smoke", "--epochs", "2"])
        assert "weighted IPC" in capsys.readouterr().out

    def test_profile_help_lists_core_names(self, capsys):
        """``repro profile --help`` is where a user discovers the valid
        REPRO_CORE values, so every core name must appear there."""
        from repro.pipeline.fastpath import CORE_MODES

        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for core in CORE_MODES:
            assert core in out


class TestSweepSupervisionCLI:
    """The supervised-sweep flags and their failure modes."""

    def test_cell_timeout_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--workloads", "art-mcf", "--scale", "smoke",
                  "--cell-timeout", "0"])
        assert excinfo.value.code == 2
        assert "--cell-timeout" in capsys.readouterr().err

    def test_max_attempts_must_be_at_least_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--workloads", "art-mcf", "--scale", "smoke",
                  "--max-attempts", "0"])
        assert excinfo.value.code == 2
        assert "--max-attempts" in capsys.readouterr().err

    def test_worker_bootstrap_failure_exits_2_with_one_line(self, capsys,
                                                            tmp_path,
                                                            monkeypatch):
        from repro.experiments import parallel

        def broken_factory(policy, scale):
            raise ImportError("No module named 'repro.policies.fancy'")

        monkeypatch.setattr(parallel, "policy_factory", broken_factory)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--workloads", "art-mcf", "--policies",
                  "ICOUNT", "--scale", "smoke", "--jobs", "1", "--quiet",
                  "--cache-dir", str(tmp_path / "cache")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "cannot construct cell" in err

    def test_quarantined_sweep_exits_1_with_partial_output(self, capsys,
                                                           tmp_path,
                                                           monkeypatch):
        from repro.experiments import parallel
        from repro.reliability.chaos import ChaosPlan, PoisonCell

        import os as _os

        real_init = parallel.SweepEngine.__init__

        def poisoned_init(self, *args, **kwargs):
            kwargs["fault_plan"] = ChaosPlan(
                [PoisonCell(("art-mcf/ICOUNT/s0",))],
                parent_pid=_os.getpid())
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(parallel.SweepEngine, "__init__",
                            poisoned_init)
        out_path = tmp_path / "merged.json"
        code = main(["sweep", "--workloads", "art-mcf", "--policies",
                     "ICOUNT", "HILL", "--scale", "smoke", "--jobs", "1",
                     "--quiet", "--max-attempts", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "quarantined after repeated failures" in out
        assert "art-mcf/ICOUNT/s0" in out

        import json as _json

        doc = _json.loads(out_path.read_text())
        assert [rec["policy"] for rec in doc["cells"]] == ["HILL-WIPC"]
        (dropped,) = doc["quarantined"]
        assert dropped["policy"] == "ICOUNT"
        assert dropped["attempts"] == 2


class TestChaosCLI:
    def test_validation_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--max-attempts", "0"])
        assert excinfo.value.code == 2
        assert "--max-attempts" in capsys.readouterr().err

    def test_flaky_preset_smoke(self, capsys):
        code = main(["chaos", "--preset", "flaky-cells", "--jobs", "2",
                     "--epochs", "3", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[chaos] OK" in out
        assert "quarantined: 0 (expected 0)" in out


class TestCacheCLI:
    def _fake_cache(self, tmp_path):
        bucket = tmp_path / "cache" / "objects" / "ab"
        bucket.mkdir(parents=True)
        (bucket / ("ab" + "0" * 62 + ".json")).write_text('{"ok": 1}')
        (bucket / ("ab" + "1" * 62 + ".corrupt")).write_text("garbage!")
        solos = tmp_path / "cache" / "solos" / "cd"
        solos.mkdir(parents=True)
        (solos / ("cd" + "0" * 62 + ".json")).write_text('{"ok": 1}')
        return str(tmp_path / "cache")

    def test_info_reports_corrupt_entries(self, tmp_path, capsys):
        cache_dir = self._fake_cache(tmp_path)
        main(["cache", "info", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert "entries          1" in out
        assert "solo entries     1" in out
        assert "corrupt entries  1" in out

    def test_clear_corrupt_only_keeps_valid_entries(self, tmp_path,
                                                    capsys):
        cache_dir = self._fake_cache(tmp_path)
        main(["cache", "clear", "--corrupt-only", "--cache-dir",
              cache_dir])
        assert "removed 1 corrupt sidelined result(s)" \
            in capsys.readouterr().out
        main(["cache", "info", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert "entries          1" in out
        assert "corrupt entries  0" in out


class TestServiceCLI:
    def test_worker_rejects_bad_fault_spec(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--server", "http://127.0.0.1:1",
                  "--fault", "explode-randomly"])
        assert excinfo.value.code == 2
        assert "unknown worker fault" in capsys.readouterr().err

    def test_worker_poll_interval_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--server", "http://127.0.0.1:1",
                  "--poll-interval", "0"])
        assert excinfo.value.code == 2
        assert "--poll-interval" in capsys.readouterr().err

    def test_submit_needs_a_grid(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--server", "http://127.0.0.1:1"])
        assert excinfo.value.code == 2
        assert "--workloads or --groups" in capsys.readouterr().err

    def test_serve_validates_limits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--queue-limit", "0"])
        assert excinfo.value.code == 2
        assert "queue_limit" in capsys.readouterr().err

    def test_loadtest_validates_counts(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["loadtest", "--clients", "0"])
        assert excinfo.value.code == 2
        assert "--clients" in capsys.readouterr().err

    def test_submit_against_a_live_daemon(self, tmp_path, capsys):
        from repro.service.server import ServiceConfig, ServiceHandle

        handle = ServiceHandle(ServiceConfig(
            state_dir=str(tmp_path / "state"),
            cache_dir=str(tmp_path / "cache"))).start()
        worker = None
        try:
            import threading

            from repro.service.worker import run_worker

            worker = threading.Thread(
                target=run_worker,
                kwargs=dict(server_url=handle.url, max_cells=1),
                daemon=True)
            worker.start()
            out_path = tmp_path / "merged.json"
            code = main(["submit", "--server", handle.url,
                         "--workloads", "art-mcf",
                         "--policies", "ICOUNT", "--scale", "smoke",
                         "--epochs", "2", "--quiet",
                         "--out", str(out_path)])
            assert code == 0
            assert "merged results written" in capsys.readouterr().out
            doc_text = out_path.read_text()
            assert doc_text.endswith("\n")

            from repro.experiments.parallel import (
                SweepEngine,
                grid_cells,
                merged_json,
            )

            # submit's --epochs is a scale override, like sweep's.
            cells = grid_cells(workloads=["art-mcf"],
                               policies=["ICOUNT"])
            scale = ExperimentScale.smoke().with_overrides(epochs=2)
            engine = SweepEngine(scale, jobs=1,
                                 cache_dir=str(tmp_path / "ref"))
            assert doc_text == merged_json(
                cells, engine.run_cells(cells), scale)
        finally:
            if worker is not None:
                worker.join(timeout=30.0)
            handle.stop(drain=False)
