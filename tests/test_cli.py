"""Tests for the command-line interface."""

import os

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

    def test_compare_single_seed_is_honoured(self, capsys):
        def table(*flags):
            main(["compare", "--workload", "art-mcf", "--scale", "smoke",
                  "--epochs", "2", "--policies", "ICOUNT"] + list(flags))
            return capsys.readouterr().out.splitlines()[-1]

        seeds_five = table("--seeds", "5")
        assert seeds_five == table("--seed", "5")
        assert seeds_five != table()


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


class TestResumeDirCLI:
    def test_run_resume_dir_reused_at_another_epoch_count(self, capsys,
                                                          tmp_path):
        def table(*extra):
            main(["run", "--workload", "art-mcf", "--policy", "ICOUNT",
                  "--scale", "smoke", *extra])
            return capsys.readouterr().out

        resume = ["--resume-dir", str(tmp_path / "runs")]
        table("--epochs", "2", *resume)
        assert table("--epochs", "3", *resume) == table("--epochs", "3")


class TestChaosCLI:
    def test_validation_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--max-attempts", "0"])
        assert excinfo.value.code == 2
        assert "--max-attempts" in capsys.readouterr().err

    def test_service_preset_validates_supervision_flags(self, capsys,
                                                         monkeypatch,
                                                         tmp_path):
        from repro.service import chaos as service_chaos

        calls = []
        monkeypatch.setattr(service_chaos, "service_faults",
                            lambda *args: calls.append(args))
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--preset", "kill-worker", "--max-attempts", "0",
                  "--work-dir", str(tmp_path / "chaos")])
        assert excinfo.value.code == 2
        assert "--max-attempts" in capsys.readouterr().err
        assert calls == []  # no daemon was started

    def test_scale_flags_reach_the_service_runner(self, monkeypatch,
                                                  tmp_path):
        from repro.service import chaos as service_chaos

        class Stop(Exception):
            pass

        seen = {}

        def fake_runner(preset, scale, cells, grid, workdir, say):
            seen["scale"] = scale
            raise Stop

        monkeypatch.setattr(service_chaos, "service_faults", fake_runner)
        with pytest.raises(Stop):
            main(["chaos", "--preset", "kill-worker", "--scale", "smoke",
                  "--epoch-size", "64", "--seed", "3", "--quiet",
                  "--work-dir", str(tmp_path / "chaos")])
        assert (seen["scale"].epoch_size, seen["scale"].seed) == (64, 3)

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

    def test_submit_reports_an_evicted_result(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.experiments.parallel import (
            ResultCache,
            SweepEngine,
            cache_key,
            grid_cells,
        )
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceConfig, ServiceHandle

        cache_dir = str(tmp_path / "cache")
        (cell,) = grid_cells(workloads=["art-mcf"], policies=["ICOUNT"])
        scale = ExperimentScale.smoke().with_overrides(epochs=2)
        SweepEngine(scale, cache_dir=cache_dir).run_cells([cell])
        wait = ServiceClient.wait

        def wait_then_evict(client, job_id, **kwargs):
            status = wait(client, job_id, **kwargs)
            os.remove(ResultCache(cache_dir)._path(cache_key(cell, scale)))
            return status

        monkeypatch.setattr(ServiceClient, "wait", wait_then_evict)
        handle = ServiceHandle(ServiceConfig(
            state_dir=str(tmp_path / "state"), cache_dir=cache_dir)).start()
        try:
            with pytest.raises(SystemExit) as excinfo:
                main(["submit", "--server", handle.url,
                      "--workloads", "art-mcf", "--policies", "ICOUNT",
                      "--scale", "smoke", "--epochs", "2", "--quiet"])
        finally:
            handle.stop(drain=False)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "HTTP 410: result-evicted (art-mcf/ICOUNT/s0)" \
            in captured.err
