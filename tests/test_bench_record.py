"""scripts/bench_record.py: perfbench final lines -> BENCH_perfbench.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

NAMES = [metric["name"] for metric in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def final_line(values, failed=0):
    return json.dumps({"correct": True, "attempted": 10, "failed": failed,
                       "metrics": {name: {"value": value, "unit": "x"}
                                   for name, value in values.items()}})


def test_records_medians_per_label(tmp_path):
    runs = tmp_path / "submit.jsonl"
    runs.write_text("\n".join([
        "[perfbench] progress chatter is skipped",
        final_line({name: 1.0 for name in NAMES}),
        final_line({name: 3.0 for name in NAMES}, failed=1),
        final_line({name: 2.0 for name in NAMES}),
    ]) + "\n")
    traced = tmp_path / "submit.trace.jsonl"
    traced.write_text(final_line({"warm.merge.self_ms": 4.5,
                                  "cache.key.calls": 36}) + "\n")
    out = tmp_path / "BENCH_perfbench.json"
    for label, commit in (("parent", "abc1234"), ("change", "def5678")):
        assert bench_record.main([
            "--label", label, "--commit", commit, "--out", str(out),
            "submit-mixed=%s" % runs, "submit-mixed=%s" % traced]) == 0

    document = json.loads(out.read_text())
    assert set(document["records"]) == {"parent", "change"}
    assert document["host"]["cpus"] >= 1
    record = document["records"]["change"]
    assert record["commit"] == "def5678"
    workload = record["workloads"]["submit-mixed"]
    assert sorted(workload["end_to_end"]) == sorted(NAMES)
    assert set(workload["end_to_end"].values()) == {2.0}
    assert workload["end_to_end_quartiles"]["warm_p50_ms"] == [1.5, 2.5]
    assert workload["runs"] == 3 and workload["traced_runs"] == 1
    assert workload["failed"] == 1
    assert workload["layers"] == {"cache.key.calls": 36,
                                  "warm.merge.self_ms": 4.5}


def test_rejects_malformed_arguments(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("no result here\n")
    with pytest.raises(ValueError):
        bench_record.main(["--label", "x", "--out", str(tmp_path / "o"),
                           "ilp-cold=%s" % empty])
    with pytest.raises(SystemExit):
        bench_record.main(["--label", "x", "ilp-cold"])
