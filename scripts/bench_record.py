#!/usr/bin/env python
"""Record perfbench results in ``BENCH_perfbench.json``.

``perfbench/run.py`` ends its stdout with one JSON line: the six
end-to-end metrics (``--trace 0``) or the per-layer split
(``--trace 1``).  Collect those final lines, one file per workload with
one line per run, and record them under a label::

    for run in 1 2 3; do
        python3 perfbench/run.py --workload ilp-cold --seed 0 \\
            --seconds 20 --trace 0 | tail -n 1 >> ilp-cold.jsonl
    done
    python3 perfbench/run.py --workload ilp-cold --seed 0 \\
        --seconds 20 --trace 1 | tail -n 1 > ilp-cold.trace.jsonl
    python scripts/bench_record.py --label change \\
        ilp-cold=ilp-cold.jsonl ilp-cold=ilp-cold.trace.jsonl

Each workload's record holds the median of every metric over its runs:
the end-to-end medians under ``end_to_end`` (with their quartiles under
``end_to_end_quartiles`` when there are two runs or more) and, when
traced lines are given, the per-layer split under ``layers``.  The label's record also
names the commit measured (``--commit``, default ``git describe --always
--dirty`` of this checkout).  Other labels already in the file are kept,
so a parent and a change are recorded by two invocations; the host
(CPU model, CPU count, OS, Python) is that of the recording machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_perfbench.json")


def end_to_end_names():
    """The six end-to-end metric names ``BENCHMARK.json`` declares."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return [metric["name"] for metric in json.load(handle)["end_to_end"]]


def final_lines(path):
    """The run results in one file: every line holding a JSON object with
    ``metrics`` (other output, e.g. a full stdout, is skipped)."""
    runs = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "metrics" in record:
                runs.append(record)
    if not runs:
        raise ValueError("%s holds no perfbench result line" % path)
    return runs


def medians(runs):
    """{metric: median value} over the runs that report the metric."""
    values = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(series)
            for name, series in sorted(values.items())}


def quartiles(values):
    """[lower quartile, upper quartile] of two or more values."""
    cuts = statistics.quantiles(values, n=4, method="inclusive")
    return [cuts[0], cuts[2]]


def workload_record(runs, names):
    e2e = [run for run in runs if names[0] in run["metrics"]]
    traced = [run for run in runs if names[0] not in run["metrics"]]
    record = {
        "runs": len(e2e),
        "failed": sum(run["failed"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "correct": all(run["correct"] for run in runs),
    }
    if e2e:
        values = medians(e2e)
        record["end_to_end"] = {name: values[name] for name in names}
        if len(e2e) > 1:
            record["end_to_end_quartiles"] = {
                name: quartiles([run["metrics"][name]["value"]
                                 for run in e2e])
                for name in names}
    if traced:
        record["traced_runs"] = len(traced)
        record["layers"] = medians(traced)
    return record


def host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(),
            "system": "%s %s" % (platform.system(), platform.release()),
            "python": platform.python_version()}


def describe_commit():
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", metavar="WORKLOAD=FILE",
                        help="a workload name and a file of run.py final "
                             "lines for it (repeatable)")
    parser.add_argument("--label", required=True,
                        help="record name, e.g. parent or change")
    parser.add_argument("--commit", default=None,
                        help="commit measured (default: git describe of "
                             "this checkout)")
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    names = end_to_end_names()
    runs = {}
    for item in args.results:
        workload, sep, path = item.partition("=")
        if not sep or not workload or not path:
            parser.error("expected WORKLOAD=FILE, got %r" % item)
        runs.setdefault(workload, []).extend(final_lines(path))

    document = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            document = json.load(handle)
    document["host"] = host()
    document.setdefault("records", {})[args.label] = {
        "commit": args.commit or describe_commit(),
        "workloads": {workload: workload_record(runs[workload], names)
                      for workload in sorted(runs)},
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %s (%s) in %s" % (args.label, ", ".join(sorted(runs)),
                                      args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
