"""Documentation and packaging quality gates.

Beyond presence/coverage checks, this module keeps the documentation
*executable*: every fenced code block in the user-facing docs whose info
string is exactly ``bash`` or ``python`` is run here, at smoke scale,
against a throwaway cache/runs/output directory (the docs parameterize
themselves with ``${REPRO_SCALE:-bench}``-style env defaults precisely so
the same text reads as the real workflow and runs as a fast test).
Blocks tagged with an extra word (```` ```bash setup ````,
```` ```bash full-scale ````, ...) are too expensive or environment-
mutating to run and are syntax-checked only.  Every ``python -m repro``
invocation in a bash block additionally has its flags validated against
the live ``--help`` of its subcommand, so the docs cannot drift from the
CLI.
"""

import importlib
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import repro
from repro.reliability.supervisor import SWEEP_EVENTS
from repro.service.protocol import SERVICE_EVENTS

ROOT = Path(__file__).resolve().parent.parent

# -- fenced-block extraction ------------------------------------------------

DOC_FILES = ("README.md", "EXPERIMENTS.md", "docs/PARALLEL.md",
             "docs/RELIABILITY.md", "docs/ANALYSIS.md", "docs/SERVICE.md",
             "docs/PERFORMANCE.md")

Snippet = namedtuple("Snippet", "name lineno info body anchor")


def _slug(heading):
    """GitHub's anchor for a Markdown heading: lower case, punctuation
    other than ``-`` dropped, spaces to hyphens."""
    text = re.sub(r"[^\w\- ]", "", heading.strip("# ").lower())
    return text.replace(" ", "-")


def _fenced_blocks(name):
    """Every fenced block of one doc, each anchored as
    ``<heading slug>-<ordinal among that heading's blocks>`` so editing
    prose (or a block under another heading) never renames its test."""
    blocks = []
    info = None
    start = 0
    body = []
    slug = "top"
    ordinal = {}
    for lineno, line in enumerate((ROOT / name).read_text().splitlines(), 1):
        stripped = line.strip()
        if info is None and stripped.startswith("```"):
            info = stripped[3:].strip()
            start = lineno
            body = []
        elif info is not None and stripped == "```":
            ordinal[slug] = ordinal.get(slug, 0) + 1
            blocks.append(Snippet(name, start, info, "\n".join(body) + "\n",
                                  "%s-%d" % (slug, ordinal[slug])))
            info = None
        elif info is not None:
            body.append(line)
        elif re.match(r"#{1,6} ", line):
            slug = _slug(line)
    assert info is None, "%s: unclosed fence at line %d" % (name, start)
    return blocks


ALL_SNIPPETS = [block for name in DOC_FILES for block in _fenced_blocks(name)]
CODE_SNIPPETS = [block for block in ALL_SNIPPETS
                 if block.info.split()[:1] in (["bash"], ["python"])]
EXECUTABLE = [block for block in CODE_SNIPPETS
              if block.info in ("bash", "python")]
TAGGED_ONLY = [block for block in CODE_SNIPPETS
               if block.info not in ("bash", "python")]

_ids = lambda block: "%s#%s" % (block.name, block.anchor)


class TestDocumentsExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/INTERNALS.md",
        "docs/PARALLEL.md", "docs/RELIABILITY.md", "docs/WORKLOADS.md",
        "docs/ANALYSIS.md", "docs/SERVICE.md", "docs/PERFORMANCE.md",
    ])
    def test_document_present_and_substantial(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 1500, name

    def test_design_lists_every_figure(self):
        text = (ROOT / "DESIGN.md").read_text()
        for figure in ("Fig. 2", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                       "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12"):
            assert figure in text, figure
        for table in ("Table 1", "Table 2", "Table 3"):
            assert table in text, table

    def test_experiments_records_deviations(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "deviation" in text.lower()
        assert "DCRA" in text

    def test_readme_quickstart_names_real_api(self):
        text = (ROOT / "README.md").read_text()
        for symbol in ("SMTProcessor", "EpochController",
                       "HillClimbingPolicy", "get_workload"):
            assert symbol in text, symbol
            assert hasattr(repro, symbol), symbol


class TestBenchCoverage:
    def test_every_table_and_figure_has_a_bench(self):
        benches = {path.name for path in (ROOT / "benchmarks").glob("bench_*.py")}
        expected = {
            "bench_table1_config.py", "bench_table2_characteristics.py",
            "bench_table3_workloads.py", "bench_fig2_surface.py",
            "bench_fig4_offline_limit.py", "bench_fig5_sync_timeline.py",
            "bench_fig6_hill_width_demo.py", "bench_fig7_hill_widths.py",
            "bench_fig9_hill_vs_baselines.py", "bench_fig10_metric_goals.py",
            "bench_fig11_vs_ideal.py", "bench_fig12_behaviors.py",
            "bench_sec5_phase_hill.py", "bench_qualitative.py",
            "bench_ablations.py",
        }
        assert expected <= benches

    def test_at_least_three_examples(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (ROOT / "examples" / "quickstart.py").exists()


class TestModuleDocstrings:
    def test_every_public_module_has_a_docstring(self):
        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue  # importing it runs the CLI
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, missing

    def test_public_symbols_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_semver_ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)


#: Runs in a fresh interpreter: refuse every top-level import that is
#: neither stdlib nor ``repro``, recording the ones ``repro`` code asks
#: for, then import every module of the package.  A guarded ``try:
#: import thirdparty`` still shows up in ``attempted``, so optional
#: third-party imports fail the probe too.  (The stdlib's own guarded
#: probes, e.g. ``copy`` looking for Jython's ``org``, are not counted.)
_STDLIB_ONLY_PROBE = r'''
import importlib
import importlib.abc
import pkgutil
import sys

attempted = set()


def _importer():
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename.startswith(
            "<frozen"):
        frame = frame.f_back
    return "" if frame is None else frame.f_globals.get("__name__", "")


class BlockThirdParty(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if path is None and top != "repro" \
                and top not in sys.stdlib_module_names:
            if _importer().partition(".")[0] == "repro":
                attempted.add(top)
            raise ModuleNotFoundError("blocked %r" % name, name=name)
        return None


sys.meta_path.insert(0, BlockThirdParty())
import repro

failed = []
for info in pkgutil.walk_packages(repro.__path__, "repro.",
                                  onerror=failed.append):
    if info.name == "repro.__main__":
        continue  # importing the entry point would run the CLI
    try:
        importlib.import_module(info.name)
    except Exception as exc:
        failed.append("%s: %s: %s" % (info.name, type(exc).__name__, exc))
print("attempted:", sorted(attempted))
print("failed:", failed)
sys.exit(1 if attempted or failed else 0)
'''


class TestStdlibOnly:
    """The package runs on a bare interpreter: no module under ``repro``
    imports anything outside the standard library, and the packaging
    metadata declares no runtime dependencies."""

    @pytest.mark.skipif(sys.version_info < (3, 10),
                        reason="needs sys.stdlib_module_names")
    def test_every_module_imports_without_third_party_packages(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.run([sys.executable, "-c", _STDLIB_ONLY_PROBE],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_pyproject_declares_no_dependencies(self):
        text = (ROOT / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        assert re.search(r"^dependencies = \[\]$", project, re.M), project


class TestEventTableDrift:
    """The docs carry the canonical event-name tables between HTML
    sentinel comments; each block must list *exactly* the code table,
    in order, so prose and code can never disagree about the sweep
    event vocabulary."""

    @staticmethod
    def _sentinel_names(doc, tag):
        text = (ROOT / doc).read_text()
        match = re.search(
            r"<!-- %s:begin -->(.*?)<!-- %s:end -->" % (tag, tag),
            text, re.S)
        assert match, "%s: missing %s sentinel block" % (doc, tag)
        return re.findall(r"`([a-z][a-z-]*)`", match.group(1))

    def test_parallel_md_lists_exactly_the_sweep_events(self):
        names = self._sentinel_names("docs/PARALLEL.md", "sweep-events")
        assert names == list(SWEEP_EVENTS)

    def test_service_md_lists_exactly_the_service_events(self):
        names = self._sentinel_names("docs/SERVICE.md", "service-events")
        assert names == list(SERVICE_EVENTS)

    def test_the_two_tables_do_not_overlap(self):
        assert not set(SWEEP_EVENTS) & set(SERVICE_EVENTS)

    def test_performance_md_lists_exactly_the_core_lanes(self):
        """docs/PERFORMANCE.md's lane table is the canonical statement
        of which run-loop cores exist; it must match CORE_MODES exactly,
        in order, so a new core cannot land undocumented."""
        from repro.pipeline.fastpath import CORE_MODES

        names = self._sentinel_names("docs/PERFORMANCE.md", "core-lanes")
        assert names == list(CORE_MODES)


# -- executable documentation ----------------------------------------------


def _base_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture(scope="module")
def snippet_env(tmp_path_factory):
    """Environment for doc snippets: smoke scale, 2 jobs, throwaway
    cache/runs/output dirs shared across snippets (so the sweep examples
    exercise warm-cache behaviour the way the docs describe)."""
    tmp = tmp_path_factory.mktemp("doc-snippets")
    env = _base_env()
    env.update({
        "REPRO_SCALE": "smoke",
        "REPRO_BENCH_SCALE": "smoke",
        "REPRO_JOBS": "2",
        "REPRO_BENCH_JOBS": "2",
        "REPRO_RUNS": str(tmp / "runs"),
        "REPRO_OUT": str(tmp / "out"),
        "REPRO_CACHE_DIR": str(tmp / "cache"),
    })
    return env


def _run(argv, env=None, snippet_input=None):
    return subprocess.run(
        argv, input=snippet_input, env=env or _base_env(), cwd=str(ROOT),
        timeout=600, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


class TestDocSnippetsRun:
    def test_docs_have_executable_snippets(self):
        # The conventions above only mean something if plain blocks exist.
        assert len(EXECUTABLE) >= 6
        assert {block.name for block in EXECUTABLE} == set(DOC_FILES)

    @pytest.mark.parametrize(
        "block", [b for b in EXECUTABLE if b.info == "bash"], ids=_ids)
    def test_bash_snippet_runs(self, block, snippet_env):
        if shutil.which("bash") is None:
            pytest.skip("no bash on PATH")
        script = "set -eu -o pipefail\n" + block.body
        proc = _run(["bash", "-c", script], snippet_env)
        assert proc.returncode == 0, "%s line %d failed:\n%s" % (
            block.name, block.lineno, proc.stdout)

    @pytest.mark.parametrize(
        "block", [b for b in EXECUTABLE if b.info == "python"], ids=_ids)
    def test_python_snippet_runs(self, block, snippet_env):
        proc = _run([sys.executable, "-"], snippet_env,
                    snippet_input=block.body)
        assert proc.returncode == 0, "%s line %d failed:\n%s" % (
            block.name, block.lineno, proc.stdout)

    @pytest.mark.parametrize("block", TAGGED_ONLY, ids=_ids)
    def test_tagged_snippet_is_at_least_well_formed(self, block):
        if block.info.startswith("python"):
            compile(block.body, "%s:%d" % (block.name, block.lineno), "exec")
        elif shutil.which("bash") is not None:
            proc = _run(["bash", "-n", "-c", block.body], None)
            assert proc.returncode == 0, proc.stdout


class TestDocCliFlagsExist:
    """Every documented `python -m repro <cmd> --flag` must be a real
    flag of that subcommand's parser."""

    @staticmethod
    def _invocations():
        calls = []
        for block in CODE_SNIPPETS:
            if not block.info.startswith("bash"):
                continue
            joined = block.body.replace("\\\n", " ")
            for line in joined.splitlines():
                words = line.split("#")[0].split()
                if "-m" not in words:
                    continue
                at = words.index("-m")
                if words[at + 1:at + 2] != ["repro"]:
                    continue
                rest = words[at + 2:]
                if not rest or rest[0].startswith("-"):
                    continue
                # `repro cache clear --corrupt-only`: flags live on the
                # sub-subparser, so keep one leading bare word to ask
                # `repro cache clear --help` rather than `cache --help`.
                sub = tuple(word for word in rest[1:2]
                            if not word.startswith("-"))
                flags = [word.split("=")[0] for word in rest[1:]
                         if word.startswith("--")]
                calls.append((block, rest[0], sub, tuple(flags)))
        return calls

    def test_docs_actually_document_the_cli(self):
        commands = {command for __, command, __, __ in self._invocations()}
        assert {"sweep", "cache", "run", "verify", "serve", "worker",
                "submit", "chaos", "loadtest"} <= commands

    def test_documented_flags_exist(self):
        help_texts = {}
        for block, command, sub, flags in self._invocations():
            key = (command,) + sub
            if key not in help_texts:
                proc = _run([sys.executable, "-m", "repro"] + list(key)
                            + ["--help"], None)
                assert proc.returncode == 0, (key, proc.stdout)
                help_texts[key] = proc.stdout
            for flag in flags:
                assert flag in help_texts[key], (
                    "%s line %d documents %s %s, unknown to --help"
                    % (block.name, block.lineno, " ".join(key), flag))
