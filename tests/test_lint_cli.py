"""``repro lint`` CLI behaviour: exit codes, formats, filters, --explain,
and drift between the rule registry and docs/ANALYSIS.md."""

import json
import os
import re

import pytest

from repro.analysis.lint import RULES
from repro.cli import main

DOCS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "docs", "ANALYSIS.md")


def test_clean_tree_exits_zero(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_json_format(capsys):
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"schema_version": 1, "clean": True, "findings": []}


def test_select_and_ignore_filters(capsys):
    assert main(["lint", "--select", "PC"]) == 0
    assert main(["lint", "--ignore", "ND", "PC", "AS", "MC"]) == 0


def test_select_accepts_comma_separated_codes(capsys):
    assert main(["lint", "--select", "AS,MC"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def _widen_scope_to_the_chaos_harness(monkeypatch):
    """Doctor the determinism scope to take in reliability/chaos.py,
    whose hang fault reads the wall clock (two ND101 findings)."""
    from repro.analysis.lint import engine

    monkeypatch.setattr(engine, "CELL_ENTRIES",
                        engine.CELL_ENTRIES + ("reliability/chaos.py",))


def test_findings_exit_one(capsys, monkeypatch):
    _widen_scope_to_the_chaos_harness(monkeypatch)
    assert main(["lint"]) == 1
    out = capsys.readouterr().out
    assert "[ND101]" in out and "reliability/chaos.py" in out


def test_findings_json_payload(capsys, monkeypatch):
    _widen_scope_to_the_chaos_harness(monkeypatch)
    assert main(["lint", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["schema_version"] == 1
    assert {"rule", "path", "line", "message", "severity"} \
        <= set(payload["findings"][0])
    # deterministic (path, line, rule, message) order
    keys = [(f["path"], f["line"], f["rule"], f["message"])
            for f in payload["findings"]]
    assert keys == sorted(keys)


def test_explain_every_rule(capsys):
    for code in RULES:
        assert main(["lint", "--explain", code]) == 0
        out = capsys.readouterr().out
        assert out.startswith(code)


def test_explain_unknown_rule_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--explain", "XX999"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert err.count("\n") == 1  # one-line error


def test_explain_all_lists_every_rule(capsys):
    assert main(["lint", "--explain", "all"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_internal_error_exits_two(capsys, monkeypatch):
    from repro.analysis.lint import engine

    def boom(**kwargs):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(engine, "run_repo_lint", boom)
    with pytest.raises(SystemExit) as excinfo:
        main(["lint"])
    assert excinfo.value.code == 2
    assert "lint pass crashed" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Documentation drift
# ----------------------------------------------------------------------


def test_docs_catalogue_matches_registry():
    with open(DOCS, encoding="utf-8") as handle:
        text = handle.read()
    documented = set(re.findall(r"\b((?:FP|ND|PC|AS|MC)\d{3})\b", text))
    assert documented == set(RULES)


def test_docs_name_each_rule_consistently():
    from repro.analysis.lint import rule_doc

    with open(DOCS, encoding="utf-8") as handle:
        text = handle.read()
    for code, rule in RULES.items():
        # the --explain header line is "CODE (kebab-name)"; the doc table
        # must use the same kebab name next to the same code
        assert rule.name in text, \
            "docs/ANALYSIS.md is missing the name %r for %s" \
            % (rule.name, code)
        assert rule_doc(code).startswith("%s (%s)" % (code, rule.name))
