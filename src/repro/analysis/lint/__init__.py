"""Static analysis over the ``repro`` package itself (``repro lint``).

Three AST/import-graph passes keep the reproduction trustworthy at
production scale (docs/ANALYSIS.md has the rule catalogue):

* :mod:`~repro.analysis.lint.determinism` — bans nondeterminism hazards
  (wall clock, OS entropy, global RNG state, unseeded RNGs, ``id()``
  keys, set-iteration order) in the code a cached sweep cell can run,
  the import closure computed by :mod:`~repro.analysis.lint.importgraph`
  (ND101–ND107).
* :mod:`~repro.analysis.lint.contracts` — verifies every
  ``ResourcePolicy`` subclass against the hook API declared in
  ``policies/base.py`` (PC201–PC204).
* :mod:`~repro.analysis.lint.asyncsafety` — event-loop hazards in the
  service tier, over the :mod:`~repro.analysis.lint.callgraph` layer:
  blocking calls reachable from coroutines, fire-and-forget tasks,
  torn critical sections (AS301–AS304).

Nothing in this package ever imports or executes the code it analyses —
everything is stdlib ``ast`` over source text — and the whole package is
``mypy --strict`` typed (enforced in CI).
"""

from repro.analysis.lint.findings import RULES, Finding, Rule, rule_doc

__all__ = ["Finding", "RULES", "Rule", "rule_doc"]
