"""Finding records and the rule registry for ``repro lint``.

Every static-analysis pass emits :class:`Finding` records tagged with a
rule code from :data:`RULES`.  The registry is the single source of truth
for rule metadata: ``repro lint --explain CODE`` prints it, and
``docs/ANALYSIS.md`` is drift-tested against it.

Allowlisting: a finding whose source line carries a marker comment of the
form ``# repro: allow-<kind>[CODE]`` (e.g. ``# repro:
allow-nondeterminism[ND105]``, several codes comma-separated) is
suppressed.  Markers are deliberately per-line and per-rule so a
sanctioned hazard never silences a neighbouring one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "ALLOW_RE",
    "Finding",
    "RULES",
    "Rule",
    "allowed_codes",
    "rule_doc",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"  # "error" | "warning"

    def render(self) -> str:
        return "%s:%d: %s [%s] %s" % (
            self.path, self.line, self.severity, self.rule, self.message)

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class Rule:
    """Metadata for one rule code (see docs/ANALYSIS.md)."""

    code: str
    name: str
    summary: str
    doc: str


_RULE_LIST = (
    Rule(
        "ND101", "wall-clock-read",
        "simulation-affecting code reads the wall clock",
        "`time.time()`, `time.monotonic()`, `time.perf_counter()`, "
        "`datetime.now()` and friends make a run depend on when it "
        "executed, so two runs of the same cell can disagree.  Sanctioned "
        "uses that only feed execution metadata (progress events, "
        "watchdog budgets) carry `# repro: allow-nondeterminism[ND101]`.",
    ),
    Rule(
        "ND102", "os-entropy",
        "simulation-affecting code draws OS entropy",
        "`os.urandom()`, `uuid.uuid1()/uuid4()` and the `secrets` module "
        "are seeded by the operating system and cannot be replayed.  All "
        "simulator randomness must flow from a seeded `random.Random` "
        "constructed from experiment configuration.",
    ),
    Rule(
        "ND103", "global-rng-call",
        "simulation-affecting code uses the process-global random module "
        "state",
        "Module-level calls such as `random.random()`, "
        "`random.randrange()` or `random.shuffle()` share one hidden RNG "
        "across the whole process, so results depend on unrelated call "
        "order (and on other threads).  Construct a dedicated seeded "
        "`random.Random` instead.",
    ),
    Rule(
        "ND104", "unseeded-rng",
        "an RNG is constructed without an explicit seed",
        "`random.Random()` with no arguments seeds from OS entropy: every "
        "run differs.  Always pass a seed derived from the experiment "
        "configuration.",
    ),
    Rule(
        "ND105", "rng-construction",
        "an RNG is constructed in simulation-affecting code",
        "Even a seeded `random.Random(seed)` is a determinism hazard "
        "unless the seed provably flows from the experiment "
        "configuration, so every construction site must be explicitly "
        "sanctioned with `# repro: allow-nondeterminism[ND105]`.  The "
        "sanctioned sites are the synthetic workload streams "
        "(workloads/generator.py), the RAND-HILL search "
        "(core/rand_hill.py) and fault injection (reliability/faults.py).",
    ),
    Rule(
        "ND106", "id-keyed-state",
        "container keyed by id(...)",
        "CPython object ids are allocation addresses: a dict or set keyed "
        "by `id(x)` iterates (and therefore feeds downstream state) in an "
        "address-dependent order that changes run to run.  Key by a "
        "stable identifier (sequence number, name) instead.",
    ),
    Rule(
        "ND107", "set-iteration-order",
        "iteration over an unsorted set expression",
        "Set iteration order depends on insertion history and hash "
        "randomization of the element types.  A `for` loop or "
        "comprehension over a set literal, `set(...)` / `frozenset(...)` "
        "call or set comprehension must wrap it in `sorted(...)` before "
        "the order can feed simulation state.",
    ),
    Rule(
        "PC201", "unknown-hook-override",
        "a policy defines a hook-shaped method the controller never calls",
        "A `ResourcePolicy` subclass defines a public method matching the "
        "hook naming pattern (`on_*`, `plan_*`, `fetch_*`, `attach`) that "
        "is not one of the hooks declared in policies/base.py — almost "
        "always a typo like `on_epoch_ends` that silently never fires.",
    ),
    Rule(
        "PC202", "hook-arity-mismatch",
        "a hook override declares a different positional arity than the "
        "base hook",
        "The controller calls hooks positionally; an override with extra "
        "or missing required parameters raises TypeError at runtime (or "
        "worse, a default swallows an argument).  Match the signature "
        "declared in policies/base.py.",
    ),
    Rule(
        "PC203", "private-attribute-write",
        "a policy writes a private attribute of the processor or its "
        "shared resources",
        "Policies must drive the machine through the sanctioned API "
        "(`partitions.set_shares`, public thread fields, hook return "
        "values).  Assigning underscore-private attributes of the `proc` "
        "argument bypasses validation and invariant checking.",
    ),
    Rule(
        "PC204", "hook-shadowed-by-value",
        "a class attribute shadows a hook with a non-function",
        "Assigning e.g. `on_cycle = None` at class level makes the "
        "controller call a non-callable (or silently skip behaviour).  "
        "Override hooks with methods only.",
    ),
    Rule(
        "AS301", "blocking-call-in-coroutine",
        "a blocking call is reachable from an `async def` via the "
        "intra-module call graph",
        "The service daemon runs one event loop that owns every lease "
        "timer, connection and event stream; a synchronous `time.sleep`, "
        "`urllib`/`socket` request, `subprocess` wait or builtin `open()` "
        "on a coroutine's call path stalls all of them at once.  The "
        "finding names a concrete witness path.  Move the work off-loop "
        "(executor, pre-computed data) or sanction a deliberately "
        "bounded call with `# repro: allow-async[AS301] <justification>`.",
    ),
    Rule(
        "AS302", "fire-and-forget-task",
        "a spawned task's handle is neither stored, awaited, nor "
        "cancelled",
        "`asyncio.create_task` / `ensure_future` whose handle is dropped "
        "(bare expression statement) or stored in a never-read binding "
        "cannot be awaited or cancelled on drain, and any exception it "
        "raises vanishes into the loop's exception handler.  The "
        "sanctioned shape is server.py's `_tick_task`: store the handle, "
        "`.cancel()` it in shutdown.",
    ),
    Rule(
        "AS303", "await-in-critical-section",
        "guarded state is mutated on both sides of an `await` without "
        "holding a lock",
        "The daemon's locking discipline is \"every mutation happens "
        "between awaits\": a coroutine that mutates lease/queue/journal "
        "state (the roots named by the module's `# repro: "
        "guarded-state[...]` marker), awaits, then mutates again has "
        "torn the transition — another handler interleaves at the yield "
        "point and observes half-applied state.  Finish the mutation "
        "before awaiting, hold the owning `asyncio.Lock` across the "
        "section, or waive a proven-benign yield with `# repro: "
        "allow-async[AS303] <justification>`.",
    ),
    Rule(
        "AS304", "async-waiver-without-justification",
        "an `allow-async[...]` waiver carries no justification text",
        "Async waivers are load-bearing: each one asserts a hazard is "
        "sound (a bounded local file append, a wrap-around yield that "
        "re-validates state).  A bare marker records the suppression but "
        "not the argument, so the next editor cannot re-check it.  "
        "Follow the bracket with one line of why.  This rule cannot "
        "itself be waived.",
    ),
)

RULES: dict[str, Rule] = {rule.code: rule for rule in _RULE_LIST}

ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow-[a-z-]+\[([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)\]")


def allowed_codes(source_line: str) -> frozenset[str]:
    """Rule codes suppressed by marker comments on this source line."""
    codes: set[str] = set()
    for match in ALLOW_RE.finditer(source_line):
        codes.update(part.strip() for part in match.group(1).split(","))
    return frozenset(codes)


def rule_doc(code: str) -> str:
    """The ``--explain`` text for one rule code (KeyError if unknown)."""
    rule = RULES[code]
    return "%s (%s)\n  %s\n\n%s" % (rule.code, rule.name, rule.summary,
                                    rule.doc)
