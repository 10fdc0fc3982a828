"""Parallel sweep engine with content-addressed on-disk result caching.

Every figure/table of the paper reduces to an embarrassingly parallel grid
of independent (workload, policy, seed) simulations — the same structure
the thread-to-core allocation literature exploits by evaluating candidate
allocations as independent trials.  This module fans that grid out over a
:class:`concurrent.futures.ProcessPoolExecutor` and memoizes every cell in
a content-addressed on-disk cache, so that

* a sweep saturates however many cores the host has (``jobs=N``);
* re-running a sweep after editing one policy re-simulates only the cells
  whose cache keys changed (the key includes a per-policy code
  fingerprint — see :func:`cache_key`);
* a killed sweep resumes: completed cells return from the cache, and with
  a ``resume_dir`` each in-flight cell checkpoints per epoch
  (:func:`~repro.experiments.runner.run_policy` with a ``run_dir``) into
  a directory named by its cache key (:func:`cell_path`) and continues
  from its last completed epoch;
* merged results are deterministic — cell order follows the *request*
  order, never completion order, so ``jobs=4`` produces byte-identical
  JSON to ``jobs=1`` (:func:`merged_json`);
* the stand-alone SingleIPC runs every weighted metric divides by are
  stored in the same cache (:func:`solo_key`) and handed to whichever
  process simulates a cell, so no process derives a solo again.

Progress is surfaced as a lightweight JSONL event stream (one object per
line: sweep/cell lifecycle, done/cached/running counts, ETA, worker
count) plus an optional ``on_event`` callback for interactive display.

Every cell the cache cannot serve runs through one path, the cell
supervisor (:class:`~repro.reliability.supervisor.CellSupervisor`): in
process at ``jobs=1``, over a process pool otherwise.  With a
:class:`~repro.reliability.supervisor.Supervision` config it contains
failures — per-cell heartbeat timeouts, retry with deterministic
backoff, pool rebuild after ``BrokenProcessPool``, quarantine of repeat
offenders into a ``quarantine.jsonl`` ledger, graceful degrade to
in-process serial execution (``repro sweep`` enables this by default;
see docs/RELIABILITY.md "Sweep supervision").  Without one it runs
under :data:`~repro.reliability.supervisor.FAIL_FAST`: one attempt, and
the first failed cell raises.  Every cell runs the same epoch loop
whatever the flags, and the supervisor is the only layer that retries
one, so supervision never changes *what* a result is — a fault-free
supervised sweep is byte-identical to a fail-fast one, a contract the
``repro chaos`` harness enforces.

The cache directory defaults to ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-sweeps``; ``python -m repro cache info|clear`` inspects
and empties it.  docs/PARALLEL.md documents the architecture, the key
derivation and the invalidation rules.
"""

import hashlib
import json
import math
import os
import sys
import tempfile
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.experiments.export import _jsonable, indented_json
from repro.experiments.runner import RunResult, remember_solo, run_policy
from repro.policies import BASELINE_POLICIES  # repro: allow-reexport[FP005] (registry lookup; per-family sources hash the defining modules)
from repro.reliability.supervisor import (
    FAIL_FAST,
    SWEEP_EVENTS,
    CellBootstrapError,
    CellResultError,
    CellSupervisor,
    QuarantineLedger,
    Supervision,
    touch_heartbeat,
)
from repro.workloads.mixes import get_workload, workloads_in_group

DEFAULT_POLICIES = ("ICOUNT", "FLUSH", "DCRA", "HILL")

#: ``repro sweep --preset`` shorthands: (groups, policies) per figure grid.
SWEEP_PRESETS = {
    "fig4": (("ILP2", "MIX2", "MEM2"), ("ICOUNT", "FLUSH", "DCRA")),
    "fig9": (("ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"),
             ("ICOUNT", "FLUSH", "DCRA", "HILL")),
    "fig10": (("ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"),
              ("ICOUNT", "FLUSH", "DCRA",
               "HILL-IPC", "HILL-WIPC", "HILL-HWIPC")),
    "sec5": (("ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"),
             ("HILL", "PHASE-HILL")),
}


# ----------------------------------------------------------------------
# Policy specs: canonical names -> fresh policy instances
# ----------------------------------------------------------------------

_HILL_METRICS = ("IPC", "WIPC", "HWIPC")


def canonical_policy(name):
    """Normalize a policy spelling to its canonical sweep-cell form.

    Baselines keep their registry name; hill climbers always carry their
    metric suffix (``HILL`` -> ``HILL-WIPC``, ``PHASE-HILL`` ->
    ``PHASE-HILL-WIPC``) so equivalent spellings share cache entries.
    Raises :class:`ValueError` for unknown names.
    """
    upper = name.upper()
    if upper in BASELINE_POLICIES:
        return upper
    for prefix in ("PHASE-HILL", "HILL"):
        if upper == prefix:
            return prefix + "-WIPC"
        if upper.startswith(prefix + "-"):
            suffix = upper[len(prefix) + 1:]
            if suffix in _HILL_METRICS:
                return prefix + "-" + suffix
            break
    raise ValueError(
        "unknown policy %r (valid: %s, HILL[-IPC|-WIPC|-HWIPC], "
        "PHASE-HILL[-IPC|-WIPC|-HWIPC])"
        % (name, ", ".join(sorted(BASELINE_POLICIES))))


def policy_factory(name, scale):
    """Zero-argument factory for a policy name, with hill-climbing
    overheads (software stall, sampling period) scaled to the experiment.

    This is the single name-resolution point shared by the CLI and the
    sweep workers; raises :class:`ValueError` for unknown names.
    """
    from repro.core.hill_climbing import HillClimbingPolicy  # repro: dispatch[HILL]
    from repro.core.metrics import metric_by_name
    from repro.core.phase_hill import PhaseHillPolicy  # repro: dispatch[PHASE-HILL]

    spec = canonical_policy(name)
    if spec in BASELINE_POLICIES:
        return BASELINE_POLICIES[spec]
    cls = PhaseHillPolicy if spec.startswith("PHASE-") else HillClimbingPolicy
    metric_name = spec.split("-")[-1].lower()
    return lambda: cls(metric=metric_by_name(metric_name),
                       software_cost=scale.hill_software_cost,
                       sample_period=scale.hill_sample_period)


# ----------------------------------------------------------------------
# Sweep cells and cache keys
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a (workload, policy, seed) simulation request."""

    workload: str
    policy: str          # canonical policy name (see canonical_policy)
    seed: int = 0
    epochs: int = None   # None: the scale's epoch count

    @property
    def label(self):
        return "%s/%s/s%d" % (self.workload, self.policy, self.seed)


def grid_cells(workloads=None, groups=None, policies=DEFAULT_POLICIES,
               seeds=(0,), epochs=None, workloads_per_group=None):
    """The cartesian sweep grid, workload-major, in deterministic order.

    ``workloads`` (explicit names) and ``groups`` (Table 3 group names)
    combine; with neither, all six groups are swept.
    """
    names = list(workloads or [])
    for group in (groups if groups is not None
                  else ([] if workloads else
                        ("ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"))):
        members = [w.name for w in workloads_in_group(group)]
        if workloads_per_group is not None:
            members = members[:workloads_per_group]
        names.extend(members)
    cells = []
    for name in names:
        get_workload(name)  # fail fast on unknown names
        for policy in policies:
            for seed in seeds:
                cells.append(SweepCell(workload=name,
                                       policy=canonical_policy(policy),
                                       seed=seed, epochs=epochs))
    return cells


# -- code fingerprint ---------------------------------------------------

#: Entry modules whose transitive import closure defines "code every cell
#: depends on".  ``repro lint`` (the fingerprint auditor, rule FP001)
#: proves that ``_CORE_SOURCES`` + ``_POLICY_SOURCES[family]`` covers the
#: import closure of ``_CORE_ENTRIES`` + ``_FAMILY_ENTRIES[family]``.
_CORE_ENTRIES = ("experiments/runner.py", "experiments/parallel.py")

#: Per-family entry modules: the lazily imported policy implementations.
#: Their lazy import sites carry ``# repro: dispatch[FAMILY]`` markers so
#: the auditor can attribute each to one family (rule FP006).
_FAMILY_ENTRIES = {
    "ICOUNT": ("policies/icount.py",),
    "FPG": ("policies/fpg.py",),
    "STALL": ("policies/stall.py",),
    "FLUSH": ("policies/flush.py",),
    "STALL-FLUSH": ("policies/stall_flush.py",),
    "DG": ("policies/dg.py",),
    "PDG": ("policies/dg.py",),
    "DCRA": ("policies/dcra.py",),
    "STATIC": ("policies/static_partition.py",),
    "HILL": ("core/hill_climbing.py",),
    "PHASE-HILL": ("core/phase_hill.py",),
}

#: Source files every cell depends on, relative to the ``repro`` package:
#: the simulator substrate, the run machinery (including its on-disk run
#: state), the supervisor, the policy registry and the default fetch
#: policy (ICOUNT drives both default fetch priority and SingleIPC runs).
#: Package ``__init__`` files are hashed because importing any closure
#: module executes them.
_CORE_SOURCES = (
    # Directory entries hash every .py under them, so the fast core's
    # quiescence module (pipeline/fastpath.py) is covered by "pipeline" —
    # editing it invalidates every cell, exactly as editing the reference
    # loop does.
    "pipeline", "memory", "branch", "workloads",
    "__init__.py", "core/__init__.py", "experiments/__init__.py",
    "policies/__init__.py", "reliability/__init__.py",
    "core/controller.py", "core/metrics.py",
    "policies/base.py", "policies/icount.py",
    "experiments/runner.py", "experiments/parallel.py",
    "experiments/export.py",
    "reliability/supervisor.py",
)

#: Extra sources per policy family; editing one of these invalidates only
#: that family's cells.
_POLICY_SOURCES = {
    "ICOUNT": (),
    "FPG": ("policies/fpg.py",),
    "STALL": ("policies/stall.py",),
    "FLUSH": ("policies/flush.py",),
    "STALL-FLUSH": ("policies/stall_flush.py", "policies/flush.py"),
    "DG": ("policies/dg.py",),
    "PDG": ("policies/dg.py",),
    "DCRA": ("policies/dcra.py",),
    "STATIC": ("policies/static_partition.py",),
    "HILL": ("core/hill_climbing.py", "core/partition.py"),
    "PHASE-HILL": ("core/phase_hill.py", "core/hill_climbing.py",
                   "core/partition.py", "phase"),
}

#: Memoized fingerprints, keyed by family.
_fingerprint_memo = {}


def _package_root():
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _iter_source_files(root, rel):
    path = os.path.join(root, rel)
    if os.path.isfile(path):
        yield rel, path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root), full


def _fingerprint_files(root, family):
    """Package-relative source files one family's fingerprint hashes."""
    files = []
    for rel in _CORE_SOURCES + _POLICY_SOURCES[family]:
        files.extend(relpath for relpath, _ in _iter_source_files(root, rel))
    return tuple(sorted(set(files)))


def code_fingerprint(policy):
    """Hash of the source files a policy's simulation depends on.

    The fingerprint covers the simulator substrate plus the policy's own
    module(s), so editing ``policies/dcra.py`` invalidates DCRA cells
    only, while editing the pipeline invalidates everything.  The file
    set is the audited hand lists (``repro lint`` proves them
    sufficient).
    """
    family = canonical_policy(policy)
    if family.startswith("PHASE-HILL"):
        family = "PHASE-HILL"
    elif family.startswith("HILL"):
        family = "HILL"
    memo = _fingerprint_memo.get(family)
    if memo is not None:
        return memo
    root = _package_root()
    digest = hashlib.sha256()
    for relpath in _fingerprint_files(root, family):
        digest.update(relpath.encode())
        with open(os.path.join(root, relpath), "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    value = digest.hexdigest()
    _fingerprint_memo[family] = value
    return value


def clear_fingerprint_memo():
    """Forget memoized fingerprints (tests edit sources mid-process)."""
    _fingerprint_memo.clear()


#: Memoized sorted-key JSON text of the frozen values a cache key embeds
#: (the machine configuration, each benchmark profile), keyed by the
#: values themselves, so an entry can never go stale; emptied when full
#: so that multi-config sweeps stay small.
_FRAGMENTS = {}
_FRAGMENTS_MAXSIZE = 256


def _fragment(value):
    """``json.dumps(_jsonable(value), sort_keys=True)``, memoized.

    ``==`` conflates ``8`` with ``8.0`` and ``True`` with ``1``, which
    JSON writes differently, so a hit on an equal but distinct object
    must also have an equal ``repr``; that object then becomes the
    entry's, so the next lookup with it (every cell of one daemon job
    shares one config) is an identity hit.
    """
    entry = _FRAGMENTS.get(value)
    if entry is not None and entry[0] is value:
        return entry[1]
    if entry is not None and repr(entry[0]) == repr(value):
        text = entry[1]
    else:
        text = json.dumps(_jsonable(value), sort_keys=True)
        if len(_FRAGMENTS) >= _FRAGMENTS_MAXSIZE:
            _FRAGMENTS.clear()
    _FRAGMENTS[value] = (value, text)
    return text


def cache_key(cell, scale):
    """Content address of one cell's result.

    The key hashes everything the simulation's outcome depends on: the
    full machine configuration, the workload's benchmark profiles (their
    parameters, not just their names), the canonical policy spec, the
    seed, the epoch schedule (epoch size, the cell's epoch count, warmup,
    and the scale's epoch count — the SingleIPC window, which differs
    from the cell's when the cell overrides ``epochs``), and the relevant
    code fingerprint.  Anything else — job count, cache location, event
    stream, resume state — deliberately stays out.

    The hashed blob is ``json.dumps(payload, sort_keys=True)`` of
    ``{"code", "config", "policy", "profiles", "schedule", "seed",
    "workload"}``, written out here in that sorted order around the
    memoized :func:`_fragment` texts of the configuration and profiles
    (``tests/test_parallel.py`` holds the two spellings equal).
    """
    schedule = {
        "epoch_size": scale.epoch_size,
        "epochs": cell.epochs if cell.epochs is not None else scale.epochs,
        "solo_epochs": scale.epochs,
        "warmup": scale.warmup,
    }
    blob = ('{"code": %s, "config": %s, "policy": %s, "profiles": [%s], '
            '"schedule": %s, "seed": %s, "workload": %s}') % (
        json.dumps(code_fingerprint(cell.policy)), _fragment(scale.config),
        json.dumps(cell.policy),
        ", ".join(map(_fragment, get_workload(cell.workload).profiles)),
        json.dumps(schedule, sort_keys=True), json.dumps(cell.seed),
        json.dumps(cell.workload))
    return hashlib.sha256(blob.encode()).hexdigest()


def solo_key(profile, scale):
    """Content address of one benchmark's SingleIPC value.

    Hashes what :func:`repro.experiments.runner.solo_ipc` depends on: the
    profile's parameters (its name included, since the name seeds the
    instruction stream), the machine configuration, the solo window
    (epoch size, the *scale's* epoch count, warmup), the seed, and the
    ICOUNT family's code fingerprint — solo runs are ICOUNT runs, and
    that file set covers the substrate, ``policies/icount.py`` and
    ``experiments/runner.py``.
    """
    payload = {
        "profile": _jsonable(profile),
        "config": _jsonable(scale.config),
        "schedule": {
            "epoch_size": scale.epoch_size,
            "epochs": scale.epochs,
            "warmup": scale.warmup,
        },
        "seed": scale.seed,
        "code": code_fingerprint("ICOUNT"),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _seeded_scale(cell, scale):
    """The scale one cell runs at: ``scale`` with the cell's seed."""
    return (scale if scale.seed == cell.seed
            else scale.with_overrides(seed=cell.seed))


def cell_solo_keys(cell, scale):
    """:func:`solo_key` of every thread of one cell, in thread order."""
    seeded = _seeded_scale(cell, scale)
    return [solo_key(profile, seeded)
            for profile in get_workload(cell.workload).profiles]


def store_solos(cache, cell, scale, single_ipcs):
    """Persist a cell result's SingleIPCs that ``cache`` does not hold
    yet; present entries are never rewritten."""
    profiles = get_workload(cell.workload).profiles
    for profile, key, value in zip(profiles, cell_solo_keys(cell, scale),
                                   single_ipcs):
        if cache.get_solo(key) is None:
            cache.put_solo(key, profile.name, value)


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------

#: ``entries``/``bytes`` count cell results only.  ``corrupt``/
#: ``corrupt_bytes`` count the ``<key>.corrupt`` entries that
#: :meth:`ResultCache.get` and :meth:`ResultCache.get_solo` sidelined
#: (they are misses, not results, but they occupy disk until ``repro
#: cache clear --corrupt-only``).  ``solos`` counts stored SingleIPC
#: values.
CacheStats = namedtuple(
    "CacheStats", "entries bytes corrupt corrupt_bytes directory solos")


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-sweeps")


#: The fixed text of a result entry around its cell, key, result and
#: digest: ``{"cell": C, "key": K, "result": R, "sha256": "S"}``.
_CELL_HEAD = '{"cell": '
_KEY_SEP = ', "key": %s, "result": '
_DIGEST_SEP = ', "sha256": "'
_ENTRY_END = '"}'


class ResultCache:
    """Content-addressed store of finished cell results.

    Layout: ``<dir>/objects/<key[:2]>/<key>.json``, one JSON document per
    cell holding the cell description (for ``cache info`` debugging), the
    entry's own cache key, a sha256 digest of the canonical result
    payload, and the :meth:`RunResult.to_dict` payload.  Writes are
    atomic (write-to-temp + ``os.replace``); unreadable entries count as
    misses.  A *readable but corrupt* entry — truncated JSON from a
    crash mid-write elsewhere, a bad payload shape, a payload whose
    digest no longer matches, or an entry filed under the wrong key —
    also counts as a miss and is moved aside to ``<key>.corrupt`` with a
    one-line warning, so it can never shadow the re-simulated result nor
    poison later invocations.  ``repro cache info`` counts the sidelined
    entries.  An entry in :meth:`put`'s layout is verified by hashing its
    stored result bytes (:meth:`verify`); any other goes through the full
    parse-and-re-encode check, with the same verdicts.

    SingleIPC values live beside the results, under
    ``<dir>/solos/<key[:2]>/<key>.json`` (key: :func:`solo_key`), read
    and written through :meth:`get_solo`/:meth:`put_solo` with the same
    atomic writes and the same sidelining of corrupt entries.
    """

    def __init__(self, directory=None):
        self.directory = directory or default_cache_dir()
        self.objects_dir = os.path.join(self.directory, "objects")
        self.solos_dir = os.path.join(self.directory, "solos")

    def _path(self, key):
        return os.path.join(self.objects_dir, key[:2], key + ".json")

    def _solo_path(self, key):
        return os.path.join(self.solos_dir, key[:2], key + ".json")

    @staticmethod
    def _sideline(path, what, key, exc):
        """Move a corrupt entry aside to ``.corrupt`` and warn once."""
        try:
            os.replace(path, path[:-len(".json")] + ".corrupt")
        except OSError:
            pass
        print("warning: corrupt %s %s… treated as a miss, moved to "
              ".corrupt (%s: %s)" % (what, key[:12], type(exc).__name__,
                                     exc), file=sys.stderr)

    @staticmethod
    def _result_digest(result_text):
        """sha256 of the canonical (sorted-key) result payload text."""
        return hashlib.sha256(result_text.encode()).hexdigest()

    @classmethod
    def _stored_result(cls, text, key):
        """``(digest, result text)`` of an entry in :meth:`put`'s exact
        layout whose stored digest is the sha256 of its result text as
        stored, else ``None``.

        A match is an accept the full check in :meth:`_checked` would
        also give: the digest fixes the result text as the canonical
        text :meth:`put` hashed, the key is the literal one asked for,
        and the cell text must parse.  It never rejects; anything else
        goes to the full check, so verdicts and warnings stay its own.
        """
        marker = _KEY_SEP % json.dumps(key)
        digest_at = len(text) - len(_ENTRY_END) - 64
        result_end = digest_at - len(_DIGEST_SEP)
        if not (result_end > len(_CELL_HEAD)
                and text.startswith(_CELL_HEAD) and text.endswith(_ENTRY_END)
                and text[result_end:digest_at] == _DIGEST_SEP):
            return None
        split = text.find(marker, len(_CELL_HEAD))
        if split < 0:
            return None
        result_text = text[split + len(marker):result_end]
        digest = text[digest_at:-len(_ENTRY_END)]
        if cls._result_digest(result_text) != digest:
            return None
        try:
            json.loads(text[len(_CELL_HEAD):split])
        except ValueError:
            return None
        return digest, result_text

    def _checked(self, path, key):
        """Read and verify one entry: ``(digest, canonical result
        text)``; raises what a corrupt entry raises."""
        with open(path) as handle:
            text = handle.read()
        stored = self._stored_result(text, key)
        if stored is not None:
            return stored
        document = json.loads(text)
        if document["key"] != key:
            raise ValueError(
                "entry filed under key %s… carries key %s…"
                % (key[:12], str(document["key"])[:12]))
        result_text = json.dumps(document["result"], sort_keys=True)
        digest = self._result_digest(result_text)
        if document["sha256"] != digest:
            raise ValueError(
                "stored digest %s… does not match payload digest %s…"
                % (str(document["sha256"])[:12], digest[:12]))
        return digest, result_text

    def verify(self, key):
        """Verify one entry without building its result.

        Returns ``(digest, result text)`` — the sha256 the entry stores
        and the canonical result text it names — or ``None`` for a miss.
        An entry in :meth:`put`'s layout costs one read and one sha256
        of its stored result bytes; any other entry gets the full check
        (parse, re-encode, digest), so a rewritten but equal entry still
        verifies.  A corrupt entry is sidelined, as by :meth:`get`.
        """
        path = self._path(key)
        try:
            return self._checked(path, key)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._sideline(path, "cache entry", key, exc)
            return None

    def get(self, key):
        verified = self.verify(key)
        if verified is None:
            return None
        try:
            return RunResult.from_dict(json.loads(verified[1]))
        except (ValueError, KeyError, TypeError) as exc:
            self._sideline(self._path(key), "cache entry", key, exc)
            return None

    def put(self, key, cell, result):
        """Atomically store one result; safe under concurrent engines.

        Two writers racing on the same key both succeed: the keys are
        content addresses, so the duplicate ``os.replace`` onto the same
        path is a silent no-op by construction.  A racing
        :meth:`clear`/``rmtree`` that removes the bucket directory
        between the ``makedirs`` and the write is absorbed by recreating
        the directory and retrying once — ``put`` never raises
        ``FileNotFoundError`` at a victim of someone else's cleanup.
        """
        # The entry is json.dumps({"cell", "key", "result", "sha256"},
        # sort_keys=True), written out around the one canonical result
        # text the digest is taken over.
        result_text = json.dumps(result.to_dict(), sort_keys=True)
        payload = "".join((
            _CELL_HEAD, json.dumps(_jsonable(cell), sort_keys=True),
            _KEY_SEP % json.dumps(key), result_text,
            _DIGEST_SEP, self._result_digest(result_text), _ENTRY_END))
        self._write(self._path(key), payload)

    @staticmethod
    def _write(path, payload):
        tmp = path + ".tmp.%d" % os.getpid()
        for retry in (False, True):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            try:
                with open(tmp, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                if retry:
                    raise

    @staticmethod
    def _valid_solo(value):
        return (isinstance(value, float) and math.isfinite(value)
                and value > 0)

    def get_solo(self, key):
        """The stored SingleIPC for one :func:`solo_key`, or ``None``.

        An unreadable entry, one filed under the wrong key, or one whose
        value is not a finite float > 0 is sidelined to ``.corrupt`` and
        counts as a miss.
        """
        path = self._solo_path(key)
        try:
            with open(path) as handle:
                document = json.load(handle)
            if document["key"] != key:
                raise ValueError(
                    "entry filed under key %s… carries key %s…"
                    % (key[:12], str(document["key"])[:12]))
            value = document["value"]
            if not self._valid_solo(value):
                raise ValueError("invalid SingleIPC %r" % (value,))
            return value
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._sideline(path, "solo entry", key, exc)
            return None

    def put_solo(self, key, profile, value):
        """Atomically store one SingleIPC (``profile`` is the benchmark
        name, kept for debugging).  A value :meth:`get_solo` would reject
        is not stored.  Floats round-trip exactly through ``json``."""
        if not self._valid_solo(value):
            return
        payload = json.dumps({"key": key, "profile": profile,
                              "value": value}, sort_keys=True)
        self._write(self._solo_path(key), payload)

    def _entries(self, suffix=".json", root=None):
        root = self.objects_dir if root is None else root
        if not os.path.isdir(root):
            return
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(suffix):
                    yield os.path.join(dirpath, name)

    @staticmethod
    def _measure(paths):
        count = 0
        total = 0
        for path in paths:
            count += 1
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return count, total

    def info(self):
        """Entry counts and sizes (see :data:`CacheStats`)."""
        entries, total = self._measure(self._entries())
        corrupt, corrupt_total = self._measure(
            list(self._entries(".corrupt"))
            + list(self._entries(".corrupt", self.solos_dir)))
        solos, _ = self._measure(self._entries(root=self.solos_dir))
        return CacheStats(entries=entries, bytes=total, corrupt=corrupt,
                          corrupt_bytes=corrupt_total,
                          directory=self.directory, solos=solos)

    def clear(self, corrupt_only=False):
        """Delete cached results; returns the number of result files
        removed.

        ``corrupt_only=True`` removes only the sidelined ``.corrupt``
        entries (results and solos) and leaves every valid entry in
        place; the default empties the cache, sidelined entries and
        ``solos/`` included.  Solo files are removed but not counted in
        the return value.  Already-removed files (a concurrent ``clear``)
        are skipped, not errors.
        """
        suffixes = (".corrupt",) if corrupt_only else (".json", ".corrupt")
        removed = 0
        for root, counted in ((self.objects_dir, True),
                              (self.solos_dir, False)):
            for suffix in suffixes:
                for path in list(self._entries(suffix, root)):
                    try:
                        os.remove(path)
                        removed += counted
                    except OSError:
                        pass
        return removed


# ----------------------------------------------------------------------
# Workers (top-level: must be picklable by the process pool)
# ----------------------------------------------------------------------


def _execute_cell(cell, scale, run_dir, heartbeat_path=None, attempt=1,
                  fault_plan=None, solos=None):
    """Simulate one cell (runs inside a worker process).

    Every cell runs :func:`run_policy`, looked up by its name in this
    module.  With ``run_dir`` (the cell's :func:`cell_path` under a
    resume dir) it keeps per-epoch crash-safe checkpoints there, so a
    killed sweep, or the supervisor's next attempt, continues mid-cell;
    ``resumed`` in the returned ``(result, resumed)`` says whether an
    earlier attempt had already created that directory.

    The supervisor passes the 1-based ``attempt`` number, with a
    ``cell_timeout`` a ``heartbeat_path`` (touched once per completed
    epoch through ``run_policy``'s ``on_epoch`` hook, so the parent can
    tell slow from hung), and optionally a chaos ``fault_plan``
    (picklable; see :mod:`repro.reliability.chaos`) whose hooks perturb
    this attempt.  Nothing in here retries: a failure is one attempt,
    which the supervisor (or the service's lease) charges and retries.
    Failures raised while *constructing* the cell — unknown workload or
    policy, a broken registry inside the child — are wrapped in
    :class:`~repro.reliability.supervisor.CellBootstrapError`: they are
    deterministic, so the supervisor aborts instead of retrying.

    ``solos`` (aligned with the workload's profiles; ``None`` entries
    unknown) carries SingleIPC values from the result cache.  They seed
    this process's solo LRU, so the run derives only the unknown ones.
    """
    if fault_plan is not None:
        fault_plan.before_cell(cell, attempt)
    try:
        workload = get_workload(cell.workload)
        policy = policy_factory(cell.policy, scale)()
    except CellBootstrapError:
        raise
    except Exception as exc:
        raise CellBootstrapError(
            "cannot construct cell %s: %s: %s"
            % (cell.label, type(exc).__name__, exc)) from exc
    seeded = _seeded_scale(cell, scale)
    for profile, value in zip(workload.profiles, solos or ()):
        if value is not None:
            remember_solo(profile, seeded, value)
    hooks = []
    if heartbeat_path is not None:
        touch_heartbeat(heartbeat_path)
        hooks.append(lambda epoch_id: touch_heartbeat(heartbeat_path))
    if fault_plan is not None:
        hooks.append(lambda epoch_id: fault_plan.on_epoch(cell, attempt,
                                                          epoch_id))
    on_epoch = (None if not hooks
                else lambda epoch_id: [hook(epoch_id) for hook in hooks])
    resumed = run_dir is not None and os.path.isdir(run_dir)
    result = run_policy(workload, policy, seeded, epochs=cell.epochs,
                        run_dir=run_dir, on_epoch=on_epoch)
    if fault_plan is not None:
        result = fault_plan.transform_result(cell, attempt, result)
    return result, resumed


def cell_path(root, key, suffix=""):
    """``root/<cache key><suffix>``: the checkpoint directory under a
    resume dir, or the heartbeat file, of the cell with cache ``key``.
    Naming by the key means a resume dir reused at another scale, epoch
    count or code version never serves a checkpoint of another cell."""
    return os.path.join(root, key + suffix)


def run_path(root, workload, policy, scale, epochs=None):
    """:func:`cell_path` of a single run (``repro run``/``compare``):
    the canonical cell of ``workload`` under ``policy`` at the scale's
    seed."""
    cell = SweepCell(workload=workload, policy=canonical_policy(policy),
                     seed=scale.seed, epochs=epochs)
    return cell_path(root, cache_key(cell, scale))


def ledger_info(cell, key, resume_dir):
    """The fields a cell's quarantine-ledger record adds to the
    containment machine's: identity, cache key and checkpoint path."""
    return {"workload": cell.workload, "policy": cell.policy,
            "seed": cell.seed, "key": key,
            "checkpoint": (None if resume_dir is None
                           else cell_path(resume_dir, key))}


def _validate_cell_value(cell, value):
    """Reject malformed worker payloads *before* they reach the cache.

    A supervised worker must return ``(RunResult, resumed)`` with finite
    metrics; anything else (a chaos-corrupted payload, a future pickling
    bug) raises :class:`CellResultError` so the supervisor retries the
    cell instead of caching garbage.
    """
    ok = (isinstance(value, tuple) and len(value) == 2
          and isinstance(value[0], RunResult)
          and isinstance(value[1], bool))
    if ok:
        result = value[0]
        values = list(result.ipcs) + [result.avg_ipc, result.weighted_ipc,
                                      result.harmonic_weighted_ipc]
        ok = all(isinstance(v, (int, float)) and math.isfinite(v)
                 for v in values)
    if not ok:
        raise CellResultError(
            "cell %s returned an invalid payload (%r...)"
            % (cell.label, repr(value)[:80]))


def pool_map(fn, tasks, jobs=None):
    """Order-preserving map over argument tuples, optionally fanned out
    over a process pool (``jobs`` <= 1: plain serial calls, no pool).

    The generic sibling of :class:`SweepEngine` for non-cell work
    (Table 2 characterization, ablation points): ``fn`` must be a
    top-level function and every argument picklable.
    """
    tasks = list(tasks)
    if not tasks:
        return []  # never build a pool for zero tasks (max_workers >= 1)
    if not jobs or jobs <= 1 or len(tasks) == 1:
        return [fn(*args) for args in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(fn, *args) for args in tasks]
        return [future.result() for future in futures]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class SweepEngine:
    """Runs sweep grids over a process pool with read-through caching.

    Parameters
    ----------
    scale:
        The :class:`~repro.experiments.runner.ExperimentScale` every cell
        runs at (cells may override ``seed`` and ``epochs``).
    jobs:
        Worker processes.  ``1`` (default) runs cells in-process — the
        reference serial order whose merged JSON parallel runs must
        reproduce byte-for-byte.
    cache_dir:
        Result cache directory (default :func:`default_cache_dir`).
        ``use_cache=False`` disables caching entirely.
    events_path:
        Optional JSONL file receiving one progress event per line.
    on_event:
        Optional callable receiving each event dict (for live display).
    resume_dir:
        Optional directory for per-cell crash-safe checkpoints, one
        subdirectory per cache key; killed sweeps resume mid-cell from
        here (see docs/PARALLEL.md).
    supervision:
        Optional :class:`~repro.reliability.supervisor.Supervision`
        for the cell supervisor every pending cell runs under (heartbeat
        timeouts, retry with backoff, pool rebuild, quarantine,
        degrade-to-serial — docs/RELIABILITY.md "Sweep supervision").
        ``None`` (default) means fail fast: one attempt per cell, and
        the first failed cell raises
        :class:`~repro.reliability.supervisor.SupervisorError` naming it
        and carrying the worker's error; no ledger is written.
    fault_plan:
        Optional picklable chaos plan (:mod:`repro.reliability.chaos`)
        whose hooks perturb supervised workers; test/bench-only.
    """

    def __init__(self, scale, jobs=1, cache_dir=None, events_path=None,
                 on_event=None, resume_dir=None, use_cache=True,
                 supervision=None, fault_plan=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if fault_plan is not None and supervision is None:
            raise ValueError("fault_plan requires supervision")
        self.scale = scale
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if use_cache else None
        self.events_path = events_path
        if events_path is not None:
            parent = os.path.dirname(events_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
        self.on_event = on_event
        self.resume_dir = resume_dir
        self.supervision = supervision
        self.fault_plan = fault_plan
        self.stats = {"hits": 0, "misses": 0, "resumed": 0}
        self.quarantined = {}
        self.supervisor_stats = {"retries": 0, "timeouts": 0,
                                 "pool_breaks": 0, "degraded": False}
        self._memory = {}
        #: Stored SingleIPCs of the cells being simulated (see run_cells).
        self._solos = {}
        self._work_dir = None
        if supervision is not None:
            # Heartbeats and the quarantine ledger live next to the
            # checkpoints when resuming, else in a per-engine temporary
            # directory that exists only once something is written there
            # (heartbeats need a cell_timeout, the ledger a quarantine).
            self._work_dir = resume_dir or os.path.join(
                tempfile.gettempdir(),
                "repro-sweep-" + os.urandom(8).hex())  # repro: allow-nondeterminism[ND102] (unique work-dir name, not results)

    @property
    def quarantine_path(self):
        """Path of the ``quarantine.jsonl`` ledger (supervised engines
        only; ``None`` otherwise)."""
        if self._work_dir is None:
            return None
        return os.path.join(self._work_dir, "quarantine.jsonl")

    # -- events ----------------------------------------------------------

    def _emit(self, event, **fields):
        if event not in SWEEP_EVENTS:
            raise ValueError("unknown sweep event %r (valid: %s)"
                             % (event, ", ".join(SWEEP_EVENTS)))
        record = {"ts": round(time.time(), 3), "event": event}  # repro: allow-nondeterminism[ND101] (progress log timestamps, not results)
        record.update(fields)
        if self.events_path is not None:
            with open(self.events_path, "a") as handle:
                handle.write(json.dumps(record) + "\n")
        if self.on_event is not None:
            self.on_event(record)

    # -- execution -------------------------------------------------------

    def run_cells(self, cells):
        """Simulate a list of cells; returns results in *request order*.

        Duplicate cells are simulated once.  Completed cells come from
        the in-memory map, then the on-disk cache; the rest run under
        the cell supervisor.  Event stream and statistics update as
        cells land.  Quarantined cells (supervised engines only) come
        back as ``None``.
        """
        cells = list(cells)
        unique = list(dict.fromkeys(cells))
        keys = {cell: cache_key(cell, self.scale) for cell in unique}
        pending = []
        cached = 0
        for cell in unique:
            if cell in self._memory:
                cached += 1
                continue
            hit = self.cache.get(keys[cell]) if self.cache else None
            if hit is not None:
                self._memory[cell] = hit
                self.stats["hits"] += 1
                cached += 1
                self._emit("cell-cached", cell=cell.label)
            else:
                self.stats["misses"] += 1
                pending.append(cell)
        started_at = time.time()  # repro: allow-nondeterminism[ND101] (wall-clock reporting, not results)
        self._emit("sweep-start", total=len(unique), cached=cached,
                   pending=len(pending), jobs=self.jobs)
        if pending:
            # An empty pending list short-circuits to a pure-cache merge:
            # no pool, no supervisor, no max_workers=0 to trip over, and
            # no solo lookups.
            self._solos = self._lookup_solos(pending)
            self._supervise(pending, keys, cached, len(unique),
                            started_at)
        self._emit("sweep-done", total=len(unique), cached=cached,
                   simulated=len(pending),
                   quarantined=len([cell for cell in pending
                                    if cell in self.quarantined]),
                   wall_s=round(time.time() - started_at, 3))  # repro: allow-nondeterminism[ND101] (wall-clock reporting, not results)
        # Quarantined cells have no result; callers get None and the
        # details through ``quarantined`` / the ledger.
        return [self._memory.get(cell) for cell in cells]

    def _lookup_solos(self, cells):
        """{cell: stored SingleIPCs per thread} for the cells about to be
        simulated; each solo file is read once per call."""
        if self.cache is None:
            return {}
        found = {}
        solos = {}
        for cell in cells:
            keys = cell_solo_keys(cell, self.scale)
            for key in keys:
                if key not in found:
                    found[key] = self.cache.get_solo(key)
            solos[cell] = [found[key] for key in keys]
        return solos

    def _store(self, cell, key, result, resumed):
        if resumed:
            self.stats["resumed"] += 1
        if self.cache is not None:
            self.cache.put(key, cell, result)
            store_solos(self.cache, cell, self.scale, result.single_ipcs)
        self._memory[cell] = result

    # -- supervised execution --------------------------------------------

    def _supervise(self, pending, keys, cached, total, started_at):
        """Run the pending cells (``keys``: their cache keys) under a
        :class:`CellSupervisor` (the engine's one run path).  ``cell-start``/``cell-done`` carry the
        progress fields; the supervisor's other events pass through."""
        config = self.supervision or FAIL_FAST
        live = [0]  # cells completed by this run: done = cached + live
        heartbeats = None
        if config.cell_timeout is not None:
            hb_dir = os.path.join(self._work_dir, "heartbeats")
            os.makedirs(hb_dir, exist_ok=True)
            heartbeats = lambda cell: cell_path(hb_dir, keys[cell], ".hb")

        def progress(running):
            done = cached + live[0]
            fields = {"done": done, "cached": cached, "running": running,
                      "total": total, "workers": self.jobs}
            if live[0]:
                per_cell = (time.time() - started_at) / live[0]  # repro: allow-nondeterminism[ND101] (ETA estimate, not results)
                remaining = total - done
                fields["eta_s"] = round(per_cell * remaining
                                        / max(1, min(self.jobs, remaining)), 1)
            return fields

        def forward(event, **fields):
            if event == "cell-start":
                fields.update(progress(fields.pop("running", 0)))
            self._emit(event, **fields)

        def on_result(cell, value, running):
            result, resumed = value
            self._store(cell, keys[cell], result, resumed)
            live[0] += 1
            self._emit("cell-done", cell=cell.label, resumed=resumed,
                       **progress(running))

        def task_args(cell, attempt):
            return (cell, self.scale,
                    cell_path(self.resume_dir, keys[cell])
                    if self.resume_dir else None,
                    heartbeats(cell) if heartbeats else None,
                    attempt, self.fault_plan, self._solos.get(cell))

        supervisor = CellSupervisor(
            worker=_execute_cell, task_args=task_args, jobs=self.jobs,
            config=config, item_label=lambda cell: cell.label,
            heartbeat_path=heartbeats, validate=_validate_cell_value,
            on_result=on_result, emit=forward,
            ledger=(QuarantineLedger(self.quarantine_path)
                    if self.supervision is not None else None),
            ledger_info=lambda cell: ledger_info(
                cell, keys[cell], self.resume_dir))
        supervisor.run(pending)
        self.quarantined.update(supervisor.quarantined)
        self.supervisor_stats["retries"] += supervisor.retries
        self.supervisor_stats["timeouts"] += supervisor.timeouts
        self.supervisor_stats["pool_breaks"] += supervisor.pool_breaks
        self.supervisor_stats["degraded"] |= supervisor.degraded

    # -- grid conveniences ----------------------------------------------

    def sweep(self, workloads=None, groups=None, policies=DEFAULT_POLICIES,
              seeds=None, epochs=None, workloads_per_group=None):
        """Run a cartesian grid; returns (cells, results) in grid order."""
        cells = grid_cells(
            workloads=workloads, groups=groups, policies=policies,
            seeds=seeds if seeds is not None else (self.scale.seed,),
            epochs=epochs,
            workloads_per_group=(workloads_per_group
                                 if workloads_per_group is not None
                                 else self.scale.workloads_per_group))
        return cells, self.run_cells(cells)

    def compare_policies(self, workload, policy_names, epochs=None):
        """Drop-in for :func:`repro.experiments.runner.compare_policies`:
        {requested name: RunResult} for one workload, read through the
        cache/pool."""
        cells = [SweepCell(workload=workload.name,
                           policy=canonical_policy(name),
                           seed=self.scale.seed, epochs=epochs)
                 for name in policy_names]
        return dict(zip(policy_names, self.run_cells(cells)))

    def prefetch(self, workloads, policy_names, seeds=None, epochs=None):
        """Warm the engine for a whole grid in one parallel pass, so
        later per-workload :meth:`compare_policies` calls are lookups."""
        self.sweep(workloads=[getattr(w, "name", w) for w in workloads],
                   groups=[], policies=policy_names, seeds=seeds,
                   epochs=epochs)


# ----------------------------------------------------------------------
# Deterministic merge
# ----------------------------------------------------------------------


def merged_document(cells, results, scale, quarantined=None):
    """The canonical merged form of one sweep: scale description plus one
    record per cell *in request order* with the full result payload and
    the three Section 3.1.1 metrics.

    A partial (supervised) sweep stays valid: cells whose result is
    ``None`` move to the always-present ``"quarantined"`` section — one
    record per given-up cell with its attempt count and last error, fed
    from ``SweepEngine.quarantined``.  A complete sweep serializes with
    ``"quarantined": []``, so fault-free supervised runs remain
    byte-identical to plain ones.
    """
    quarantined = quarantined or {}
    records = []
    dropped = []
    for cell, result in zip(cells, results):
        if result is None:
            info = quarantined.get(cell, {})
            last_error = info.get("last_error") or ""
            dropped.append({
                "workload": cell.workload,
                "policy": cell.policy,
                "seed": cell.seed,
                "attempts": info.get("attempts"),
                "last_error": last_error.splitlines()[0] if last_error
                else "",
            })
            continue
        records.append({
            "workload": cell.workload,
            "policy": cell.policy,
            "seed": cell.seed,
            "epochs": cell.epochs if cell.epochs is not None
            else scale.epochs,
            "metrics": {
                "avg_ipc": result.avg_ipc,
                "weighted_ipc": result.weighted_ipc,
                "harmonic_weighted_ipc": result.harmonic_weighted_ipc,
            },
            "result": result.to_dict(),
        })
    return {
        "scale": {
            "config": _jsonable(scale.config),
            "epoch_size": scale.epoch_size,
            "epochs": scale.epochs,
            "warmup": scale.warmup,
        },
        "cells": records,
        "quarantined": dropped,
    }


def merged_json(cells, results, scale, quarantined=None):
    """Byte-stable JSON of a sweep: independent of job count, completion
    order, caching, and resume history."""
    return indented_json(merged_document(cells, results, scale,
                                         quarantined=quarantined)) + "\n"


__all__ = [
    "CacheStats",
    "CellBootstrapError",
    "CellResultError",
    "DEFAULT_POLICIES",
    "ResultCache",
    "SWEEP_EVENTS",
    "Supervision",
    "SWEEP_PRESETS",
    "SweepCell",
    "SweepEngine",
    "cache_key",
    "canonical_policy",
    "cell_path",
    "cell_solo_keys",
    "clear_fingerprint_memo",
    "code_fingerprint",
    "default_cache_dir",
    "grid_cells",
    "ledger_info",
    "merged_document",
    "merged_json",
    "policy_factory",
    "pool_map",
    "run_path",
    "solo_key",
    "store_solos",
]
