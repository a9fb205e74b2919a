"""The fingerprint-keyed plan cache: LRU, observable, persistable.

Caches optimization decisions under plan fingerprints
(:func:`repro.serve.fingerprint.plan_fingerprint`). An entry is an
:class:`Answer` — the platform assignment, its predicted runtime, the
producing optimizer and its stats — never a logical plan: a hit is
instantiated over the *caller's own* plan by :meth:`Answer.over`. That
gives every hit its own execution plan, assignment and stats by
construction, so one caller mutating its result can never corrupt what
the next caller receives, and no plan is ever copied.

Hit/miss/eviction counts are kept on the cache *and* mirrored into the
ambient tracer (``serve.cache.*`` counters), so a traced batch run shows
its cache behaviour next to its enumeration spans.

Persistence is plain JSON holding assignments (operator id → platform
name), written and read by :func:`write_json` / :func:`read_json`, the
helpers the template cache shares. Cached stats are *not* persisted — a
reloaded hit reports zeroed RunStats, since the enumeration work it
saved happened in another process.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.api import OptimizationResult, RunStats
from repro.exceptions import PlanError, PlatformError, ReproError
from repro.obs import current_tracer
from repro.rheem.execution_plan import ExecutionPlan
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry
from repro.serve.fingerprint import FINGERPRINT_VERSION

__all__ = ["Answer", "PlanCache", "CacheStats"]

#: Version of the JSON persistence format. Version 1 stored whole
#: execution-plan documents; files of that version load as an empty cache.
CACHE_FORMAT_VERSION = 2


class Answer(NamedTuple):
    """One optimization decision, detached from any logical plan.

    This is the form in which the serving layer caches and ships a
    result: exact-cache entries, batch-local followers and pool replies
    all carry an ``Answer`` and instantiate it over the requesting job's
    own plan with :meth:`over`.
    """

    assignment: Dict[int, str]
    predicted_runtime: float
    optimizer: str
    #: :meth:`RunStats.as_dict` of the producing run (empty = zeroed).
    stats: Dict[str, Any]

    @classmethod
    def of(cls, result: OptimizationResult) -> "Answer":
        return cls(
            dict(result.execution_plan.assignment),
            float(result.predicted_runtime),
            result.optimizer,
            result.stats.as_dict(),
        )

    def over(self, plan: LogicalPlan, registry: PlatformRegistry) -> OptimizationResult:
        """This decision as a fresh result over ``plan``."""
        return OptimizationResult(
            execution_plan=ExecutionPlan(plan, self.assignment, registry),
            predicted_runtime=self.predicted_runtime,
            stats=RunStats(**self.stats),
            optimizer=self.optimizer,
        )


def write_json(path, doc: Dict[str, Any]) -> Path:
    """Write ``doc`` atomically: a sibling ``.tmp`` file, then a rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    tmp.replace(path)
    return path


def note_corrupt(path, prefix: str, detail: str) -> None:
    """Count one unreadable document or entry as ``<prefix>.load_corrupt``."""
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count(f"{prefix}.load_corrupt")
        tracer.event(f"{prefix}.corrupt", path=str(path), detail=detail)


def read_json(
    path, version: int, fingerprint_version: int, key: str, prefix: str
) -> Tuple[Dict[str, Any], List[Any]]:
    """The document at ``path`` and its ``key`` list, tolerating corruption.

    A cache file is an *optimization*, never a point of failure: an
    unreadable, truncated or otherwise corrupt document (the classic
    crash-during-write artifact) reads as ``({}, [])`` and bumps the
    ``<prefix>.load_corrupt`` counter. A document of an older format
    version, or keyed under another fingerprint version, reads as
    ``(doc, [])``: its keys could never match a fresh lookup. Any other
    explicit format version (a newer one, or not an integer) raises —
    silently discarding a future format would hide a real deployment
    error.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        note_corrupt(path, prefix, f"{type(exc).__name__}: {exc}")
        return {}, []
    if not isinstance(doc, dict):
        note_corrupt(path, prefix, f"expected a JSON object, got {type(doc).__name__}")
        return {}, []
    if "version" not in doc:
        note_corrupt(path, prefix, "missing version field")
        return {}, []
    found = doc["version"]
    if found != version:
        if isinstance(found, int) and found < version:
            return doc, []
        raise ReproError(
            f"unsupported format version {found!r} in {path} (expected {version})"
        )
    if doc.get("fingerprint_version") != fingerprint_version:
        return doc, []
    items = doc.get(key, [])
    if not isinstance(items, list):
        note_corrupt(path, prefix, f"{key} is {type(items).__name__}, not a list")
        return {}, []
    return doc, items


@dataclass
class CacheStats:
    """Monotonic counters of one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """An LRU mapping from plan fingerprint to an optimization decision.

    Parameters
    ----------
    max_entries:
        The LRU bound; inserting beyond it evicts the least recently
        *used* entry (both ``get`` hits and ``put`` refresh recency).
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ReproError(f"cache needs max_entries >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Tuple[Answer, PlatformRegistry]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def fingerprints(self):
        """The cached fingerprints, least recently used first."""
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    def get(self, fingerprint: str, plan: LogicalPlan) -> Optional[OptimizationResult]:
        """The cached decision for a fingerprint as a result over ``plan``
        (``None`` on miss).

        An entry whose assignment does not fit ``plan`` (unknown operator
        or platform) is dropped and counts as a miss.
        """
        tracer = current_tracer()
        entry = self._entries.get(fingerprint)
        result = None
        if entry is not None:
            answer, registry = entry
            try:
                result = answer.over(plan, registry)
            except (PlanError, PlatformError):
                del self._entries[fingerprint]
        if result is None:
            self.stats.misses += 1
            if tracer.enabled:
                tracer.count("serve.cache.misses")
            return None
        self._entries.move_to_end(fingerprint)
        self.stats.hits += 1
        if tracer.enabled:
            tracer.count("serve.cache.hits")
        return result

    def put(self, fingerprint: str, result: OptimizationResult) -> None:
        """Insert (or refresh) a result's decision under its fingerprint."""
        self._entries[fingerprint] = (
            Answer.of(result),
            result.execution_plan.registry,
        )
        self._entries.move_to_end(fingerprint)
        self.stats.puts += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("serve.cache.puts")
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if tracer.enabled:
                tracer.count("serve.cache.evictions")

    # ------------------------------------------------------------------
    # JSON persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write the cache as one JSON document (LRU order preserved)."""
        doc = {
            "version": CACHE_FORMAT_VERSION,
            "fingerprint_version": FINGERPRINT_VERSION,
            "max_entries": self.max_entries,
            "entries": [
                {
                    "fingerprint": fingerprint,
                    "assignment": {
                        str(op_id): name
                        for op_id, name in sorted(answer.assignment.items())
                    },
                    "predicted_runtime": answer.predicted_runtime,
                    "optimizer": answer.optimizer,
                }
                for fingerprint, (answer, _registry) in self._entries.items()
            ],
        }
        return write_json(path, doc)

    @classmethod
    def load(
        cls,
        path,
        registry: PlatformRegistry,
        max_entries: Optional[int] = None,
    ) -> "PlanCache":
        """Rebuild a cache from :meth:`save` output.

        Failure contract of :func:`read_json`: corrupt → empty (counted
        as ``serve.cache.load_corrupt``), stale format or fingerprint
        version → empty, future format version → raises. Individually
        malformed entries are skipped (and counted) while the rest load;
        an entry that does not fit the plan it is looked up with (say, a
        platform outside ``registry``) is dropped by :meth:`get`.
        """
        doc, entries = read_json(
            path, CACHE_FORMAT_VERSION, FINGERPRINT_VERSION, "entries", "serve.cache"
        )
        if max_entries is None:
            try:
                max_entries = int(doc.get("max_entries", 256))
            except (TypeError, ValueError):
                max_entries = 256
        cache = cls(max_entries=max_entries)
        for entry in entries:
            try:
                answer = Answer(
                    {int(op): str(name) for op, name in entry["assignment"].items()},
                    float(entry["predicted_runtime"]),
                    str(entry.get("optimizer", "")),
                    {},
                )
                fingerprint = entry["fingerprint"]
            except Exception as exc:
                note_corrupt(path, "serve.cache", f"entry: {type(exc).__name__}: {exc}")
                continue
            # Bypass put(): loading must not inflate the put/eviction
            # stats of the new cache's lifetime.
            cache._entries[fingerprint] = (answer, registry)
            while len(cache._entries) > cache.max_entries:
                cache._entries.popitem(last=False)
        return cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
