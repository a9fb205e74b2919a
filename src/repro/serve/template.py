"""Template-keyed parametric plan cache with learned candidate selection.

The exact fingerprint cache (:mod:`repro.serve.cache`) reuses a decision
only when log-bucketed cardinalities collide — a parametric workload
whose cardinalities are *drawn from a distribution* misses almost every
time. Kepler (Doshi et al., VLDB 2023) shows the right shape: key the
cache by plan **template** (structure with cardinalities stripped),
remember the small set of plans that were optimal anywhere in the
observed parameter range, and learn which candidate to pick for unseen
parameters.

Serving a cached candidate is only safe because candidates are
**re-costed with the live runtime model at the request's actual
cardinalities** before anything is returned:

* the pick must be within a configurable ``guardrail`` factor of the
  cheapest re-costed candidate, and
* when a template has accumulated more than one candidate, a small
  random-forest selector (:class:`repro.ml.forest.RandomForestRegressor`
  trained online on the template's own observation log, features =
  log-cardinalities) must agree *confidently* — per-tree variance below
  a threshold — on which candidate to serve.

Anything else — an untrained selector, high per-tree variance, a
guardrail breach, a NaN anywhere — returns ``None`` and the caller falls
back to full enumeration, whose result is folded back into the template's
candidate set via :meth:`TemplateCache.observe`. The failure mode of this
cache is therefore *wasted work*, never a wrong plan.

Counters (``serve.template.*``) mirror into the ambient tracer like the
exact cache's, and JSON persistence goes through the exact cache's
helpers (:func:`repro.serve.cache.read_json`), with the same versioned
invalidation: a corrupt file loads empty (never raises), a foreign
fingerprint version drops entries, only an explicit unsupported format
version is an error.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import OptimizationResult, RunStats
from repro.exceptions import ReproError
from repro.ml.forest import RandomForestRegressor
from repro.obs import current_tracer
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry
from repro.serve.cache import note_corrupt, read_json, write_json

__all__ = [
    "TEMPLATE_FINGERPRINT_VERSION",
    "TemplateCache",
    "TemplateCacheStats",
    "TemplateCandidate",
    "template_features",
    "template_fingerprint",
]

#: Bump when the canonical template document below changes shape.
TEMPLATE_FINGERPRINT_VERSION = 1

#: Version of the JSON persistence format of :class:`TemplateCache`.
TEMPLATE_CACHE_FORMAT_VERSION = 1


def _template_document(
    plan: LogicalPlan, registry: Optional[PlatformRegistry]
) -> dict:
    """The JSON-stable document the template fingerprint hashes.

    Mirrors :func:`repro.serve.fingerprint._canonical_document` with the
    cardinality information *stripped*: dataset profiles reduce to the
    set of source operator ids (which operators are fed, not how much),
    and a fixed output cardinality reduces to its presence — the value
    itself is a parameter, but whether an operator pins its output
    changes the shape of the cost landscape.
    """
    operators = []
    for op_id, op in sorted(plan.operators.items()):
        operators.append(
            [
                op_id,
                op.kind_name,
                int(op.udf_complexity),
                None if op.selectivity is None else round(float(op.selectivity), 9),
                op.fixed_output_cardinality is not None,
            ]
        )
    doc = {
        "v": TEMPLATE_FINGERPRINT_VERSION,
        "operators": operators,
        "edges": sorted(plan.edges),
        "loops": sorted(
            (sorted(spec.body), spec.iterations) for spec in plan.loops
        ),
        "sources": sorted(plan.datasets),
    }
    if registry is not None:
        doc["platforms"] = list(registry.names)
    return doc


def template_fingerprint(
    plan: LogicalPlan, registry: Optional[PlatformRegistry] = None
) -> str:
    """The template key of a logical plan: structure minus cardinalities.

    Two instantiations of the same parametric query — identical operator
    kinds/parameters/selectivities, edges, loops and platform alphabet,
    *any* input cardinalities — share a template fingerprint. Everything
    structural still enters the hash exactly, so this is strictly coarser
    than :func:`repro.serve.fingerprint.plan_fingerprint` and never
    conflates structurally different plans it would distinguish.
    """
    doc = _template_document(plan, registry)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def template_features(plan: LogicalPlan) -> np.ndarray:
    """Selector features: ``log1p`` of each source's cardinality/tuple size.

    Sources are visited in sorted-operator-id order so the vector layout
    is stable across instantiations of one template. Non-finite or
    negative profile values map to ``-1.0`` (a value no valid profile
    produces) instead of poisoning the selector with NaN.
    """
    features: List[float] = []
    for _op_id, profile in sorted(plan.datasets.items()):
        for value in (profile.cardinality, profile.tuple_size):
            value = float(value)
            if math.isfinite(value) and value >= 0.0:
                features.append(math.log1p(value))
            else:
                features.append(-1.0)
    return np.asarray(features, dtype=np.float64)


def _cardinality_vector(plan: LogicalPlan) -> List[float]:
    return [
        float(profile.cardinality)
        for _op_id, profile in sorted(plan.datasets.items())
    ]


@dataclass
class TemplateCandidate:
    """One plan that was optimal somewhere in a template's parameter range.

    ``assignment`` (operator id → platform name) is the decision itself;
    ``cardinalities`` records the source-cardinality vector of the most
    recent instantiation this assignment won at, and ``predicted_runtime``
    the model cost it won with — both are provenance for inspection, not
    inputs to serving (serving always re-costs at the live request's
    cardinalities).
    """

    assignment: Dict[int, str]
    cardinalities: List[float]
    predicted_runtime: float
    optimizer: str = ""

    @property
    def key(self) -> Tuple[Tuple[int, str], ...]:
        """Identity of the decision: the sorted assignment items."""
        return tuple(sorted(self.assignment.items()))


@dataclass
class TemplateCacheStats:
    """Monotonic counters of one template cache's lifetime.

    ``misses`` counts *every* lookup that did not serve from the cache,
    including the refused ones — so ``hit_rate`` is the fraction of
    lookups the template tier actually answered. The refusal reasons are
    broken out separately (``low_confidence``, ``guardrail_rejects``,
    ``selector_errors``, ``recost_errors``).
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    low_confidence: int = 0
    guardrail_rejects: int = 0
    selector_errors: int = 0
    recost_errors: int = 0

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
            "low_confidence": self.low_confidence,
            "guardrail_rejects": self.guardrail_rejects,
            "selector_errors": self.selector_errors,
            "recost_errors": self.recost_errors,
            "hit_rate": self.hit_rate,
        }


class _TemplateEntry:
    """One template's candidate set, observation log and selector."""

    __slots__ = ("candidates", "observations", "selector", "dirty")

    def __init__(self):
        self.candidates: List[TemplateCandidate] = []
        self.observations: List[Tuple[np.ndarray, int]] = []
        self.selector: Optional[RandomForestRegressor] = None
        self.dirty: bool = True

    def index_of(self, key) -> Optional[int]:
        for index, candidate in enumerate(self.candidates):
            if candidate.key == key:
                return index
        return None


#: ``recost(plan, assignment) -> (model cost, execution plan)`` — supplied
#: by the caller because re-costing needs the live model + feature schema.
Recoster = Callable[[LogicalPlan, Dict[int, str]], Tuple[float, object]]


class TemplateCache:
    """Per-template candidate sets with learned, guardrailed selection.

    Parameters
    ----------
    max_templates:
        LRU bound on distinct templates (hits and observations refresh
        recency).
    max_candidates:
        Candidates kept per template; inserting beyond it evicts the
        oldest candidate and drops its observations.
    max_observations:
        Per-template observation log bound (oldest dropped first).
    guardrail:
        A pick is served only if its re-costed runtime is within this
        factor of the cheapest re-costed candidate. ``1.0`` means "serve
        only the argmin"; the default ``1.2`` tolerates 20% regret.
    min_observations:
        Observations a template needs before its selector is trained;
        multi-candidate templates below this always fall back.
    max_selector_variance:
        Per-tree prediction variance above which the selector is deemed
        unsure and the lookup falls back to enumeration.
    selector_seed:
        Seed for the default selector forests.
    selector_factory:
        Override the selector constructor (chaos tests inject failing or
        NaN-emitting selectors here); must return an object with
        ``fit(X, y)`` and a ``trees_`` list whose members ``predict``.
    """

    def __init__(
        self,
        max_templates: int = 256,
        max_candidates: int = 8,
        max_observations: int = 256,
        guardrail: float = 1.2,
        min_observations: int = 4,
        max_selector_variance: float = 0.25,
        selector_seed: int = 0,
        selector_factory: Optional[Callable[[], object]] = None,
    ):
        if max_templates < 1:
            raise ReproError(
                f"template cache needs max_templates >= 1, got {max_templates}"
            )
        if max_candidates < 1:
            raise ReproError(
                f"template cache needs max_candidates >= 1, got {max_candidates}"
            )
        if guardrail < 1.0:
            raise ReproError(f"guardrail must be >= 1.0, got {guardrail}")
        self.max_templates = max_templates
        self.max_candidates = max_candidates
        self.max_observations = max_observations
        self.guardrail = guardrail
        self.min_observations = min_observations
        self.max_selector_variance = max_selector_variance
        self.selector_seed = selector_seed
        self.selector_factory = selector_factory
        self.stats = TemplateCacheStats()
        self._entries: "OrderedDict[str, _TemplateEntry]" = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def fingerprints(self):
        """The cached template fingerprints, least recently used first."""
        return list(self._entries)

    def candidates(self, fingerprint: str) -> List[TemplateCandidate]:
        """The candidate set of one template (empty list if absent)."""
        entry = self._entries.get(fingerprint)
        return list(entry.candidates) if entry is not None else []

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    def _make_selector(self):
        if self.selector_factory is not None:
            return self.selector_factory()
        # Small forest: per-template observation logs are tiny and the
        # selector is refit on every log append.
        return RandomForestRegressor(
            n_estimators=12,
            max_depth=6,
            min_samples_split=2,
            min_samples_leaf=1,
            seed=self.selector_seed,
        )

    def _fitted_selector(self, entry: _TemplateEntry):
        """The template's selector, (re)fitted lazily. May raise."""
        if not entry.dirty:
            return entry.selector
        entry.selector = None
        entry.dirty = False
        if len(entry.observations) < self.min_observations:
            return None
        X = np.asarray([obs[0] for obs in entry.observations], dtype=np.float64)
        y = np.asarray([obs[1] for obs in entry.observations], dtype=np.float64)
        selector = self._make_selector()
        selector.fit(X, y)
        entry.selector = selector
        return selector

    def _select(self, entry: _TemplateEntry, plan: LogicalPlan, tracer):
        """The selector's pick among >= 2 candidates, or ``None``.

        ``None`` means "not confident": untrained selector, per-tree
        variance above the threshold, or a selector failure (exception or
        non-finite output) — the caller falls back to enumeration either
        way, so a broken selector can never pick a plan.
        """
        try:
            selector = self._fitted_selector(entry)
        except Exception:
            entry.dirty = True  # retry the fit after more observations
            self.stats.selector_errors += 1
            if tracer.enabled:
                tracer.count("serve.template.selector_errors")
            return None
        if selector is None:
            self.stats.low_confidence += 1
            if tracer.enabled:
                tracer.count("serve.template.low_confidence")
            return None
        features = template_features(plan)
        try:
            if hasattr(selector, "predict_dist"):
                # The shared uncertainty convention: ensemble (mean, std)
                # from one joint traversal. std**2 equals the per-tree
                # population variance the manual loop below computes, so
                # the confidence gate is numerically unchanged.
                dist_mean, dist_std = selector.predict_dist(features[None, :])
                mean = float(np.asarray(dist_mean).reshape(-1)[0])
                variance = float(np.asarray(dist_std).reshape(-1)[0]) ** 2
            else:
                # Injected selectors only promise ``trees_`` (see
                # ``selector_factory``): derive the moments tree by tree.
                per_tree = np.asarray(
                    [
                        float(np.asarray(tree.predict(features[None, :])).reshape(-1)[0])
                        for tree in selector.trees_
                    ],
                    dtype=np.float64,
                )
                if per_tree.size == 0:
                    raise ValueError("selector produced no predictions")
                mean = float(per_tree.mean())
                variance = float(per_tree.var())
            if not (np.isfinite(mean) and np.isfinite(variance)):
                raise ValueError("selector produced non-finite predictions")
        except Exception:
            self.stats.selector_errors += 1
            if tracer.enabled:
                tracer.count("serve.template.selector_errors")
            return None
        if variance > self.max_selector_variance:
            self.stats.low_confidence += 1
            if tracer.enabled:
                tracer.count("serve.template.low_confidence")
            return None
        pick = int(round(mean))
        return min(max(pick, 0), len(entry.candidates) - 1)

    def _miss(self, tracer) -> None:
        self.stats.misses += 1
        if tracer.enabled:
            tracer.count("serve.template.misses")
        return None

    def get(
        self,
        fingerprint: str,
        plan: LogicalPlan,
        recost: Recoster,
    ) -> Optional[OptimizationResult]:
        """A guardrailed cached answer for ``plan``, or ``None``.

        Every stored candidate is re-costed via ``recost`` at the plan's
        actual cardinalities; the selector's pick (trivial for a single
        candidate) is served only when it lands within ``guardrail`` of
        the cheapest candidate. The answer is the execution plan
        ``recost`` built over ``plan`` itself, so it needs no copy. Any
        refusal — no entry, re-cost failure, unconfident or broken
        selector, guardrail breach — returns ``None`` and counts as a
        miss; the caller must then enumerate and :meth:`observe` the
        fresh result.
        """
        tracer = current_tracer()
        entry = self._entries.get(fingerprint)
        if entry is None or not entry.candidates:
            return self._miss(tracer)
        self._entries.move_to_end(fingerprint)

        costs: List[float] = []
        xplans: List[object] = []
        for candidate in entry.candidates:
            try:
                cost, xplan = recost(plan, dict(candidate.assignment))
                cost = float(cost)
                if not math.isfinite(cost):
                    raise ValueError(f"non-finite re-cost {cost!r}")
            except Exception:
                self.stats.recost_errors += 1
                if tracer.enabled:
                    tracer.count("serve.template.recost_errors")
                return self._miss(tracer)
            costs.append(cost)
            xplans.append(xplan)

        best_index = int(np.argmin(costs))
        if len(entry.candidates) == 1:
            pick = 0  # one plausible plan: trivially confident
        else:
            pick = self._select(entry, plan, tracer)
            if pick is None:
                return self._miss(tracer)
        if costs[pick] > self.guardrail * costs[best_index]:
            self.stats.guardrail_rejects += 1
            if tracer.enabled:
                tracer.count("serve.template.guardrail_rejects")
            return self._miss(tracer)

        self.stats.hits += 1
        if tracer.enabled:
            tracer.count("serve.template.hits")
        return OptimizationResult(
            execution_plan=xplans[pick],
            predicted_runtime=costs[pick],
            stats=RunStats(),
            optimizer=entry.candidates[pick].optimizer,
        )

    # ------------------------------------------------------------------
    def observe(
        self,
        fingerprint: str,
        plan: LogicalPlan,
        result: OptimizationResult,
    ) -> None:
        """Fold a fresh enumeration result back into the template's set.

        A result whose assignment matches an existing candidate refreshes
        that candidate's provenance; a new assignment appends a candidate
        (evicting the oldest beyond ``max_candidates``). Either way the
        (features → winning index) pair is appended to the observation
        log and the selector is marked for refit.
        """
        tracer = current_tracer()
        entry = self._entries.get(fingerprint)
        if entry is None:
            entry = _TemplateEntry()
            self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)

        assignment = dict(result.execution_plan.assignment)
        candidate = TemplateCandidate(
            assignment=assignment,
            cardinalities=_cardinality_vector(plan),
            predicted_runtime=float(result.predicted_runtime),
            optimizer=result.optimizer,
        )
        index = entry.index_of(candidate.key)
        if index is None:
            entry.candidates.append(candidate)
            index = len(entry.candidates) - 1
            if len(entry.candidates) > self.max_candidates:
                # Evict the oldest candidate; observations pointing at it
                # are dropped and the survivors' indices shift down.
                entry.candidates.pop(0)
                entry.observations = [
                    (feats, idx - 1)
                    for feats, idx in entry.observations
                    if idx > 0
                ]
                index -= 1
        else:
            entry.candidates[index] = candidate
        entry.observations.append((template_features(plan), index))
        if len(entry.observations) > self.max_observations:
            del entry.observations[: len(entry.observations) - self.max_observations]
        entry.dirty = True

        self.stats.puts += 1
        if tracer.enabled:
            tracer.count("serve.template.puts")
        while len(self._entries) > self.max_templates:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if tracer.enabled:
                tracer.count("serve.template.evictions")

    # ------------------------------------------------------------------
    # JSON persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write the cache as one JSON document (LRU order preserved).

        Candidates persist as assignments (operator id → platform name)
        plus provenance — no serialized plans, since serving always
        re-instantiates against the *live* request's plan. Fitted
        selectors are not persisted; they refit lazily from the
        persisted observation logs.
        """
        doc = {
            "version": TEMPLATE_CACHE_FORMAT_VERSION,
            "fingerprint_version": TEMPLATE_FINGERPRINT_VERSION,
            "max_templates": self.max_templates,
            "guardrail": self.guardrail,
            "templates": [
                {
                    "fingerprint": fingerprint,
                    "candidates": [
                        {
                            "assignment": {
                                str(op_id): name
                                for op_id, name in candidate.assignment.items()
                            },
                            "cardinalities": candidate.cardinalities,
                            "predicted_runtime": candidate.predicted_runtime,
                            "optimizer": candidate.optimizer,
                        }
                        for candidate in entry.candidates
                    ],
                    "observations": [
                        [list(map(float, feats)), int(idx)]
                        for feats, idx in entry.observations
                    ],
                }
                for fingerprint, entry in self._entries.items()
            ],
        }
        return write_json(path, doc)

    @classmethod
    def load(
        cls,
        path,
        registry: Optional[PlatformRegistry] = None,
        max_templates: Optional[int] = None,
        guardrail: Optional[float] = None,
        **kwargs,
    ) -> "TemplateCache":
        """Rebuild a cache from :meth:`save` output.

        Same failure contract as :meth:`PlanCache.load` (see
        :func:`~repro.serve.cache.read_json`): a corrupt file yields an
        **empty** cache and bumps ``serve.template.load_corrupt``; a
        foreign fingerprint version drops all templates silently; only an
        explicit unsupported format version raises. Individually
        malformed templates are skipped while the rest load. When a
        ``registry`` is given, candidates naming platforms outside it are
        dropped (they could never be instantiated).
        """
        doc, templates = read_json(
            path,
            TEMPLATE_CACHE_FORMAT_VERSION,
            TEMPLATE_FINGERPRINT_VERSION,
            "templates",
            "serve.template",
        )
        if max_templates is None:
            try:
                max_templates = int(doc.get("max_templates", 256))
            except (TypeError, ValueError):
                max_templates = 256
        if guardrail is None:
            try:
                guardrail = float(doc.get("guardrail", 1.2))
            except (TypeError, ValueError):
                guardrail = 1.2
        cache = cls(max_templates=max_templates, guardrail=guardrail, **kwargs)
        known = set(registry.names) if registry is not None else None
        for item in templates:
            try:
                fingerprint = item["fingerprint"]
                if not isinstance(fingerprint, str):
                    raise TypeError("fingerprint is not a string")
                entry = _TemplateEntry()
                for raw in item.get("candidates", []):
                    assignment = {
                        int(op_id): str(name)
                        for op_id, name in raw["assignment"].items()
                    }
                    if known is not None and not set(assignment.values()) <= known:
                        continue
                    entry.candidates.append(
                        TemplateCandidate(
                            assignment=assignment,
                            cardinalities=[
                                float(c) for c in raw.get("cardinalities", [])
                            ],
                            predicted_runtime=float(raw["predicted_runtime"]),
                            optimizer=str(raw.get("optimizer", "")),
                        )
                    )
                if not entry.candidates:
                    continue
                n = len(entry.candidates)
                for feats, idx in item.get("observations", []):
                    idx = int(idx)
                    if 0 <= idx < n:
                        entry.observations.append(
                            (
                                np.asarray(feats, dtype=np.float64),
                                idx,
                            )
                        )
            except Exception as exc:
                note_corrupt(
                    path, "serve.template", f"template: {type(exc).__name__}: {exc}"
                )
                continue
            # Bypass observe(): loading must not inflate put/eviction stats.
            cache._entries[fingerprint] = entry
            while len(cache._entries) > cache.max_templates:
                cache._entries.popitem(last=False)
        return cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemplateCache(templates={len(self)}/{self.max_templates}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"guardrail={self.guardrail})"
        )
