"""The plan cache: LRU bound, persistence, counters, hit isolation.

Also holds the regression tests for the two aliasing hazards this layer
closed: :meth:`PlanVectorEnumeration.select` returning *views* of its
source matrices, and cache hits handing every caller the *same* result
object (each hit is built over the caller's own plan instead).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import FeatureSchema
from repro.core.optimizer import Robopt
from repro.exceptions import ReproError
from repro.obs import Tracer, use_tracer
from repro.rheem.platforms import synthetic_registry
from repro.serve import PlanCache, plan_fingerprint
from repro.serve.cache import CACHE_FORMAT_VERSION
from repro.serve.testing import LinearRuntimeModel

from conftest import build_pipeline


@pytest.fixture
def registry():
    return synthetic_registry(2)


@pytest.fixture
def optimizer(registry):
    schema = FeatureSchema(registry)
    return Robopt(registry, LinearRuntimeModel(schema.n_features, seed=1), schema=schema)


def _result(optimizer, n_ops=3):
    return optimizer.optimize(build_pipeline(n_ops))


class TestLRU:
    def test_size_is_bounded(self, optimizer):
        cache = PlanCache(max_entries=4)
        result = _result(optimizer)
        for i in range(10):
            cache.put(f"fp{i}", result)
        assert len(cache) == 4
        assert cache.stats.evictions == 6
        assert cache.fingerprints() == ["fp6", "fp7", "fp8", "fp9"]

    def test_get_refreshes_recency(self, optimizer):
        cache = PlanCache(max_entries=2)
        result = _result(optimizer)
        cache.put("a", result)
        cache.put("b", result)
        assert cache.get("a", build_pipeline(3)) is not None  # refresh "a"
        cache.put("c", result)  # evicts "b", not "a"
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes_recency(self, optimizer):
        cache = PlanCache(max_entries=2)
        result = _result(optimizer)
        cache.put("a", result)
        cache.put("b", result)
        cache.put("a", result)  # refresh, not insert
        cache.put("c", result)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ReproError):
            PlanCache(max_entries=0)


class TestCounters:
    def test_hit_miss_accounting(self, optimizer):
        cache = PlanCache(max_entries=8)
        result = _result(optimizer)
        plan = build_pipeline(3)
        assert cache.get("fp", plan) is None
        cache.put("fp", result)
        assert cache.get("fp", plan) is not None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.as_dict()["hit_rate"] == 0.5

    def test_counters_mirrored_into_tracer(self, optimizer):
        cache = PlanCache(max_entries=1)
        result = _result(optimizer)
        tracer = Tracer()
        plan = build_pipeline(3)
        with use_tracer(tracer):
            cache.get("a", plan)  # miss
            cache.put("a", result)
            cache.get("a", plan)  # hit
            cache.put("b", result)  # evicts "a"
        assert tracer.counters["serve.cache.misses"] == 1
        assert tracer.counters["serve.cache.hits"] == 1
        assert tracer.counters["serve.cache.puts"] == 2
        assert tracer.counters["serve.cache.evictions"] == 1


class TestMismatch:
    def test_never_returns_under_a_different_fingerprint(self, optimizer, registry):
        """A hit is only ever the entry stored under that exact key: two
        structurally different plans have different fingerprints and
        therefore never see each other's cached decisions."""
        cache = PlanCache(max_entries=8)
        short, long = build_pipeline(3), build_pipeline(5)
        fp_short = plan_fingerprint(short, registry=registry)
        fp_long = plan_fingerprint(long, registry=registry)
        assert fp_short != fp_long
        result_short = optimizer.optimize(short)
        cache.put(fp_short, result_short)
        assert cache.get(fp_long, long) is None
        hit = cache.get(fp_short, short)
        assert hit.execution_plan.plan is short


class TestPersistence:
    def test_round_trip(self, tmp_path, optimizer, registry):
        cache = PlanCache(max_entries=8)
        result = _result(optimizer)
        fp = plan_fingerprint(result.execution_plan.plan, registry=registry)
        cache.put(fp, result)
        path = cache.save(tmp_path / "cache.json")

        loaded = PlanCache.load(path, registry)
        assert len(loaded) == 1
        hit = loaded.get(fp, build_pipeline(3))
        assert hit is not None
        assert hit.predicted_runtime == result.predicted_runtime
        assert hit.execution_plan.assignment == result.execution_plan.assignment
        # Loading is not a lifetime event of the new cache.
        assert loaded.stats.puts == 0

    def test_load_respects_smaller_bound(self, tmp_path, optimizer, registry):
        cache = PlanCache(max_entries=8)
        result = _result(optimizer)
        for i in range(6):
            cache.put(f"fp{i}", result)
        path = cache.save(tmp_path / "cache.json")
        loaded = PlanCache.load(path, registry, max_entries=2)
        assert len(loaded) == 2
        # The most recently used entries survive.
        assert loaded.fingerprints() == ["fp4", "fp5"]

    def test_fingerprint_version_mismatch_drops_entries(
        self, tmp_path, optimizer, registry
    ):
        import json

        cache = PlanCache(max_entries=8)
        cache.put("fp", _result(optimizer))
        path = cache.save(tmp_path / "cache.json")
        doc = json.loads(path.read_text())
        doc["fingerprint_version"] = 999
        path.write_text(json.dumps(doc))
        loaded = PlanCache.load(path, registry)
        assert len(loaded) == 0  # stale keys can never match: drop them

    def test_version_1_file_loads_empty(self, tmp_path, optimizer, registry):
        """Version-1 files stored whole execution-plan documents; they
        load as an empty cache instead of stopping the service."""
        import json

        from repro.rheem.serialization import execution_plan_to_dict

        result = _result(optimizer)
        doc = {
            "version": 1,
            "fingerprint_version": 1,
            "max_entries": 8,
            "entries": [
                {
                    "fingerprint": "fp",
                    "predicted_runtime": result.predicted_runtime,
                    "optimizer": result.optimizer,
                    "execution_plan": execution_plan_to_dict(result.execution_plan),
                }
            ],
        }
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(doc))
        loaded = PlanCache.load(path, registry)
        assert len(loaded) == 0
        assert loaded.max_entries == 8

    def test_persisted_entries_hold_assignments_not_plans(
        self, tmp_path, optimizer, registry
    ):
        import json

        cache = PlanCache(max_entries=8)
        cache.put("fp", _result(optimizer))
        doc = json.loads(cache.save(tmp_path / "cache.json").read_text())
        (entry,) = doc["entries"]
        assert set(entry) == {
            "fingerprint",
            "assignment",
            "predicted_runtime",
            "optimizer",
        }

    def test_unknown_format_version_rejected(self, tmp_path, optimizer, registry):
        import json

        cache = PlanCache(max_entries=8)
        cache.put("fp", _result(optimizer))
        path = cache.save(tmp_path / "cache.json")
        doc = json.loads(path.read_text())
        doc["version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ReproError):
            PlanCache.load(path, registry)


class TestDefensiveCopies:
    """Each hit is the cached decision over its caller's own plan, so
    callers are isolated by construction rather than by copying."""

    def test_hits_are_independent_objects(self, optimizer):
        cache = PlanCache(max_entries=8)
        cache.put("fp", _result(optimizer))
        first = cache.get("fp", build_pipeline(3))
        # A caller scribbling over its result ...
        first.execution_plan.assignment[0] = "corrupted"
        first.execution_plan.plan.operators[1].selectivity = -123.0
        first.stats.vectors_created = -1
        # ... must not leak into what the next caller receives.
        second = cache.get("fp", build_pipeline(3))
        assert second.execution_plan.assignment[0] != "corrupted"
        assert second.execution_plan.plan.operators[1].selectivity != -123.0
        assert second.stats.vectors_created != -1

    def test_put_detaches_from_the_source(self, optimizer):
        cache = PlanCache(max_entries=8)
        result = _result(optimizer)
        cache.put("fp", result)
        result.execution_plan.assignment[0] = "mutated-after-put"
        hit = cache.get("fp", build_pipeline(3))
        assert hit.execution_plan.assignment[0] != "mutated-after-put"

    def test_hit_is_built_over_the_callers_plan(self, optimizer, monkeypatch):
        from repro.rheem.logical_plan import LogicalPlan

        cache = PlanCache(max_entries=8)
        result = _result(optimizer)
        cache.put("fp", result)
        clones = []
        original = LogicalPlan.clone
        monkeypatch.setattr(
            LogicalPlan, "clone", lambda self: clones.append(self) or original(self)
        )
        plan = build_pipeline(3)
        hit = cache.get("fp", plan)
        assert hit.execution_plan.plan is plan
        assert hit.execution_plan.assignment == result.execution_plan.assignment
        assert hit.predicted_runtime == result.predicted_runtime
        assert hit.stats.as_dict() == result.stats.as_dict()
        assert hit.final_enumeration is None  # never aliases enumeration matrices
        assert clones == []

    def test_entry_that_does_not_fit_the_plan_is_a_miss(
        self, tmp_path, optimizer, registry
    ):
        """A persisted entry is outside input: one naming an operator the
        plan lacks is dropped as a miss instead of failing the lookup."""
        import json

        cache = PlanCache(max_entries=8)
        cache.put("fp", _result(optimizer))
        path = cache.save(tmp_path / "cache.json")
        doc = json.loads(path.read_text())
        doc["entries"][0]["assignment"]["99"] = registry.names[0]
        path.write_text(json.dumps(doc))
        loaded = PlanCache.load(path, registry)
        assert loaded.get("fp", build_pipeline(3)) is None
        assert "fp" not in loaded
        assert loaded.stats.misses == 1

    def test_select_never_aliases_the_source(self, optimizer):
        """Regression: ``select`` with slice-like indices used to return
        numpy *views*; mutating the selection corrupted the enumeration
        it came from (and anything cached from it)."""
        enumeration = _result(optimizer, n_ops=4).final_enumeration
        rows = np.arange(min(2, enumeration.features.shape[0]))
        picked = enumeration.select(rows)
        assert picked.features.base is None
        assert picked.assignments.base is None
        before = enumeration.features[rows].copy()
        picked.features[:] = -1.0
        picked.assignments[:] = -1
        np.testing.assert_array_equal(enumeration.features[rows], before)
