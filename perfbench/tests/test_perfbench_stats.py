"""The benchmark's own statistics: python -m pytest perfbench/tests"""

import math
import types

import pytest

import benchstats
import spans


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, q",
        [
            (10_000, 99.9),
            (9_999, 99.5),
            (2_000, 99.5),
            (1_999, 99.0),
            (1_000, 99.0),
            (999, 98.0),
            (500, 98.0),
            (499, 95.0),
            (200, 95.0),
            (100, 90.0),
            (40, 75.0),
            (20, 50.0),
            (19, None),
            (0, None),
        ],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, q):
        assert benchstats.tail_percentile(n) == q

    def test_tail_uses_the_supported_percentile(self):
        values = [float(v) for v in range(1, 1001)]
        q, value = benchstats.tail(values)
        assert q == 99.0
        assert value == pytest.approx(benchstats.percentile(values, 99.0))
        assert sum(v > value for v in values) == 10

    def test_too_few_samples_report_the_worst(self):
        assert benchstats.tail([3.0, 1.0, 2.0]) == (None, 3.0)

    def test_percentile_interpolates(self):
        assert benchstats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert math.isnan(benchstats.percentile([], 50))


class TestStrata:
    def test_every_block_puts_one_draw_in_each_stratum(self):
        import itertools

        import numpy as np

        import traffic

        draws = list(itertools.islice(traffic.strata(np.random.default_rng(0), 8), 24))
        assert all(0.0 <= u < 1.0 for u in draws)
        for block in (draws[:8], draws[8:16], draws[16:]):
            assert sorted(int(u * 8) for u in block) == list(range(8))


class TestTraffic:
    def test_seeds_share_the_catalogue_and_each_block_covers_it(self):
        import itertools

        from repro.serve.template import template_fingerprint

        import traffic

        workload = traffic.Workload("t", flags=(), structures=8)
        streams = [
            list(itertools.islice(traffic.Traffic(workload, seed), 16)) for seed in (1, 2)
        ]
        fingerprints = [
            [template_fingerprint(r.plan) for r in stream] for stream in streams
        ]
        for prints in fingerprints:
            assert len(set(prints[:8])) == 8 and set(prints[:8]) == set(prints[8:])
        assert set(fingerprints[0]) == set(fingerprints[1])
        assert fingerprints[0] != fingerprints[1]


class TestPlanSlowdown:
    def test_failures_count_at_the_timeout(self):
        assert benchstats.bounded_slowdown(math.inf, 36.0, 1.0, 3600.0) == 100.0
        assert benchstats.bounded_slowdown(math.nan, 36.0, 1.0, 3600.0) == 100.0
        assert benchstats.bounded_slowdown(7200.0, 36.0, 1.0, 3600.0) == 100.0
        assert benchstats.bounded_slowdown(math.inf, math.inf, 1.0, 3600.0) == 1.0

    def test_sub_floor_runtimes_count_at_the_floor(self):
        assert benchstats.bounded_slowdown(0.05, 0.01, 1.0, 3600.0) == 1.0
        assert benchstats.bounded_slowdown(7.0, 0.01, 1.0, 3600.0) == 7.0
        assert benchstats.bounded_slowdown(5.0, 10.0, 1.0, 3600.0) == 0.5

    def test_geometric_mean_with_a_capped_failure(self):
        ratios = [
            benchstats.bounded_slowdown(math.inf, 36.0, 1.0, 3600.0),  # 100
            benchstats.bounded_slowdown(2.0, 2.0, 1.0, 3600.0),  # 1
        ]
        assert benchstats.geomean(ratios) == pytest.approx(10.0)
        assert math.isnan(benchstats.geomean([]))


def _span(sid, parent, layer, start, end):
    return {"id": sid, "parent": parent, "layer": layer, "start": start, "end": end}


class TestSelfTime:
    def test_nested_spans(self):
        out = benchstats.self_times(
            [
                _span("a", None, "serve.batch", 0.0, 10.0),
                _span("b", "a", "serve.cache", 1.0, 3.0),
                _span("c", "a", "core", 4.0, 8.0),
                _span("d", "c", "ml", 5.0, 6.0),
                _span("e", "c", "ml", 6.5, 7.0),
            ]
        )
        assert out["serve.batch"] == pytest.approx(10.0 - 2.0 - 4.0)
        assert out["serve.cache"] == pytest.approx(2.0)
        assert out["core"] == pytest.approx(4.0 - 1.5)
        assert out["ml"] == pytest.approx(1.5)
        assert sum(out.values()) == pytest.approx(10.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        out = benchstats.self_times(
            [
                _span("a", None, "outer", 0.0, 10.0),
                _span("b", "a", "inner", 2.0, 6.0),
                _span("c", "a", "inner", 4.0, 8.0),
                _span("d", "a", "inner", 9.0, 12.0),
            ]
        )
        assert out["outer"] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_recorded_spans_nest_and_inherit_the_request(self, tmp_path):
        recorder = spans.Recorder(str(tmp_path))
        calls = types.SimpleNamespace()

        def inner(x):
            return x + 1

        def outer(plan):
            return calls.inner(1)

        calls.inner = spans._wrap(recorder, inner, "ml", "predict", spans._inherit)
        wrapped = spans._wrap(
            recorder, outer, "core", "optimize", lambda plan: plan.name
        )
        wrapped(types.SimpleNamespace(name="req-7"))
        recorder.flush()
        (child, parent) = spans.load(str(tmp_path))
        assert child["parent"] == parent["id"] and parent["parent"] is None
        assert child["rid"] == parent["rid"] == "req-7"
        own = benchstats.self_times([child, parent])
        assert own["core"] + own["ml"] == pytest.approx(parent["end"] - parent["start"])


def test_benchmark_json_lists_every_workload():
    import json
    from pathlib import Path

    import traffic

    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in doc["workloads"]) == tuple(traffic.WORKLOADS)
