"""The benchmark's hooks into the program still resolve.

``perfbench/`` is frozen against the program it measures: its span
recorder wraps the entry points named in ``perfbench/spans.py``
(``DAEMON_TARGETS``, ``BENCH_TARGETS``) and reads request ids from their
positional arguments, and its plan-quality check builds the resilient
optimizer from a model file. A rename or a signature change there breaks
the benchmark, not this suite — so this suite checks the hooks,
read-only (nothing is wrapped).
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from conftest import build_pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_POSITIONAL = (
    inspect.Parameter.POSITIONAL_ONLY,
    inspect.Parameter.POSITIONAL_OR_KEYWORD,
)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def _positional(fn):
    return [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.kind in _POSITIONAL
    ]


def _required_positional(fn):
    return [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.kind in _POSITIONAL and p.default is inspect.Parameter.empty
    ]


spans = _load("spans")
TARGETS = spans.DAEMON_TARGETS + spans.BENCH_TARGETS


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t[0]}:{t[1]}" for t in TARGETS]
)
def test_every_span_target_resolves(target):
    module_name, path, _layer, _name, rid_of = target
    fn = _resolve(module_name, path)
    assert callable(fn)
    # The request-id reader takes the target's leading positional
    # arguments; the target must still accept that many.
    taken = _required_positional(rid_of)
    assert len(taken) <= len(_positional(fn)), (path, taken, _positional(fn))


def test_request_ids_are_read_from_the_documented_positions():
    from repro.core.optimizer import Robopt
    from repro.serve import batch, daemon
    from repro.serve.cache import PlanCache
    from repro.serve.feedback import FeedbackController
    from repro.serve.template import TemplateCache

    assert _positional(TemplateCache.get)[:3] == ["self", "fingerprint", "plan"]
    assert _positional(FeedbackController.observe) == ["self", "result"]
    assert _positional(PlanCache.get)[:2] == ["self", "fingerprint"]
    assert _positional(Robopt.optimize)[:2] == ["self", "plan"]
    assert _positional(batch.plan_fingerprint)[0] == "plan"
    assert _positional(daemon.plan_fingerprint)[0] == "plan"


def test_quality_check_builds_the_resilient_optimizer(tiny_context, tmp_path):
    """``perfbench/quality.py`` re-optimizes answers in process with
    ``resilient_robopt_factory(platforms=..., model_path=...)()``."""
    from repro.serve.batch import resilient_robopt_factory

    platforms = _load("traffic").PLATFORMS
    model_path = tmp_path / "model.pkl"
    tiny_context["model"].save(model_path)
    optimizer = resilient_robopt_factory(
        platforms=platforms, model_path=str(model_path)
    )()
    plan = build_pipeline(3)
    result = optimizer.optimize(plan)
    assert set(result.execution_plan.assignment) == set(plan.operators)
    assert not result.stats.degraded
