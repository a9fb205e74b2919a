"""Are the daemon's answers right, and how good are the plans it picked?

* :func:`check_answers` — every OK answer puts each operator on a
  registry platform that supports it and carries a finite prediction.
* :func:`check_reference` — a seeded sample of uncached answers must
  match, assignment for assignment, an in-process optimizer built from
  the same model file and the same resilient stack.
* :func:`plan_slowdown` — the simulated runtime of each returned plan
  over the best single-platform simulated runtime of the same plan,
  both clamped below at one second (a bounded slowdown: seconds-long
  platform start-ups dwarf sub-second runs, and unbounded ratios of
  tiny runtimes would swamp the mean).
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from repro.rheem.execution_plan import ExecutionPlan, single_platform_plan
from repro.rheem.platforms import PlatformRegistry
from repro.serve.batch import resilient_robopt_factory
from repro.simulator.executor import DEFAULT_TIMEOUT_S, SimulatedExecutor

from benchstats import bounded_slowdown, geomean
from loadgen import Outcome
from traffic import PLATFORMS

#: Uncached answers re-optimized in process, per daemon.
REFERENCE_SAMPLE = 4

#: Simulated runtimes below this count as this in the plan slowdown.
SLOWDOWN_FLOOR_S = 1.0


def check_answers(outcomes: List[Outcome], registry: PlatformRegistry) -> List[str]:
    problems = []
    for o in outcomes:
        if not o.ok:
            continue
        plan, answer = o.request.plan, o.response
        if not math.isfinite(answer.predicted_runtime):
            problems.append(f"{o.request.rid}: predicted_runtime {answer.predicted_runtime}")
        expected = {str(op_id) for op_id in plan.operators}
        if set(answer.assignment) != expected:
            problems.append(f"{o.request.rid}: assignment covers the wrong operators")
            continue
        for op_id, platform in answer.assignment.items():
            kind = plan.operators[int(op_id)].kind_name
            if platform not in registry or not registry[platform].supports(kind):
                problems.append(f"{o.request.rid}: operator {op_id} ({kind}) on {platform}")
    return problems


def check_reference(
    outcomes: List[Outcome], model_path: str, seed: int, eligible: int
) -> Tuple[int, List[str]]:
    """Re-optimize a seeded sample of the first ``eligible`` uncached OK
    answers (in reply order) in process; returns (checked, problems)."""
    answered = sorted(
        (o for o in outcomes if o.ok and not o.response.cached), key=lambda o: o.done
    )[:eligible]
    sample = random.Random(seed).sample(answered, min(REFERENCE_SAMPLE, len(answered)))
    optimizer = resilient_robopt_factory(platforms=PLATFORMS, model_path=model_path)()
    problems = []
    for o in sample:
        result = optimizer.optimize(o.request.plan.clone())
        want = {str(k): str(v) for k, v in result.execution_plan.assignment.items()}
        if want != o.response.assignment:
            problems.append(f"{o.request.rid}: assignment differs from the in-process reference")
    return len(sample), problems


def plan_slowdown(
    outcomes: List[Outcome], registry: PlatformRegistry, prefix: int
) -> Tuple[float, int]:
    """Geometric-mean slowdown over the answered requests among the first
    ``prefix`` of the sequence; returns (value, samples)."""
    executor = SimulatedExecutor.default(registry)

    def runtime(xplan: ExecutionPlan) -> float:
        report = executor.execute(xplan)
        return report.runtime_s if report.ok else DEFAULT_TIMEOUT_S

    ratios = []
    for o in sorted(outcomes, key=lambda o: o.request.index)[:prefix]:
        if not o.ok:
            continue
        plan = o.request.plan
        assignment = {int(k): v for k, v in o.response.assignment.items()}
        chosen = runtime(ExecutionPlan(plan, assignment, registry))
        singles = [
            runtime(single_platform_plan(plan, p.name, registry))
            for p in registry
            if all(p.supports(op.kind_name) for op in plan.operators.values())
        ]
        best = min(singles) if singles else DEFAULT_TIMEOUT_S
        ratios.append(bounded_slowdown(chosen, best, SLOWDOWN_FLOOR_S, DEFAULT_TIMEOUT_S))
    return geomean(ratios), len(ratios)
