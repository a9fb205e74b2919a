"""The benchmark's workloads and their seeded request streams.

Every request is a TDGEN plan over java/spark/flink, serialized into an
``optimize`` frame. The plan's name is the request id, so timing spans
recorded inside the daemon and its pool workers can be tied back to the
request that caused them (the plan fingerprint ignores the name).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry, default_registry
from repro.rheem.serialization import plan_to_dict
from repro.serve.protocol import OptimizeRequest
from repro.tdgen.jobgen import JobGenerator
from repro.tdgen.shapes import Template

PLATFORMS = ("java", "spark", "flink")
SHAPES = ("pipeline", "juncture", "replicate", "loop")
MIN_OPERATORS, MAX_OPERATORS = 6, 60
CARDINALITY_RANGE = (1e3, 1e8)

#: TDGEN training set of the forest every run trains afresh. The seed is
#: fixed so the model is the same in every run; the workload seed varies
#: only the traffic.
TRAIN_POINTS = 3000
TRAIN_SEED = 7

#: Plans answered before measuring; the first spawns and warms the pool.
SETUP_REQUESTS = 1

#: Each workload's structures form a fixed catalogue, the same for every
#: seed, as a service's frequent queries would: each structure, and the
#: cardinality it is warmed at, is fixed. The seed varies the order of the
#: draws from the catalogue and the cardinality of every request.
CATALOGUE_SEED = 11


@dataclass(frozen=True)
class Workload:
    """One traffic mix: closed loop over one connection, the next request
    sent when the previous reply arrives.

    ``flags`` are the daemon flags the workload needs; ``{daemon}`` in
    them is a path prefix private to one daemon of the run. Every request
    is one of ``structures`` catalogue structures at a fresh cardinality.
    ``warm`` sends each catalogue structure once, at its catalogue
    cardinality, before each window.
    ``quality_prefix`` is how many requests, in sequence order, the plan
    slowdown is computed over, and how many replies peak memory is read
    up to, so neither depends on throughput.
    ``prebuild_rate`` is how many requests per second of window are
    serialized before the window opens, so that building them does not
    compete with the daemon for the CPUs.
    """

    name: str
    flags: Tuple[str, ...]
    structures: int
    warm: bool = False
    quality_prefix: int = 300
    prebuild_rate: float = 80.0


WORKLOADS = {
    w.name: w
    for w in (
        # 30 warmed structures, fresh cardinalities per request: the
        # template tier re-costs candidates with the forest in the daemon
        # process.
        Workload(
            "parametric",
            flags=("--template-cache", "{daemon}-templates.json"),
            structures=30, warm=True, quality_prefix=1000, prebuild_rate=250.0,
        ),
        # One structure per operator-count stratum, each drawn about three
        # times per window at a fresh cardinality, and no template tier, so
        # every request is enumerated (a window that held only part of a
        # larger catalogue would depend on which slow structures fell in
        # it); feedback executes every answer and retrains and installs
        # the model under load. The daemon serves in process (--workers 0):
        # with a warm pool, an install can cancel a queued pool future that
        # the batch then waits for forever (a known defect), which fails or
        # hangs a request in about one run of ten.
        Workload(
            "feedback_loop",
            flags=("--feedback", "--retrain-after", "100", "--workers", "0"),
            structures=MAX_OPERATORS - MIN_OPERATORS + 1,
        ),
    )
}


def _cardinality(u: float) -> float:
    """The ``u``-quantile (``0 <= u < 1``) of the log-uniform distribution
    over :data:`CARDINALITY_RANGE`."""
    lo, hi = np.log(CARDINALITY_RANGE[0]), np.log(CARDINALITY_RANGE[1])
    return float(np.exp(lo + u * (hi - lo)))


def strata(rng: np.random.Generator, n: int) -> Iterator[float]:
    """Uniform draws in ``[0, 1)``, stratified in blocks of ``n``: each
    block puts one draw in each of ``n`` equal strata, in random order.
    Every stretch of ``n`` requests then covers the whole range, and two
    seeds give the same mix of sizes and cardinalities, not just the same
    distribution of them."""
    while True:
        for k in rng.permutation(n):
            yield (k + rng.random()) / n


def registry() -> PlatformRegistry:
    return default_registry(PLATFORMS)


@dataclass
class Request:
    rid: str
    index: int
    plan: LogicalPlan
    frame: str  # the newline-free JSON optimize frame


def _request(rid: str, index: int, plan: LogicalPlan) -> Request:
    plan.name = rid
    frame = OptimizeRequest(request_id=rid, plan=plan_to_dict(plan)).to_json()
    return Request(rid, index, plan, frame)


def setup_requests(seed: int, tag: str) -> List[Request]:
    """Structures outside any catalogue that warm the pool during set-up."""
    generator = JobGenerator(registry(), seed=[seed, 3])
    templates = generator.templates_for_shapes(
        SHAPES, MAX_OPERATORS, SETUP_REQUESTS, min_operators=MIN_OPERATORS
    )
    return [_request(f"setup{tag}-{i}", i, t(1e5)) for i, t in enumerate(templates)]


def catalogue(count: int) -> List[Template]:
    """``count`` structures, the same for every seed: the shape cycles and
    the operator count is stratified."""
    generator = JobGenerator(registry(), seed=CATALOGUE_SEED)
    sizes = strata(generator.rng, MAX_OPERATORS - MIN_OPERATORS + 1)
    out = []
    for i in range(count):
        n_ops = MIN_OPERATORS + int(next(sizes) * (MAX_OPERATORS - MIN_OPERATORS + 1))
        (template,) = generator.templates_for_shapes(
            [SHAPES[i % len(SHAPES)]], n_ops, 1, min_operators=n_ops
        )
        out.append(template)
    return out


class Traffic:
    """The seeded request stream of one workload.

    The same ``(workload, seed)`` always yields the same requests in the
    same order. Catalogue picks come in blocks that draw every structure
    once, so each stretch of ``structures`` requests covers the whole
    catalogue and two seeds send the same plans, at other cardinalities
    and in another order.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self._pool = catalogue(workload.structures)
        warm_cards = np.random.default_rng(CATALOGUE_SEED).random(len(self._pool))
        self._warm_cards = [_cardinality(u) for u in warm_cards]
        self._cards = strata(np.random.default_rng([seed, 2]), 64)
        self._picks = strata(np.random.default_rng([seed, 5]), len(self._pool))

    def warm_requests(self) -> List[Request]:
        """Untimed requests, one per catalogue structure at its catalogue
        cardinality, that fill the template tier; none unless the
        workload warms."""
        if not self.workload.warm:
            return []
        return [
            _request(f"warm-{i}", i, template(card))
            for i, (template, card) in enumerate(zip(self._pool, self._warm_cards))
        ]

    def __iter__(self) -> Iterator[Request]:
        """Catalogue structures in stratified order, each at a stratified
        cardinality."""
        for index in itertools.count():
            card = _cardinality(next(self._cards))
            plan = self._pool[int(next(self._picks) * len(self._pool))](card)
            yield _request(f"{self.workload.name}-{index}", index, plan)
