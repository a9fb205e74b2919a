"""The benchmark's own statistics: percentiles, plan slowdown, self time.

Pure functions over plain numbers and span records, so the tests in
``perfbench/tests`` can pin them down without a daemon.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default); NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or ``None`` when even the median has fewer.

    Integer arithmetic in tenths of a percent keeps the boundaries exact:
    1000 samples support p99 (10 beyond), 999 do not.
    """
    for q in TAIL_LADDER:
        if n * (1000 - round(q * 10)) >= MIN_BEYOND * 1000:
            return q
    return None


def tail(values: Sequence[float]) -> Tuple[Optional[float], float]:
    """``(q, value)``: the tail at :func:`tail_percentile`; with too few
    samples for any ladder step, ``(None, max)`` — the worst one seen."""
    q = tail_percentile(len(values))
    if q is None:
        return None, (max(values) if values else math.nan)
    return q, percentile(values, q)


def bounded_slowdown(chosen_s: float, best_s: float, floor_s: float, timeout_s: float) -> float:
    """Simulated runtime of the returned plan over the best single-platform
    runtime. Either side is clamped to ``[floor_s, timeout_s]``: a failed
    or non-finite run counts at the simulator's timeout, and a run shorter
    than the floor counts at the floor, so a 0.05 s plan beaten by a
    0.01 s one is no slowdown at all rather than a 5x one.
    """

    def clamp(x: float) -> float:
        return timeout_s if not math.isfinite(x) else min(max(x, floor_s), timeout_s)

    return clamp(chosen_s) / clamp(best_s)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive ratios; NaN when empty."""
    logs = [math.log(v) for v in values]
    if not logs:
        return math.nan
    return math.exp(math.fsum(logs) / len(logs))


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Seconds of self time per layer.

    Each span is a dict with ``id``, ``parent``, ``layer``, ``start`` and
    ``end``. A span's self time is its duration minus the part of its
    interval that its child spans cover; children are clipped to the
    parent and their overlaps merged, so nothing is subtracted twice.
    """
    spans = list(spans)
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent"):
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        layer = span["layer"]
        out[layer] = out.get(layer, 0.0) + (end - start) - covered
    return out
