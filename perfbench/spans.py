"""Timing spans around the public entry points of each layer.

:func:`install` wraps functions and methods of the ``serve.*``, ``core``,
``resilience``, ``ml``, ``tdgen`` and ``simulator`` layers with a
recorder; nothing inside those layers changes. A span records its name,
layer, start, end, parent span and the request it worked for. The
request id is the plan's name (the benchmark names every plan after its
request), read from the wrapped call's arguments or, for calls that get
no plan, inherited from the last span on the same thread that knew it.

Spans stay in memory and are written out when the process ends. Pool
workers are forked from the process that installed the wrappers, so
they record too: the first span in a new process starts a fresh buffer
and registers a ``multiprocessing`` finalizer that writes it when the
worker exits.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """Collects spans of one process (and, after a fork, of the child)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._pid = os.getpid()
        self._spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _claim(self) -> None:
        """After a fork, drop the parent's spans and flush at exit."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._spans = []
            self._local = threading.local()
            mp_util.Finalize(None, self.flush, exitpriority=100)

    @property
    def request_id(self) -> str:
        return getattr(self._local, "rid", "")

    @request_id.setter
    def request_id(self, rid: str) -> None:
        self._local.rid = rid

    def begin(self, layer: str, name: str, rid: Optional[str]) -> dict:
        """Open a span; ``rid=None`` inherits the thread's current request."""
        self._claim()
        stack = self._stack()
        if rid is None:
            rid = self.request_id
        elif rid:
            self.request_id = rid
        span = {
            "id": f"{self._pid}:{next(self._ids)}",
            "parent": stack[-1]["id"] if stack else None,
            "layer": layer,
            "name": name,
            "rid": rid,
            "pid": self._pid,
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def end(self, span: dict, **extra: Any) -> None:
        span["end"] = time.perf_counter()
        span.update(extra)
        self._stack().pop()
        self._spans.append(span)

    def flush(self) -> None:
        if not self._spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            for span in self._spans:
                f.write(json.dumps(span) + "\n")
        self._spans = []


def load(out_dir: str) -> List[dict]:
    """Every span written under ``out_dir``, from every process."""
    spans: List[dict] = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name)) as f:
                spans += [json.loads(line) for line in f if line.strip()]
    return spans


def _plan_name(plan: Any) -> str:
    return getattr(plan, "name", "") or ""


def _wrap(
    recorder: Recorder,
    fn: Callable,
    layer: str,
    name: str,
    rid_of: Callable[..., str],
    extra_of: Optional[Callable[..., Dict[str, Any]]] = None,
    rid_of_result: Optional[Callable[[Any], str]] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(layer, name, rid_of(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            extra = extra_of(*args, **kwargs) if extra_of else {}
            recorder.end(span, **extra)
        if rid_of_result is not None:
            rid = rid_of_result(result)
            span["rid"] = rid
            recorder.request_id = rid
        return result

    return wrapper


def _inherit(*args, **kwargs) -> None:
    """The call names no request: it works for the thread's current one."""
    return None


def _no_request(*args, **kwargs) -> str:
    """The call serves many requests, or none."""
    return ""


#: (module, attribute path, layer, span name, request id from the args).
DAEMON_TARGETS = [
    ("repro.serve.daemon", "parse_request", "serve.protocol", "parse", _no_request),
    ("repro.serve.protocol", "OptimizeResponse.to_json", "serve.protocol", "encode",
     lambda self: self.request_id),
    ("repro.serve.daemon", "plan_fingerprint", "serve.fingerprint", "fingerprint",
     lambda plan, *a, **k: _plan_name(plan)),
    ("repro.serve.batch", "plan_fingerprint", "serve.fingerprint", "fingerprint",
     lambda plan, *a, **k: _plan_name(plan)),
    ("repro.serve.cache", "PlanCache.get", "serve.cache", "get", _inherit),
    ("repro.serve.template", "TemplateCache.get", "serve.template", "get",
     lambda self, tfp, plan, *a, **k: _plan_name(plan)),
    ("repro.serve.batch", "BatchOptimizationService.optimize_batch", "serve.batch",
     "batch", _no_request),
    ("repro.serve.feedback", "FeedbackController.observe", "serve.feedback", "observe",
     lambda self, result: _plan_name(result.execution_plan.plan)),
    ("repro.core.optimizer", "Robopt.optimize", "core", "optimize",
     lambda self, plan, *a, **k: _plan_name(plan)),
    ("repro.resilience.fallback", "FallbackRuntimeModel.predict", "resilience",
     "predict", _inherit),
    ("repro.ml.model", "RuntimeModel.predict", "ml", "predict", _inherit),
]

_FIT = ("repro.ml.model", "RuntimeModel.train", "ml", "fit", _no_request)
_SIMULATE = (
    "repro.simulator.executor", "SimulatedExecutor.execute", "simulator", "execute",
    _inherit,
)
# The daemon also fits and simulates, when feedback retrains.
DAEMON_TARGETS += [_FIT, _SIMULATE]

#: The benchmark process itself simulates, to price plan quality.
BENCH_TARGETS = [_SIMULATE]


def _rows(self, X, *a, **k) -> Dict[str, Any]:
    shape = getattr(X, "shape", ())
    return {"rows": int(shape[0]) if len(shape) == 2 else 1}


def install(recorder: Recorder, targets) -> None:
    """Replace each target with a recording wrapper (in place, process-wide)."""
    for module_name, path, layer, name, rid_of in targets:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        fn = getattr(owner, attr)
        # A classmethod comes back bound; keep it callable on the class.
        bound = isinstance(owner.__dict__.get(attr), (classmethod, staticmethod))
        extra_of = _rows if (layer, name) == ("ml", "predict") else None
        rid_of_result = (
            (lambda frame: getattr(frame, "request_id", ""))
            if (layer, name) == ("serve.protocol", "parse")
            else None
        )
        wrapper = _wrap(recorder, fn, layer, name, rid_of, extra_of, rid_of_result)
        setattr(owner, attr, staticmethod(wrapper) if bound else wrapper)
