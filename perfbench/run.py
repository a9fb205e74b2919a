"""The Robopt serving benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload feedback_loop --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15   # every workload

Each run trains the runtime forest from TDGEN, starts ``repro serve`` on
it, drives the workload's traffic from one process, checks every answer
and prints a metric table followed by one JSON line (the last line of
standard output). ``--trace 0`` reports the end-to-end metrics; set-up
is repeated :data:`SETUPS` times and its median reported, and each
set-up's daemon serves an equal share of the window. ``--trace 1``
reports the per-layer metrics: one untraced phase (response frames and
daemon counters), then one phase under ``perfbench/launcher.py``, whose
timing spans give each layer's time and self time; the gap between the
two phases' end-to-end numbers is the tracing overhead.

The exit code is 0 when every output check passed, 1 when one failed and
2 when the checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median, and each
#: set-up's daemon serves an equal share of the measured window.
SETUPS = 3
#: Uncached answers (in reply order) a feedback run may re-check in
#: process: fewer than one retrain's worth, so the file model priced them.
FEEDBACK_REFERENCE_WINDOW = 40
#: Daemon stderr lines echoed per run.
STDERR_ECHO_LINES = 200


def _cpu_times():
    """The host's aggregate CPU jiffies: (steal, total)."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return fields[7], sum(fields)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Feed:
    """A workload's request stream, driven through one daemon after
    another: each window takes up where the last one stopped. Requests
    are serialized before each window opens, so building them does not
    compete with the daemon for the CPUs."""

    def __init__(self, workload, seed: int):
        from traffic import Traffic

        self.workload = workload
        traffic = Traffic(workload, seed)
        self.warm = traffic.warm_requests()
        self._stream = iter(traffic)
        self._ready = []

    def requests(self, seconds: float):
        want = int(self.workload.prebuild_rate * seconds)
        self._ready += itertools.islice(self._stream, max(0, want - len(self._ready)))
        return itertools.chain(self._ready, self._stream)

    def consumed(self, n: int) -> None:
        """The last window sent ``n`` requests, in order."""
        self._ready = self._ready[n:]


class Run:
    """One benchmark run: its private directory, daemons and results."""

    def __init__(self, workload, seed: int, seconds: float):
        from traffic import registry

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.registry = registry()
        RUNS_DIR.mkdir(exist_ok=True)
        self.dir = Path(
            tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=RUNS_DIR)
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.daemons = []
        self.problems = []
        self.stderr_tracebacks = 0
        self.stderr_lines = []
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.reference_checked = 0
        self.steal = []

    def close(self) -> None:
        for daemon in self.daemons:
            if daemon.proc.poll() is None:
                daemon.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------
    def _rel(self, name: str) -> str:
        # Relative to the checkout root (the cwd of every process), which
        # keeps unix socket paths short.
        return os.path.relpath(self.dir / name, ROOT)

    def train(self, tag: str):
        """TDGEN generation and forest fit; returns (model path, times)."""
        from repro.ml.model import RuntimeModel
        from repro.simulator.executor import SimulatedExecutor
        from repro.tdgen.generator import TrainingDataGenerator

        from traffic import TRAIN_POINTS, TRAIN_SEED

        t0 = time.perf_counter()
        executor = SimulatedExecutor.default(self.registry, seed=TRAIN_SEED)
        dataset = TrainingDataGenerator(self.registry, executor, seed=TRAIN_SEED).generate(
            TRAIN_POINTS
        )
        t1 = time.perf_counter()
        model = RuntimeModel.train(dataset, "random_forest", seed=TRAIN_SEED)
        t2 = time.perf_counter()
        path = self.dir / f"model-{tag}.pkl"
        model.save(path)
        return path, {"generate_s": t1 - t0, "fit_s": t2 - t1}

    def start_daemon(self, tag: str, model_path: Path, trace_dir=None):
        """Start a daemon on a private copy of the model (``--feedback``
        rewrites its model file) and wait until it has answered its
        set-up requests, so the pool is warm."""
        from daemon import DaemonProcess
        from loadgen import LoadGenerator
        from traffic import setup_requests

        daemon_model = self._rel(f"daemon-{tag}.pkl")
        shutil.copyfile(model_path, daemon_model)
        flags = [f.replace("{daemon}", self._rel(f"d{tag}")) for f in self.workload.flags]
        serve = ["serve", "--socket", self._rel(f"d{tag}.sock"), "--model", daemon_model]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro"] + serve + flags
        else:
            launcher = str(ROOT / "perfbench" / "launcher.py")
            argv = [sys.executable, launcher, str(trace_dir)] + serve + flags
        daemon = DaemonProcess(argv, str(ROOT), self.env, str(self.dir / f"d{tag}.stderr"))
        self.daemons.append(daemon)
        address = daemon.wait_ready()
        t_ready = time.perf_counter()
        with LoadGenerator(address) as gen:
            outcomes = gen.closed_loop(setup_requests(self.seed, tag))
        failed = [o.request.rid for o in outcomes if not o.ok]
        if failed:
            raise RuntimeError(f"set-up requests failed: {failed}\n{daemon.stderr_text()}")
        return daemon, {"warm_s": time.perf_counter() - t_ready}

    def stop_daemon(self, daemon) -> None:
        code = daemon.stop()
        text = daemon.stderr_text()
        self.stderr_tracebacks += text.count("Traceback (most recent call last)")
        self.stderr_lines += [f"[{Path(daemon.stderr_path).name}] {line}" for line in text.splitlines()]
        if code != 0:
            self.problems.append(f"daemon {daemon.argv[2:4]} exited with {code}")

    def setup(self, tag: str):
        """One full set-up, timed from TDGEN to the warm pool."""
        t0 = time.perf_counter()
        model_path, times = self.train(tag)
        daemon, started = self.start_daemon(tag, model_path)
        times.update(started, setup_s=time.perf_counter() - t0)
        return daemon, model_path, times

    # ------------------------------------------------------------------
    def phase(self, daemon, feed: Feed, seconds: float) -> dict:
        """Warm the caches, drive ``feed`` for ``seconds``, stop the daemon."""
        from loadgen import LoadGenerator

        with LoadGenerator(daemon.address) as gen:
            warm = gen.closed_loop(feed.warm)
        requests = feed.requests(seconds)
        before = daemon.stats()
        # Memory is read until a fixed number of replies, so the peak does
        # not grow with throughput (the daemon keeps every batch's trace
        # spans, and more plans mean more chances of a large enumeration).
        memory_replies = self.workload.quality_prefix // SETUPS

        def sample(answered):
            if answered <= memory_replies:
                daemon.sample_memory()

        steal0, total0 = _cpu_times()
        with LoadGenerator(daemon.address, tick=sample) as gen:
            start = time.perf_counter()
            outcomes = gen.closed_loop(requests, seconds)
            end = time.perf_counter()
        steal1, total1 = _cpu_times()
        # Time the hypervisor gave this machine's CPUs to others.
        self.steal.append((steal1 - steal0) / max(total1 - total0, 1))
        feed.consumed(len(outcomes))
        after = daemon.stats()
        self.attempted += len(outcomes)
        self.failed += sum(1 for o in outcomes if not o.ok)
        self.stop_daemon(daemon)
        return {
            "warm": warm,
            "outcomes": outcomes,
            "start": start,
            "end": end,
            "seconds": seconds,
            "before": before,
            "after": after,
            "peak_rss_mb": daemon.peak_rss_kb / 1024.0,
        }

    def check(self, phase: dict, model_path: Path) -> None:
        from quality import check_answers, check_reference

        every = phase["warm"] + phase["outcomes"]
        self.problems += check_answers(every, self.registry)
        self.checked += sum(1 for o in every if o.ok)
        eligible = (
            FEEDBACK_REFERENCE_WINDOW if "--feedback" in self.workload.flags else len(every)
        )
        checked, problems = check_reference(every, str(model_path), self.seed, eligible)
        self.problems += problems
        self.reference_checked += checked


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class Table:
    """Metrics in report order, each with its unit and sample note."""

    def __init__(self):
        self.rows = {}

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.rows[name] = (float(value), unit, note)

    def print(self) -> None:
        for name, (value, unit, note) in self.rows.items():
            print(f"  {name:<36} {value:>14.6g} {unit:<10} {note}")

    def json(self) -> dict:
        return {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit, _) in self.rows.items()
        }


def _window(phases) -> dict:
    """Throughput and latency percentiles of each measured window (OK
    answers per second of window, client-side latency of every OK
    answer), and their median over ``phases``. The median keeps one
    window that the host slowed from moving the run's figures."""
    from benchstats import percentile, tail_percentile

    windows = [[o.latency_s * 1000.0 for o in p["outcomes"] if o.ok] for p in phases]
    fewest = min(len(w) for w in windows)
    supported = tail_percentile(fewest)
    note = (f"median of {len(phases)} windows of {phases[0]['seconds']:g} s: "
            + ", ".join(str(len(w)) for w in windows) + " answers")
    return {
        "plans_per_s": statistics.median(len(w) / p["seconds"] for w, p in zip(windows, phases)),
        "latency_p50_ms": statistics.median(percentile(w, 50.0) for w in windows),
        "latency_p90_ms": statistics.median(percentile(w, 90.0) for w in windows),
        "note": note,
        "tail_note": f"{note}; they support up to "
                     + (f"p{supported:g}" if supported is not None else "no tail"),
    }


def end_to_end(table: Table, run: Run, phases, setups) -> None:
    from quality import plan_slowdown

    outcomes = [o for p in phases for o in p["outcomes"]]
    ok = [o for o in outcomes if o.ok]
    slowdown, n_slow = plan_slowdown(outcomes, run.registry, run.workload.quality_prefix)
    values = [s["setup_s"] for s in setups]
    table.add("setup_s", statistics.median(values), "s",
              f"median of {len(values)} set-ups: " + ", ".join(f"{v:.2f}" for v in values))
    window = _window(phases)
    table.add("plans_per_s", window["plans_per_s"], "plans/s", window["note"])
    table.add("latency_p50_ms", window["latency_p50_ms"], "ms", window["note"])
    table.add("latency_p90_ms", window["latency_p90_ms"], "ms", window["tail_note"])
    table.add("success_rate", len(ok) / max(len(outcomes), 1), "ratio",
              f"{len(ok)} of {len(outcomes)} attempted")
    table.add("plan_slowdown", slowdown, "ratio", f"geomean of {n_slow} answers")
    table.add("peak_rss_mb", max(p["peak_rss_mb"] for p in phases), "MB",
              "daemon + pool workers, VmHWM, highest of the daemons up to answer "
              f"{run.workload.quality_prefix // SETUPS} each")


def _delta(phase: dict, name: str) -> float:
    return phase["after"].counters.get(name, 0.0) - phase["before"].counters.get(name, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def adopt_worker_spans(daemon_spans) -> None:
    """Give each pool worker's top-level span a parent: the daemon's batch
    span that dispatched its request (a child of that batch carries the
    same request id, and the batch's interval contains the worker span).
    Without it, time spent in the workers would count as the batch
    layer's own."""
    by_id = {s["id"]: s for s in daemon_spans}
    batches = {}
    for span in daemon_spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["layer"] == "serve.batch" and span["rid"]:
            batches.setdefault(span["rid"], []).append(parent)
    for span in daemon_spans:
        if span["parent"] is None:
            for batch in batches.get(span["rid"], []):
                if (
                    batch["pid"] != span["pid"]
                    and batch["start"] <= span["start"]
                    and span["end"] <= batch["end"]
                ):
                    span["parent"] = batch["id"]
                    break


def per_layer(table: Table, run: Run, plain: dict, traced: dict, setup: dict,
              daemon_spans, bench_spans) -> None:
    from benchstats import percentile, self_times, tail

    def p50(values):
        return percentile(values, 50) if values else 0.0

    def add_tail(name, values):
        q, value = tail(values) if values else (None, 0.0)
        where = f"p{q:g}" if q is not None else "max"
        table.add(name, value, "ms", f"{where} of {len(values)} samples")

    ok = [o for o in plain["outcomes"] if o.ok]
    # Uncached answers, warm-up included: on parametric only the warm-up
    # enumerates.
    uncached = [o for o in plain["warm"] + plain["outcomes"] if o.ok and not o.response.cached]
    fresh = [o.response.stats for o in uncached]

    # core: uncached answers' RunStats.
    optimize_ms = [s["latency_s"] * 1000 for s in fresh]
    table.add("core.optimize_ms_p50", p50(optimize_ms), "ms", f"{len(fresh)} uncached answers")
    add_tail("core.optimize_ms_tail", optimize_ms)
    table.add("core.merge_ms_p50", p50([s["time_merge_s"] * 1000 for s in fresh]), "ms")
    table.add("core.prune_ms_p50", p50([s["time_prune_s"] * 1000 for s in fresh]), "ms")
    prune_calls = sum(s["prune_calls"] for s in fresh)
    table.add("core.prune_calls", _ratio(prune_calls, len(fresh)), "calls/plan")
    table.add("core.rows_per_prune_call",
              _ratio(sum(s["rows_predicted"] for s in fresh), prune_calls), "rows")
    table.add("core.vectors_pruned_share",
              _ratio(sum(s["vectors_pruned"] for s in fresh),
                     sum(s["vectors_created"] for s in fresh)), "ratio")

    # ml and tdgen: spans in the pool workers, set-up in this process.
    def spans_of(spans, layer, name):
        return [s for s in spans if s["layer"] == layer and s["name"] == name]

    def durations(spans, scale):
        return [(s["end"] - s["start"]) * scale for s in spans]

    # Forest calls per answered request: in the pool workers while
    # enumerating, in the daemon while re-costing template candidates.
    answered = max(sum(1 for o in traced["outcomes"] if o.ok), 1)
    predicts = spans_of(daemon_spans, "ml", "predict")
    table.add("ml.predict_calls", len(predicts) / answered, "calls/req",
              f"{len(predicts)} traced calls in {len({s['pid'] for s in predicts})} processes")
    table.add("ml.predict_us_per_call",
              _ratio(sum(durations(predicts, 1e6)), len(predicts)), "us")
    table.add("ml.rows_per_call", _ratio(sum(s["rows"] for s in predicts), len(predicts)), "rows")
    table.add("ml.fit_s", setup["fit_s"], "s", "TDGEN forest, set-up")
    table.add("tdgen.generate_s", setup["generate_s"], "s", "TDGEN data, set-up")

    # serve.batch and the pool.
    overhead = [o.response.duration_ms - o.response.stats["latency_s"] * 1000
                for o in uncached]
    table.add("serve.batch.dispatch_overhead_ms_p50", p50(overhead), "ms")
    batches = durations(spans_of(daemon_spans, "serve.batch", "batch"), 1e3)
    table.add("serve.batch.busy_ms_per_batch", _ratio(sum(batches), len(batches)), "ms",
              f"{len(batches)} traced batches")
    table.add("serve.pool.warm_s", setup["warm_s"], "s", "ready line to warm pool")

    # serve.daemon: duration_ms and the stats frame.
    in_daemon = [o.response.duration_ms for o in ok]
    table.add("serve.daemon.in_daemon_ms_p50", p50(in_daemon), "ms")
    add_tail("serve.daemon.in_daemon_ms_tail", in_daemon)
    table.add("serve.daemon.jobs_per_batch",
              _ratio(_delta(plain, "serve.daemon.batched_jobs"),
                     _delta(plain, "serve.daemon.batches")), "jobs")
    table.add("serve.daemon.overloaded", _delta(plain, "serve.daemon.overloaded"), "count")
    table.add("serve.jobs_timed_out", _delta(plain, "serve.jobs_timed_out"), "count")
    table.add("serve.jobs_coalesced", _delta(plain, "serve.jobs_coalesced"), "count")
    table.add("serve.daemon.stderr_tracebacks", run.stderr_tracebacks, "count")

    # serve.protocol, serve.fingerprint, serve.cache, serve.template.
    table.add("serve.protocol.parse_us",
              p50(durations(spans_of(daemon_spans, "serve.protocol", "parse"), 1e6)), "us")
    table.add("serve.protocol.encode_us",
              p50(durations(spans_of(daemon_spans, "serve.protocol", "encode"), 1e6)), "us")
    table.add("serve.fingerprint.us",
              p50(durations(spans_of(daemon_spans, "serve.fingerprint", "fingerprint"), 1e6)), "us")
    hits, misses = _delta(plain, "serve.cache.hits"), _delta(plain, "serve.cache.misses")
    table.add("serve.cache.hit_rate", _ratio(hits, hits + misses), "ratio",
              f"{hits + misses:.0f} lookups")
    table.add("serve.cache.get_us",
              p50(durations(spans_of(daemon_spans, "serve.cache", "get"), 1e6)), "us")
    table.add("serve.cache.evictions", _delta(plain, "serve.cache.evictions"), "count")
    t_hits = _delta(plain, "serve.template.hits")
    t_misses = _delta(plain, "serve.template.misses")
    table.add("serve.template.hit_rate", _ratio(t_hits, t_hits + t_misses), "ratio",
              f"{t_hits + t_misses:.0f} lookups")
    table.add("serve.template.get_ms",
              p50(durations(spans_of(daemon_spans, "serve.template", "get"), 1e3)), "ms")
    table.add("serve.template.guardrail_rejects",
              _delta(plain, "serve.template.guardrail_rejects"), "count")

    # resilience.
    table.add("resilience.degraded_rate",
              _ratio(sum(1 for o in ok if o.response.degraded), len(ok)), "ratio")
    table.add("resilience.fallback", _delta(plain, "resilience.fallback"), "count",
              "daemon process only")

    # simulator: the daemon's own executions when feedback runs, else
    # the plan-quality pass of this process.
    simulated = spans_of(daemon_spans, "simulator", "execute") or [
        s for s in spans_of(bench_spans, "simulator", "execute") if s["parent"] is None
    ]
    table.add("simulator.execute_us", p50(durations(simulated, 1e6)), "us",
              f"{len(simulated)} executions")
    # serve.feedback and ml.drift: the stats frame's feedback section,
    # empty unless the daemon runs with --feedback.
    before, after = plain["before"].feedback, plain["after"].feedback
    table.add("serve.feedback.retrains",
              after.get("retrains", 0) - before.get("retrains", 0), "count")
    # Installs run on the retrain thread, whose serve.model_swaps counts
    # never reach the stats frame; the controller's model generation does.
    table.add("serve.model_swaps",
              after.get("model_generation", 0) - before.get("model_generation", 0), "count",
              "installed retrains")
    table.add("serve.feedback.observe_ms",
              p50(durations(spans_of(daemon_spans, "serve.feedback", "observe"), 1e3)), "ms")
    table.add("ml.drift.q_error", after.get("q_error") or 0.0, "ratio")

    # The client's view.
    transport = [o.latency_s * 1000 - o.response.duration_ms for o in ok]
    table.add("bench.transport_ms_p50", p50(transport), "ms")

    # Self time per layer, per answered request of the traced phase.
    adopt_worker_spans(daemon_spans)
    own = self_times(daemon_spans)
    layers = ["serve.protocol", "serve.fingerprint", "serve.cache", "serve.template",
              "serve.batch", "core", "resilience", "ml", "serve.feedback", "simulator"]
    for layer in layers:
        table.add(f"self.{layer}_ms", own.get(layer, 0.0) * 1000 / answered, "ms/req")

    # Tracing overhead: traced minus untraced end to end.
    def e2e(phase):
        window = _window([phase])
        return window["latency_p50_ms"], window["plans_per_s"]

    (lat_plain, tput_plain), (lat_traced, tput_traced) = e2e(plain), e2e(traced)
    table.add("trace.overhead_latency_p50_ms", lat_traced - lat_plain, "ms",
              f"{lat_plain:.2f} -> {lat_traced:.2f} ms")
    table.add("trace.overhead_plans_per_s", tput_plain - tput_traced, "plans/s",
              f"{tput_plain:.1f} -> {tput_traced:.1f} plans/s")


# ----------------------------------------------------------------------


def _execute(run: Run, traced: bool) -> Table:
    import spans
    from quality import plan_slowdown

    table = Table()
    if not traced:
        # Each set-up's daemon serves an equal share of the window, so
        # the window samples the host at as many moments of the run.
        feed = Feed(run.workload, run.seed)
        setups, phases = [], []
        for i in range(SETUPS):
            daemon, model_path, times = run.setup(str(i))
            setups.append(times)
            phases.append(run.phase(daemon, feed, run.seconds / SETUPS))
            run.check(phases[-1], model_path)
        end_to_end(table, run, phases, setups)
        return table

    bench_dir = run.dir / "bench-spans"
    bench_dir.mkdir()
    recorder = spans.Recorder(str(bench_dir))
    spans.install(recorder, spans.BENCH_TARGETS)
    daemon, model_path, setup = run.setup("0")
    plain = run.phase(daemon, Feed(run.workload, run.seed), run.seconds)
    run.check(plain, model_path)
    trace_dir = run.dir / "daemon-spans"
    trace_dir.mkdir()
    daemon, _ = run.start_daemon("t", model_path, trace_dir=trace_dir)
    traced = run.phase(daemon, Feed(run.workload, run.seed), run.seconds)
    run.check(traced, model_path)
    # Plan quality runs the simulator here, inside the recorded process.
    plan_slowdown(plain["outcomes"], run.registry, run.workload.quality_prefix)
    recorder.flush()
    measured = [
        s for s in spans.load(str(trace_dir))
        if traced["start"] <= s["start"] and s["end"] <= traced["end"]
    ]
    per_layer(table, run, plain, traced, setup, measured, spans.load(str(bench_dir)))
    return table


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from traffic import WORKLOADS

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; expected 'all' or one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run = Run(WORKLOADS[name], args.seed, args.seconds)
        try:
            table = _execute(run, bool(args.trace))
        finally:
            run.close()
        for line in run.stderr_lines[-STDERR_ECHO_LINES:]:
            print(f"daemon stderr | {line}")
        for problem in run.problems:
            print(f"CHECK FAILED: {problem}")
        print(f"{name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
              f"{run.checked} answers checked, {run.reference_checked} re-optimized "
              f"in process, {len(run.problems)} problems; CPU steal during the window "
              f"{', '.join(f'{x:.0%}' for x in run.steal)}")
        table.print()
        correct = correct and not run.problems
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in table.json().items()})
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
