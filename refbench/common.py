"""Shared run bookkeeping: environment, set-up timing, timed operation
passes, percentiles and the traced pass."""

from __future__ import annotations

import math
import os
import platform as platform_mod
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Optional

from layers import check_balance, layer_metrics
from refspeed import Scaler
from tracer import Tracer, install_program_layers

#: Checkout root (the directory holding ``src/`` and this benchmark).
ROOT = Path(__file__).resolve().parent.parent
#: Benchmark-owned scratch: the compiled EST kernel's build cache and the
#: compiler's temporary files, so a run writes only inside its checkout.
CACHE = ROOT / ".refbench_cache"
#: The kernel backend every run must resolve to.  A run that resolves to
#: another one fails: a silent fallback to numpy would read as a slowdown.
EXPECTED_BACKEND = "compiled"
#: Set-ups per run: at least SETUP_REPEATS, more while the set-ups so far
#: took under SETUP_BUDGET_S (wall), at most SETUP_MAX_REPEATS.
#: ``setup_s`` is their median, so a cheap set-up is measured more often.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 4.0
SETUP_MAX_REPEATS = 9
#: Target length of one timed segment of short operations.
SEGMENT_S = 0.5
#: Passes every run makes at least, so each operation's latency is a
#: median over repeats.
MIN_PASSES = 2

#: Failures whose traceback is printed; later ones are only counted.
MAX_REPORTED_FAILURES = 5

#: Root span of one operation in the traced pass; its self time is the
#: part of the operation no layer span covers.
ROOT_SPAN = "harness.op"

now = time.perf_counter


def prepare_environment() -> None:
    """Point the program at the checkout's sources and the benchmark's own
    kernel cache, and clear every variable that would change its code
    path (observability, fault injection, kernel or compiler overrides).
    Must run before ``repro`` is imported."""
    for var in ("MEMSCHED_OBS", "MEMSCHED_FAULT_PLAN", "MEMSCHED_KERNEL",
                "MEMSCHED_CC"):
        os.environ.pop(var, None)
    os.environ["MEMSCHED_CC_CACHE"] = str(CACHE / "cc")
    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(CACHE / "tmp")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def warm_environment() -> dict:
    """Build and load the compiled kernel (outside every timed region),
    then record the environment.  Raises when the resolved backend is
    not :data:`EXPECTED_BACKEND`."""
    import numpy

    from repro import obs
    from repro.scheduling import _cc
    from repro.scheduling.kernel import available_backends, resolve_backend

    _cc.load_library()
    resolved = resolve_backend().name
    env = {
        "backend": resolved,
        "backends_available": list(available_backends()),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform_mod.python_version(),
        "numpy": numpy.__version__,
    }
    if resolved != EXPECTED_BACKEND:
        raise RuntimeError(
            f"kernel backend resolved to {resolved!r}, expected "
            f"{EXPECTED_BACKEND!r} ({_cc.unavailable_reason()})")
    require_obs_off(obs)
    return env


def require_obs_off(obs) -> None:
    if obs.active() is not None:
        raise RuntimeError("repro.obs is active: the heuristics would run "
                           "the observed driver loop, not the timed one")


def check_backend() -> None:
    from repro.scheduling.kernel import resolve_backend
    resolved = resolve_backend().name
    if resolved != EXPECTED_BACKEND:
        raise RuntimeError(f"kernel backend changed to {resolved!r} "
                           f"during the run")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform_mod.processor() or "unknown"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[k]


class Run:
    """One benchmark run: the reference scaler, the operation tally and,
    for a traced run, the tracer."""

    def __init__(self, trace: bool) -> None:
        self.scaler = Scaler()
        self.attempted = 0
        self.failed = 0
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.tracer = Tracer() if trace else None
        #: True while the traced pass runs: operations get a root span.
        self.tracing_ops = False
        #: Input-generation self time of the (traced) set-up.
        self.setup_generate_s = 0.0
        #: Figures printed beside the metrics as run context (latency
        #: sample counts, set-up repeats), not metrics.
        self.context: dict = {}

    def quiet(self):
        """Context for the benchmark's own checks: never traced."""
        return self.tracer.paused() if self.tracer else nullcontext()

    def op(self, fn: Callable) -> Callable:
        """``fn`` itself, or during the traced pass ``fn`` inside the root
        span every layer span nests under."""
        if not self.tracing_ops:
            return fn
        return lambda: self.tracer.call(ROOT_SPAN, fn, (), {})

    def fail(self, what: str, exc: Optional[BaseException] = None) -> None:
        """Count one failed operation; the first few print their
        traceback to standard error."""
        self.failed += 1
        if self.failed > MAX_REPORTED_FAILURES:
            return
        print(f"refbench: FAILED {what}", file=sys.stderr)
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)
        if self.failed == MAX_REPORTED_FAILURES:
            print("refbench: further failures are counted, not printed",
                  file=sys.stderr)

    def check(self, what: str, fn: Callable, *args) -> bool:
        """Run one correctness check; a raising check counts as failed."""
        try:
            with self.quiet():
                fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            self.fail(what, exc)
            return False
        return True

    def timed_setup(self, build: Callable) -> tuple:
        """Run ``build`` several times (see SETUP_REPEATS), each bracketed
        by reference measurements; returns the last result and the median
        set-up time at reference speed.  ``build(last)`` receives the
        previous result (or None) so it can release what that one holds.
        A traced run sets up once, traced, for the input-generation self
        time."""
        if self.tracer is not None:
            setup_tracer = Tracer()
            install_program_layers(setup_tracer)
            self.scaler.begin()
            t0 = now()
            try:
                result = build(None)
            finally:
                setup_tracer.uninstall()
            dt = now() - t0
            factor = self.scaler.end()
            snap = setup_tracer.snapshot()
            self.setup_generate_s = snap["self_s"].get("dags.generate",
                                                       0.0) * factor
            return result, dt * factor
        scaled = []
        result = None
        started = now()
        while (len(scaled) < SETUP_REPEATS
               or (now() - started < SETUP_BUDGET_S
                   and len(scaled) < SETUP_MAX_REPEATS)):
            self.scaler.begin()
            t0 = now()
            result = build(result)
            dt = now() - t0
            scaled.append(dt * self.scaler.end())
        self.context["setup_repeats"] = len(scaled)
        return result, statistics.median(scaled)

    def timed_unit(self, fn: Callable) -> tuple:
        """Time one long unit on its own; returns (result, scaled)."""
        fn = self.op(fn)
        self.scaler.begin()
        t0 = now()
        result = fn()
        dt = now() - t0
        factor = self.scaler.end()
        self.raw_s += dt
        self.scaled_s += dt * factor
        return result, dt * factor


def run_segmented(run: Run, ops: list, on_result: Callable) -> list:
    """Time a list of short operations in segments of about SEGMENT_S.

    ``ops`` holds ``(key, fn)`` pairs; each ``fn()`` is timed on its own,
    and every time in a segment is scaled by that segment's reference
    factor.  ``on_result(key, result, exc)`` runs after the segment, outside
    the timed region, and returns whether the result was correct.
    Returns the scaled per-operation seconds in op order.
    """
    scaled: list = []
    pending: list = []
    last = len(ops) - 1
    run.scaler.begin()
    seg_start = now()
    for i, (key, fn) in enumerate(ops):
        exc = None
        fn = run.op(fn)
        t0 = now()
        try:
            result = fn()
        except Exception as err:  # noqa: BLE001 - checked below
            result, exc = None, err
        dt = now() - t0
        pending.append((key, result, exc, dt))
        if now() - seg_start >= SEGMENT_S or i == last:
            factor = run.scaler.end()
            for key_, result_, exc_, dt_ in pending:
                run.attempted += 1
                run.raw_s += dt_
                run.scaled_s += dt_ * factor
                scaled.append(dt_ * factor)
                try:
                    with run.quiet():
                        ok = on_result(key_, result_, exc_)
                except Exception as err:  # noqa: BLE001
                    run.fail(f"check of {key_!r}", err)
                    continue
                if not ok:
                    run.fail(f"operation {key_!r}", exc_)
            pending = []
            if i < last:
                run.scaler.begin()
                seg_start = now()
    return scaled


def timed_passes(one_pass: Callable, seconds: float) -> list:
    """Run whole passes over the workload's fixed operations: at least
    MIN_PASSES, then more while one more fits in ``seconds``, judged by
    the length of the pass that just ended.  Returns each pass's scaled
    operation times."""
    passes = []
    started = now()
    while True:
        pass_started = now()
        passes.append(one_pass())
        t = now()
        if (len(passes) >= MIN_PASSES
                and (t - started) + (t - pass_started) > seconds):
            return passes


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_latencies_ms(passes: list) -> list:
    """Each operation's latency in ms: its median over the run's passes
    (every pass runs the same operations in the same order), so one
    disturbed call does not become the tail."""
    return [statistics.median(times) * 1e3 for times in zip(*passes)]


def latency_summary(ms: list) -> dict:
    """p50, p90 and p99 over operation latencies, with the number of
    operations they are taken over."""
    return {"p50_ms": statistics.median(ms), "p90_ms": percentile(ms, 90.0),
            "p99_ms": percentile(ms, 99.0), "n_ops": len(ms)}


def end_to_end(run: Run, setup_s: float, passes: list, tasks: int,
               slo_s: float) -> dict:
    """The end-to-end metrics every workload shares.  ``passes`` holds
    each pass's scaled operation seconds, ``tasks`` the DAG tasks handed
    to a heuristic over all passes, ``slo_s`` the latency limit of one
    operation in seconds at reference speed.  The latency sample counts
    go to the run context."""
    scaled = [s for times in passes for s in times]
    total = sum(scaled)
    latency = latency_summary(op_latencies_ms(passes))
    run.context["latency"] = {**latency, "n_passes": len(passes)}
    return {
        "setup_s": metric(setup_s, "s"),
        "ok_share": metric((run.attempted - run.failed) / run.attempted,
                           "share"),
        "tasks_per_s": metric(tasks / total, "1/s"),
        "requests_per_s": metric(len(scaled) / total, "1/s"),
        "latency_p50_ms": metric(latency["p50_ms"], "ms"),
        "latency_p90_ms": metric(latency["p90_ms"], "ms"),
        "latency_p99_ms": metric(latency["p99_ms"], "ms"),
        "slo_share": metric(sum(s <= slo_s for s in scaled) / len(scaled),
                            "share"),
    }


def traced_passes(run: Run, one_pass: Callable,
                  extras: Callable = lambda: {}) -> dict:
    """Per-layer metrics: one untraced pass (warm-up and the overhead
    baseline), then the same pass traced.  ``one_pass()`` runs the
    workload's fixed inputs once; ``extras()`` adds figures the workload
    measured itself during the traced pass."""
    from repro import obs

    require_obs_off(obs)
    raw0, scaled0 = run.raw_s, run.scaled_s
    one_pass()
    untraced = run.scaled_s - scaled0
    raw1, scaled1 = run.raw_s, run.scaled_s
    install_program_layers(run.tracer)
    run.tracing_ops = True
    try:
        one_pass()
    finally:
        run.tracing_ops = False
        run.tracer.uninstall()
    require_obs_off(obs)
    traced_raw, traced = run.raw_s - raw1, run.scaled_s - scaled1
    snap = run.tracer.snapshot()
    run.attempted += 1
    run.check("layer balance", check_balance, snap, traced_raw, ROOT_SPAN)
    return layer_metrics(snap, traced / traced_raw, ROOT_SPAN, {
        "trace.overhead_share": 1.0 - untraced / traced,
        "dags.generate.self_s": run.setup_generate_s,
        **extras(),
    })
