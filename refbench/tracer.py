"""Outside-in layer tracing: wraps public functions and methods of the
program from the benchmark's own files.

Each wrapped call is a span.  A span's *self time* is its duration minus
the time covered by the spans it called; spans nest per thread.  Nothing under
``src/`` is edited: :func:`install_program_layers` rebinds module attributes,
registry entries and class attributes, and :meth:`Tracer.uninstall`
restores every one of them.

``repro.obs`` stays off throughout (the benchmark asserts it): with obs
active the heuristics switch to a different, observed driver loop, and
the traced run would no longer measure the code path the untraced runs
time.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

_now = time.perf_counter
_INHERITED = object()


class _ThreadStats:
    __slots__ = ("stack", "calls", "self_s", "root_s", "values", "paused")

    def __init__(self) -> None:
        self.paused = False
        self.stack: list = []
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.root_s = 0.0
        self.values: dict = defaultdict(float)


class Tracer:
    """Span bookkeeping plus the patch table that installs it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._lock = threading.Lock()
        self._patches: list = []
        self.maxima: dict = defaultdict(float)
        self.selector_stats: list = []

    # -- per-thread state ---------------------------------------------
    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadStats()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def add(self, key: str, amount: float = 1.0) -> None:
        """Accumulate a counter or a timed total outside any span."""
        self._stats().values[key] += amount

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        st = self._stats()
        st.paused = True
        try:
            yield
        finally:
            st.paused = False

    # -- spans --------------------------------------------------------
    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             on_exit: Optional[Callable] = None):
        """Run ``fn`` as span ``name``; ``on_exit(result, exc, seconds,
        args)`` runs after the span closed (its cost lands in the
        parent's self time)."""
        st = self._stats()
        if st.paused:
            return fn(*args, **kwargs)
        frame = [0.0]
        st.stack.append(frame)
        result = exc = None
        t0 = _now()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            d = _now() - t0
            st.stack.pop()
            if st.stack:
                st.stack[-1][0] += d
            else:
                st.root_s += d
            st.calls[name] += 1
            st.self_s[name] += d - frame[0]
            if on_exit is not None:
                on_exit(result, exc, d, args)

    def wrap(self, name: str, fn: Callable,
             on_exit: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_exit)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -------------------------------------------------
    def patch_function(self, fn: Callable, name: str,
                       on_exit: Optional[Callable] = None) -> None:
        """Rebind every reference to module-level ``fn`` found in loaded
        ``repro`` modules (``from x import fn`` copies included) and in
        their module-level dict registries."""
        wrapped = self.wrap(name, fn, on_exit)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is fn:
                            self._patches.append((value, key, fn, True))
                            value[key] = wrapped

    def patch_method(self, cls: type, attr: str, name: str,
                     on_exit: Optional[Callable] = None) -> None:
        self._set(cls, attr, self.wrap(name, getattr(cls, attr), on_exit))

    def patch_init(self, cls: type, after: Callable) -> None:
        """Call ``after(instance)`` once ``cls.__init__`` returns."""
        init = cls.__init__

        def registering(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            after(instance)

        self._set(cls, "__init__", registering)

    def _set(self, owner, attr: str, value) -> None:
        # An inherited method is shadowed on the subclass and the shadow
        # deleted again on uninstall.
        original = vars(owner).get(attr, _INHERITED)
        self._patches.append((owner, attr, original, False))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            elif original is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------
    def snapshot(self) -> dict:
        """Totals merged over threads: ``calls``, ``self_s``, ``root_s``,
        free-form ``values`` and ``maxima``."""
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        values: dict = defaultdict(float)
        root_s = 0.0
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            if st.stack:
                raise RuntimeError("snapshot taken with open spans")
            for k, v in st.calls.items():
                calls[k] += v
            for k, v in st.self_s.items():
                self_s[k] += v
            for k, v in st.values.items():
                values[k] += v
            root_s += st.root_s
        for stats in self.selector_stats:
            values["candidates.full_evals"] += stats.n_full_evals
            values["candidates.reused"] += stats.n_reused
            values["candidates.refreshed"] += stats.n_refreshes
        return {"calls": dict(calls), "self_s": dict(self_s),
                "root_s": root_s, "values": dict(values),
                "maxima": dict(self.maxima)}


def install_program_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Call after the workload's modules are imported (``from x import f``
    copies are found by scanning loaded modules)."""
    from importlib import import_module

    from repro.core.memory_profile import MemoryProfile
    from repro.core.validation import validate_schedule
    from repro.online import OnlineSession
    from repro.scheduling import (candidates, memheft, memminmin,
                                  memsufferage, ranks)
    from repro.scheduling.kernel import resolve_backend
    from repro.scheduling.state import (InfeasibleScheduleError,
                                        SchedulerState)
    from repro.service.app import ScheduleCache, ServiceApp

    # memory_profile
    def after_add_batch(result, exc, d, args):
        tracer.note_max("memory_profile.segments_max", args[0].n_segments())

    tracer.patch_method(MemoryProfile, "add_batch",
                        "memory_profile.add_batch", after_add_batch)
    tracer.patch_method(MemoryProfile, "earliest_fit",
                        "memory_profile.earliest_fit")
    tracer.patch_method(MemoryProfile, "compact", "memory_profile.compact")

    # kernel: the resolved backend's own methods (a super() call inside
    # them reaches the unwrapped base method and is not double counted)
    kernel_cls = type(resolve_backend())

    def after_batch(result, exc, d, args):
        tracer.add("kernel.batch_tasks", len(args[2]))

    tracer.patch_method(kernel_cls, "best_est_batch",
                        "kernel.best_est_batch")
    tracer.patch_method(kernel_cls, "evaluate_class_batch",
                        "kernel.evaluate_class_batch", after_batch)
    tracer.patch_method(kernel_cls, "evaluate", "kernel.evaluate")

    # candidates
    for cls in (candidates.MinEFTSelector, candidates.RankSelector,
                candidates.SufferageSelector):
        tracer.patch_init(
            cls, lambda sel: tracer.selector_stats.append(sel.stats))
        tracer.patch_method(cls, "select", "candidates.select")

    # ranks and state
    tracer.patch_function(ranks.rank_order, "ranks.rank_order")
    tracer.patch_method(SchedulerState, "__init__", "state.init")
    tracer.patch_method(SchedulerState, "commit", "state.commit")
    tracer.patch_method(SchedulerState, "finalize", "state.finalize")

    # heuristics: infeasible attempts are wasted work.  HEFT runs through
    # memheft (unbounded), so wrapping the three memory-aware entry points
    # counts every heuristic call exactly once.
    def after_heuristic(result, exc, d, args):
        if isinstance(exc, InfeasibleScheduleError):
            tracer.add("heuristics.infeasible")
            tracer.add("heuristics.infeasible_s", d)

    for fn in (memheft, memminmin, memsufferage):
        tracer.patch_function(fn, "heuristics", after_heuristic)

    # validation, sweep and engine
    tracer.patch_function(validate_schedule,
                          "validation.validate_schedule")
    sweep = import_module("repro.experiments.sweep")
    engine = import_module("repro.experiments.engine")
    tracer.patch_function(sweep.reference_run, "sweep.reference_run")
    tracer.patch_function(sweep.normalized_sweep, "sweep.normalized_sweep")
    tracer.patch_function(engine.map_cells, "engine.map_cells")

    # service and io
    app = import_module("repro.service.app")
    tracer.patch_method(ServiceApp, "handle", "service.handle")
    tracer.patch_function(app.parse_request, "service.parse_request")
    tracer.patch_function(app.request_digest, "service.request_digest")
    tracer.patch_function(app.execute_request, "service.execute_request")

    def after_get(result, exc, d, args):
        tracer.add("service.cache.hits" if result is not None
                   else "service.cache.misses")

    tracer.patch_method(ScheduleCache, "get", "service.cache.get", after_get)
    tracer.patch_method(ScheduleCache, "put", "service.cache.put")
    io = import_module("repro.io.json_io")
    for fn_name in ("graph_from_dict", "schedule_to_dict", "canonical_json"):
        tracer.patch_function(getattr(io, fn_name), f"io.{fn_name}")

    # online
    for method in ("submit", "poll", "flush"):
        tracer.patch_method(OnlineSession, method, f"online.{method}")

    # dags (input generation: set-up only)
    dags = import_module("repro.dags")
    datasets = import_module("repro.dags.datasets")
    online = import_module("repro.online")
    for fn in (dags.random_dag, dags.cholesky_dag, datasets.small_rand_set,
               datasets.large_rand_set, online.poisson_trace):
        tracer.patch_function(fn, "dags.generate")
