"""``service-mix``: the scheduling service's ``/schedule`` request handling
under a mix of repeated and never-seen requests.

The requests go through :meth:`repro.service.app.ServiceApp.handle`, the
transport-independent entry point the HTTP server's executor threads
call, in this process.  A hot set of requests repeats and becomes cache
hits answered through the raw-body index, which skips parsing and the
scheduler; a fixed share of never-seen requests misses and goes through
parse, digest, schedule, validate, serialize and cache write.  A
never-seen request is one of a few base graphs under a new name: a new
cache key whose scheduling work equals its base graph's.

The mix is synthetic.  No recorded ``/schedule`` traffic exists to take
it from: the 12% never-seen share, the 16-graph hot set and the
1000-request pass are choices, not measurements.  A miss costs close to a
thousand times a hit, so the share largely sets ``requests_per_s``,
``tasks_per_s`` and the p90/p99 here.  The hit path and the miss path
are therefore also reported on their own: their latency percentiles with
sample counts in the run context, and their p50s as per-layer metrics
(``service.hit_p50_ms``, ``service.miss_p50_ms``) from the traced run's
untraced pass.

Why not over HTTP: with ``memsched serve -w 1`` in its own process, the
hit path's latency is dominated by wake-ups of idle virtual CPUs, and on
a shared 2-vCPU host those wait for the hypervisor.  Measured there, the
open loop's hit-path median moved between 1.4 and 14 ms from one
50-request segment to the next, tracking /proc/stat steal time rather
than the reference loop; over five seeds the closed loop's p50 spread
0.83 and its p99 0.41 (interquartile distance over the median).  The
in-process mix measures the same service layers without the transport.
"""

from __future__ import annotations

import json
import random
import statistics

from common import (Run, end_to_end, latency_summary, metric,
                    op_latencies_ms, run_segmented, timed_passes,
                    traced_passes)
import repro.dags as dags
from repro.core.validation import validate_schedule
from repro.experiments import MIRAGE_PLATFORM, reference_run
from repro.io.json_io import (graph_to_dict, platform_to_dict,
                              schedule_from_dict)
from repro.service.app import ServiceApp

GRAPH_SIZE = 200
HOT = 16
BASES = 16
#: Share of never-seen requests, spread evenly over each pass (a synthetic
#: choice, see above).  Above 10%, so the p90 latency sits among the
#: misses rather than on the boundary between hits and misses.
MISS_SHARE = 0.12
BOUND_SHARE = 0.8
#: Requests per pass; a run repeats passes while its time allows.
PASS_REQUESTS = 1000
#: Latency limit, seconds at reference speed.
SLO_S = 0.100


def _name(kind: str, k: int) -> str:
    # Fixed width, so a never-seen request is its base body with the name
    # bytes swapped in place.
    return f"svc-{kind}-{k:08d}"


class Inputs:
    """Hot and base graphs with their bounded platforms and bodies; an
    infeasible candidate is replaced by the next one, deterministically."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.candidates = [self._candidate(k) for k in range(HOT + BASES)]
        self.tried = HOT + BASES

    def _candidate(self, k: int) -> dict:
        graph = dags.random_dag(size=GRAPH_SIZE, width=0.3, density=0.5,
                                jumps=5, rng=self.seed * 100003 + k,
                                w_range=(1, 100), c_range=(1, 100),
                                f_range=(1, 100))
        graph.name = _name("base", k)
        ref = reference_run(graph, MIRAGE_PLATFORM)
        platform = MIRAGE_PLATFORM.with_uniform_bound(
            BOUND_SHARE * ref.ref_memory)
        body = json.dumps({"graph": graph_to_dict(graph),
                           "platform": platform_to_dict(platform),
                           "algorithm": "memheft"}).encode()
        return {"graph": graph, "platform": platform, "body": body,
                "heft_makespan": ref.makespan, "name": graph.name}

    def replace(self, index: int) -> None:
        self.candidates[index] = self._candidate(self.tried)
        self.tried += 1

    def body(self, item: tuple) -> bytes:
        kind, k = item
        if kind == "hot":
            return self.candidates[k]["body"]
        base = self.candidates[HOT + k % BASES]
        return base["body"].replace(base["name"].encode(),
                                    _name("fresh", k).encode())


def request_plan(seed: int, n: int, first_fresh: int) -> list:
    """``n`` requests, ``("hot", i)`` or ``("fresh", f)``.  Misses recur
    at an exact share and the hot sequence depends on the seed only, so
    every pass of a run does the same work."""
    rng = random.Random(seed)
    plan, fresh = [], first_fresh
    for k in range(n):
        if int((k + 1) * MISS_SHARE) > int(k * MISS_SHARE):
            plan.append(("fresh", fresh))
            fresh += 1
        else:
            plan.append(("hot", rng.randrange(HOT)))
    return plan


def _validate(cand: dict, response: dict) -> None:
    schedule = schedule_from_dict(response["schedule"])
    validate_schedule(cand["graph"], cand["platform"], schedule)
    if schedule.makespan != response["makespan"]:
        raise AssertionError("response makespan differs from its schedule's")


class Mix:
    """One service instance, warmed with every hot and base request."""

    def __init__(self, seed: int) -> None:
        self.inputs = Inputs(seed)
        self.app = ServiceApp(workers=1)
        self.expected: dict = {}
        self.makespans: dict = {}
        #: Makespan over unbounded HEFT, per hot and base graph.
        self.ratios: list = []
        #: One feasibility flag per candidate graph tried.
        self.outcomes: list = []
        for index in range(HOT + BASES):
            while True:
                cand = self.inputs.candidates[index]
                status, _, data = self.app.handle("POST", "/schedule",
                                                  cand["body"])
                self.outcomes.append(status == 200)
                if status == 200:
                    break
                if status != 422:
                    raise RuntimeError(f"warm-up answered {status}: "
                                       f"{data[:200]!r}")
                self.inputs.replace(index)
            response = json.loads(data)
            _validate(cand, response)
            self.ratios.append(response["makespan"] / cand["heft_makespan"])
            self.expected[index] = data
            self.makespans[index] = response["makespan"]

    def close(self) -> None:
        self.app.close()

    def op(self, item: tuple):
        body = self.inputs.body(item)
        return (item, lambda: self.app.handle("POST", "/schedule", body))

    def check(self, item: tuple, result, exc) -> bool:
        """Anything but a 200 with the expected body fails."""
        if exc is not None:
            return False
        status, headers, data = result
        if status != 200:
            raise AssertionError(f"{item}: status {status}: {data[:200]!r}")
        kind, k = item
        if kind == "hot":
            if headers.get("X-Cache") != "hit" or data != self.expected[k]:
                raise AssertionError(f"{item}: hit body differs from the "
                                     f"first response")
            return True
        if headers.get("X-Cache") != "miss":
            raise AssertionError(f"{item}: never-seen request was not a miss")
        response = json.loads(data)
        base = HOT + k % BASES
        _validate(self.inputs.candidates[base], response)
        if response["makespan"] != self.makespans[base]:
            raise AssertionError(f"{item}: makespan differs from its base "
                                 f"graph's")
        return True


def service_mix(run: Run, seed: int, seconds: float) -> dict:
    def build(last):
        if last is not None:
            last.close()
        return Mix(seed)

    mix, setup_s = run.timed_setup(build)
    kinds = [kind for kind, _ in request_plan(seed, PASS_REQUESTS, 0)]
    misses_per_pass = kinds.count("fresh")
    passes: list = []

    def one_pass() -> list:
        plan = request_plan(seed, PASS_REQUESTS, len(passes) * misses_per_pass)
        passes.append(run_segmented(run, [mix.op(item) for item in plan],
                                    mix.check))
        return passes[-1]

    def by_path(of_passes: list) -> dict:
        """Hit-path and miss-path latency summaries, apart."""
        ms = op_latencies_ms(of_passes)
        return {f"{path}_latency": latency_summary(
                    [t for t, kind in zip(ms, kinds) if kind == want])
                for path, want in (("hit", "hot"), ("miss", "fresh"))}

    try:
        if run.tracer is not None:
            return _traced(run, one_pass, misses_per_pass,
                           lambda: by_path(passes[:1]))
        timed_passes(one_pass, seconds)
    finally:
        mix.close()
    run.context.update(by_path(passes))
    return {
        **end_to_end(run, setup_s, passes,
                     len(passes) * misses_per_pass * GRAPH_SIZE, SLO_S),
        "makespan_ratio": metric(statistics.fmean(mix.ratios), "ratio"),
        "feasible_share": metric(sum(mix.outcomes) / len(mix.outcomes),
                                 "share"),
    }


def _traced(run: Run, one_pass, misses_per_pass: int, untraced_paths) -> dict:
    """Per-layer metrics, plus the hit and miss p50s of the untraced pass
    that precedes the traced one."""
    def extras() -> dict:
        paths = untraced_paths()
        return {"service.hit_p50_ms": paths["hit_latency"]["p50_ms"],
                "service.miss_p50_ms": paths["miss_latency"]["p50_ms"]}

    layers = traced_passes(run, one_pass, extras)
    # The traced pass's cache hits must be exactly the plan's hot share.
    hit_share = layers["service.cache.hit_share"]["value"]
    expected = 1.0 - misses_per_pass / PASS_REQUESTS
    run.attempted += 1
    if abs(hit_share - expected) > 1e-12:
        run.fail(f"cache hit share {hit_share} differs from the plan's "
                 f"{expected}")
    return layers
