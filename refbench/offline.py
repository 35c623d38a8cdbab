"""In-process offline workloads: ``offline-large`` and ``paper-sweep``.

Both run single-threaded with ``jobs=1``: the host has two shared cores,
and a worker pool would measure the host's scheduler, not the program.
"""

from __future__ import annotations

import statistics

from common import (Run, end_to_end, metric, run_segmented, timed_passes,
                    traced_passes)
# Program entry points the timed and traced code calls are reached through
# their modules, so the traced pass's wrappers apply.
import repro.dags as dags
import repro.experiments as experiments
from repro.core.validation import validate_schedule
from repro.experiments import (MIRAGE_PLATFORM, RAND_PLATFORM,
                               default_alphas, reference_run)
from repro.scheduling.registry import get_scheduler
from repro.scheduling.state import InfeasibleScheduleError

# -- offline-large --------------------------------------------------------
#: Random DAGs per run, their size, and the Cholesky tile count (2041
#: tasks): large enough that the Θ(n²) profile commit dominates, small
#: enough that a run times every call twice.  With 3000-task DAGs and 20
#: tiles (3991 tasks) a pass took about 18 s, so a run timed each call
#: once, and over five seeds the slowest call's spread (interquartile
#: distance over the median) was 0.13-0.24.
LARGE_RANDOM = 2
LARGE_SIZE = 2000
CHOLESKY_TILES = 16
#: Memory bound as a share of the HEFT peak.
BOUND_SHARE = 0.8
LARGE_HEURISTICS = ("memheft", "memminmin", "memsufferage")
#: Latency limit of one heuristic call, seconds at reference speed.
LARGE_SLO_S = 10.0


def _large_inputs(seed: int) -> list:
    graphs = [dags.random_dag(size=LARGE_SIZE, width=0.3, density=0.5,
                              jumps=5, rng=seed * 1000 + k, w_range=(1, 100),
                              c_range=(1, 100), f_range=(1, 100))
              for k in range(LARGE_RANDOM)]
    graphs.append(dags.cholesky_dag(CHOLESKY_TILES))
    out = []
    for graph in graphs:
        ref = reference_run(graph, MIRAGE_PLATFORM)
        bounded = MIRAGE_PLATFORM.with_uniform_bound(
            BOUND_SHARE * ref.ref_memory)
        out.append((graph, bounded, ref.makespan))
    return out


def _call(name, graph, platform):
    # Looked up per call, so the traced pass reaches the wrapped entry.
    try:
        return get_scheduler(name)(graph, platform)
    except InfeasibleScheduleError:
        return None


def offline_large(run: Run, seed: int, seconds: float) -> dict:
    inputs, setup_s = run.timed_setup(lambda _: _large_inputs(seed))
    ops = [((gi, name), graph, bounded, name)
           for gi, (graph, bounded, _) in enumerate(inputs)
           for name in LARGE_HEURISTICS]
    first: dict = {}

    def one_pass() -> list:
        scaled_s = []
        for key, graph, bounded, name in ops:
            run.attempted += 1
            try:
                schedule, scaled = run.timed_unit(
                    lambda: _call(name, graph, bounded))
            except Exception as exc:  # noqa: BLE001
                run.fail(f"offline-large {key}", exc)
                continue
            scaled_s.append(scaled)
            # Outside the timed region: validate, then pin the outcome
            # against the first pass (the heuristics are deterministic).
            outcome = None if schedule is None else schedule.makespan
            ok = run.check(f"validate {key}", lambda: schedule is None
                           or validate_schedule(graph, bounded, schedule))
            if ok and first.setdefault(key, outcome) != outcome:
                run.fail(f"offline-large {key}: makespan {outcome} differs "
                         f"from the first pass's {first[key]}")
        return scaled_s

    if run.tracer is not None:
        return traced_passes(run, one_pass)

    passes = timed_passes(one_pass, seconds)
    ratios = [first[(gi, name)] / inputs[gi][2]
              for gi in range(len(inputs)) for name in LARGE_HEURISTICS
              if first.get((gi, name)) is not None]
    tasks = len(passes) * sum(graph.n_tasks for _, graph, _, _ in ops)
    return {
        **end_to_end(run, setup_s, passes, tasks, LARGE_SLO_S),
        "makespan_ratio": metric(statistics.fmean(ratios), "ratio"),
        "feasible_share": metric(len(ratios) / len(ops), "share"),
    }


# -- paper-sweep ----------------------------------------------------------
#: Figures 10 and 12: SmallRandSet DAGs of 30 tasks and LargeRandSet DAGs
#: of 150 tasks (weights 1-100).  The paper's SmallRandSet has 50 DAGs;
#: 85 here so that a pass has 100 operations, the fewest a p90 is taken
#: over.  More LargeRandSet DAGs would not fit two passes in a run.
SMALL_GRAPHS, LARGE_GRAPHS = 85, 15
SWEEP_ALGORITHMS = ("memheft", "memminmin")
SWEEP_ALPHAS = default_alphas(10)
#: Latency limit of one graph's sweep, seconds at reference speed.
SWEEP_SLO_S = 1.0


def _sweep_inputs(seed: int) -> list:
    graphs = (dags.small_rand_set(SMALL_GRAPHS, seed=seed)
              + dags.large_rand_set(LARGE_GRAPHS, seed=seed + 1))
    return [(g, reference_run(g, RAND_PLATFORM)) for g in graphs]


def _cross_check(graph, ref, result, alpha) -> None:
    """Recompute one alpha of a graph's sweep directly from the heuristics
    and compare it with the SweepResult cells."""
    bounded = RAND_PLATFORM.with_uniform_bound(alpha * ref.ref_memory)
    for name in SWEEP_ALGORITHMS:
        cell = result.cell(alpha, name)
        try:
            schedule = get_scheduler(name)(graph, bounded)
        except InfeasibleScheduleError:
            if cell.n_success != 0:
                raise AssertionError(f"{name} alpha={alpha}: sweep says "
                                     f"feasible, direct call does not")
            continue
        validate_schedule(graph, bounded, schedule)
        norm = schedule.makespan / ref.makespan
        if cell.n_success != 1 or cell.mean_norm_makespan != norm:
            raise AssertionError(
                f"{name} alpha={alpha}: sweep cell {cell} != direct {norm}")


def paper_sweep(run: Run, seed: int, seconds: float) -> dict:
    inputs, setup_s = run.timed_setup(lambda _: _sweep_inputs(seed))
    first: dict = {}
    n_calls = len(SWEEP_ALGORITHMS) * len(SWEEP_ALPHAS) + 1   # + HEFT
    counter = [0]

    def make_op(gi, graph):
        def op():
            return experiments.normalized_sweep(
                [graph], RAND_PLATFORM, SWEEP_ALGORITHMS, SWEEP_ALPHAS,
                check=True, jobs=1)
        return (gi, op)

    ops = [make_op(gi, g) for gi, (g, _) in enumerate(inputs)]

    def on_result(gi, result, exc):
        if exc is not None:
            return False
        graph, ref = inputs[gi]
        cells = [(c.alpha, c.algorithm, c.n_success, c.mean_norm_makespan)
                 for c in result.cells]
        if len(cells) != len(SWEEP_ALPHAS) * len(SWEEP_ALGORITHMS):
            raise AssertionError(f"graph {gi}: {len(cells)} sweep cells")
        if first.setdefault(gi, cells) != cells:
            raise AssertionError(f"graph {gi}: sweep differs between passes")
        # One alpha per operation, rotating, is recomputed directly.
        alpha = SWEEP_ALPHAS[counter[0] % len(SWEEP_ALPHAS)]
        counter[0] += 1
        _cross_check(graph, ref, result, alpha)
        return True

    if run.tracer is not None:
        return traced_passes(run, lambda: run_segmented(run, ops, on_result))

    passes = timed_passes(lambda: run_segmented(run, ops, on_result),
                          seconds)
    norms = [c[3] for cells in first.values() for c in cells if c[2]]
    attempts = sum(len(cells) for cells in first.values())
    tasks = len(passes) * n_calls * sum(g.n_tasks for g, _ in inputs)
    return {
        **end_to_end(run, setup_s, passes, tasks, SWEEP_SLO_S),
        "makespan_ratio": metric(statistics.fmean(norms), "ratio"),
        "feasible_share": metric(len(norms) / attempts, "share"),
    }

