"""Scale stress (marked slow): the heuristics must handle paper-scale
inputs in pure Python within sane wall-clock budgets."""

import time

import pytest

from repro import Platform, heft, memheft, validate_schedule
from repro.dags import lu_dag, random_dag
from repro.experiments import MIRAGE_PLATFORM


@pytest.mark.slow
def test_memheft_handles_500_task_graph():
    g = random_dag(size=500, rng=2014,
                   w_range=(1, 100), c_range=(1, 100), f_range=(1, 100))
    plat = Platform(1, 1)
    t0 = time.perf_counter()
    s = memheft(g, plat)
    elapsed = time.perf_counter() - t0
    assert len(s) == 500
    assert elapsed < 60, f"memheft took {elapsed:.1f}s on 500 tasks"
    validate_schedule(g, plat, s)


@pytest.mark.slow
def test_memheft_handles_13x13_lu():
    g = lu_dag(13)  # 2107 tasks, the paper's Figure 14 instance
    plat = Platform(12, 3)
    t0 = time.perf_counter()
    s = memheft(g, plat)
    elapsed = time.perf_counter() - t0
    assert len(s) == g.n_tasks
    assert elapsed < 120, f"memheft took {elapsed:.1f}s on LU 13x13"
    validate_schedule(g, plat, s)


@pytest.mark.slow
def test_memheft_bounded_10k_random_dag():
    """MemHEFT on a 10^4-task random DAG on MIRAGE, bounded at 0.8x the
    HEFT peak, in seconds: memory-profile commits change the staircase
    in place, so a run no longer costs Theta(n^2) in breakpoint copies
    (~17 s with whole-list rebuilds, ~1.5 s in place, on a shared 2-vCPU
    x86 host).

    MemMinMin is left out on purpose: it already takes ~10 s at n = 8000
    (BENCH_scaling.json ``growth``) because its min-min candidate
    selection, not the profile, is the cost there."""
    g = random_dag(size=10_000, rng=10_000,
                   w_range=(1, 100), c_range=(1, 100), f_range=(1, 100))
    ref = heft(g, MIRAGE_PLATFORM)
    plat = MIRAGE_PLATFORM.with_uniform_bound(
        0.8 * max(ref.meta["peak_blue"], ref.meta["peak_red"]))
    t0 = time.perf_counter()
    s = memheft(g, plat)
    elapsed = time.perf_counter() - t0
    assert len(s) == g.n_tasks
    assert elapsed < 8, f"bounded memheft took {elapsed:.1f}s on 10^4 tasks"
    validate_schedule(g, plat, s)
