"""``online-immediate``: one seeded Poisson arrival stream replayed through
an :class:`~repro.online.OnlineSession` under the ``immediate`` policy.

One operation is one arrival's planning decision: ``submit`` plus the
``poll`` that plans it, as the service's ``/jobs`` endpoint does.  A run
replays the whole stream as often as its time allows; every replay must
produce a byte-identical decision journal.
"""

from __future__ import annotations

from common import (Run, end_to_end, metric, run_segmented, timed_passes,
                    traced_passes)
import repro.online as online
from repro.core.platform import Platform
from repro.io.json_io import graph_from_dict
from repro.online import OnlineSession, clairvoyant_makespan

#: The CI online workload's platform and stream shape: two processors per
#: class, capacities roomy enough that the clairvoyant baseline is not
#: memory-starved.  Releases are not quantised, so each arrival plans in
#: its own round.  1000 arrivals, the fewest a p99 is taken over.
PLATFORM = Platform(n_blue=2, n_red=2, mem_blue=20000, mem_red=20000)
ARRIVALS = 1000
RATE = 2.0
JOB_SIZE = 12
POLICY = "immediate"
#: Decision latency limit, seconds at reference speed (the CI online
#: gate's 50 ms).
SLO_S = 0.050


def _inputs(seed: int) -> list:
    trace = online.poisson_trace(ARRIVALS, seed=seed, rate=RATE,
                                 size=JOB_SIZE, width=0.4, density=0.5,
                                 jumps=3)
    return [(row["job"], graph_from_dict(row["graph"]), row["release"])
            for row in trace]


def online_immediate(run: Run, seed: int, seconds: float) -> dict:
    jobs, setup_s = run.timed_setup(lambda _: _inputs(seed))
    reference: dict = {}
    tasks_per_replay = sum(g.n_tasks for _, g, _ in jobs)
    rounds: list = []

    def replay() -> list:
        session = OnlineSession(PLATFORM, policy=POLICY)

        def make_op(job_id, graph, release, last):
            def op():
                session.submit(graph, release=release, job_id=job_id)
                planned = session.poll(release)
                # The stream's end: plan anything a policy held back
                # (nothing, under immediate).
                return planned + session.flush() if last else planned
            return (job_id, op)

        def on_result(job_id, planned, exc):
            return exc is None and job_id in planned

        ops = [make_op(*job, last=k == len(jobs) - 1)
               for k, job in enumerate(jobs)]
        scaled = run_segmented(run, ops, on_result)
        rounds.append(len(session.rounds))
        with run.quiet():
            journal = session.journal()
            reference.setdefault("makespan", session.makespan)
            reference.setdefault("planned", sum(
                j.placements is not None for j in session.jobs.values()))
        run.attempted += 1
        if reference.setdefault("journal", journal) != journal:
            run.fail("online journal differs from the first replay's")
        return scaled

    if run.tracer is not None:
        return traced_passes(run, replay, lambda: {
            "online.rounds": rounds[-1],
            "online.decisions_per_round": len(jobs) / rounds[-1]})

    passes = timed_passes(replay, seconds)
    # The clairvoyant baseline: the offline heuristic over the whole
    # stream, release times relaxed (untimed, deterministic per seed).
    session = OnlineSession(PLATFORM, policy=POLICY)
    for job_id, graph, release in jobs:
        session.submit(graph, release=release, job_id=job_id)
    ordered = sorted(session.jobs.values(), key=lambda j: j.arrival_index)
    clairvoyant = clairvoyant_makespan(ordered, PLATFORM)
    return {
        **end_to_end(run, setup_s, passes, len(passes) * tasks_per_replay,
                     SLO_S),
        "makespan_ratio": metric(reference["makespan"] / clairvoyant,
                                 "ratio"),
        "feasible_share": metric(reference["planned"] / len(jobs), "share"),
    }
