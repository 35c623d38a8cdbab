"""Per-layer metrics of the traced run, built from a tracer snapshot.

Every workload reports every metric; a layer a workload never enters
reads 0.  Self times are totals over one traced pass of the workload's
fixed inputs, converted to reference speed with the pass's own scale
factor, so counts repeat exactly across runs of a seed.
"""

from __future__ import annotations

#: (metric, unit, better).  Order is the report order.
PER_LAYER = [
    ("memory_profile.add_batch.calls", "count", "lower"),
    ("memory_profile.add_batch.self_s", "s", "lower"),
    ("memory_profile.earliest_fit.calls", "count", "lower"),
    ("memory_profile.earliest_fit.self_s", "s", "lower"),
    ("memory_profile.compact.calls", "count", "lower"),
    ("memory_profile.segments_max", "count", "lower"),
    ("kernel.best_est_batch.calls", "count", "lower"),
    ("kernel.best_est_batch.self_s", "s", "lower"),
    ("kernel.evaluate_class_batch.calls", "count", "lower"),
    ("kernel.evaluate_class_batch.self_s", "s", "lower"),
    ("kernel.evaluate.calls", "count", "lower"),
    ("kernel.evaluate.self_s", "s", "lower"),
    ("kernel.batch_size_mean", "count", "higher"),
    ("candidates.select.calls", "count", "lower"),
    ("candidates.select.self_s", "s", "lower"),
    ("candidates.full_evals", "count", "lower"),
    ("candidates.reuse_share", "share", "higher"),
    ("ranks.rank_order.self_s", "s", "lower"),
    ("state.init.calls", "count", "lower"),
    ("state.init.self_s", "s", "lower"),
    ("state.commit.calls", "count", "lower"),
    ("state.commit.self_s", "s", "lower"),
    ("state.finalize.self_s", "s", "lower"),
    ("heuristics.calls", "count", "lower"),
    ("heuristics.self_s", "s", "lower"),
    ("heuristics.infeasible_share", "share", "lower"),
    ("heuristics.infeasible_s", "s", "lower"),
    ("validation.validate_schedule.calls", "count", "lower"),
    ("validation.validate_schedule.self_s", "s", "lower"),
    ("sweep.reference_run.calls", "count", "lower"),
    ("sweep.reference_run.self_s", "s", "lower"),
    ("sweep.normalized_sweep.self_s", "s", "lower"),
    ("engine.map_cells.self_s", "s", "lower"),
    ("service.handle.calls", "count", "lower"),
    ("service.handle.self_s", "s", "lower"),
    ("service.parse_request.self_s", "s", "lower"),
    ("service.request_digest.self_s", "s", "lower"),
    ("service.cache.get.calls", "count", "lower"),
    ("service.cache.get.self_s", "s", "lower"),
    ("service.cache.put.calls", "count", "lower"),
    ("service.cache.put.self_s", "s", "lower"),
    ("service.cache.hit_share", "share", "higher"),
    ("service.execute_request.calls", "count", "lower"),
    ("service.execute_request.self_s", "s", "lower"),
    ("service.hit_p50_ms", "ms", "lower"),
    ("service.miss_p50_ms", "ms", "lower"),
    ("io.graph_from_dict.self_s", "s", "lower"),
    ("io.schedule_to_dict.self_s", "s", "lower"),
    ("io.canonical_json.self_s", "s", "lower"),
    ("online.submit.calls", "count", "lower"),
    ("online.submit.self_s", "s", "lower"),
    ("online.poll.calls", "count", "lower"),
    ("online.poll.self_s", "s", "lower"),
    ("online.flush.calls", "count", "lower"),
    ("online.flush.self_s", "s", "lower"),
    ("online.rounds", "count", "lower"),
    ("online.decisions_per_round", "count", "higher"),
    ("dags.generate.self_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
]

_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_balance(snap: dict, op_raw_s: float, root: str) -> None:
    """Layer self times plus the unattributed remainder (the root span's
    own self time) must add up to the traced operation time."""
    total_self = sum(snap["self_s"].values())
    root_s = snap["root_s"]
    if abs(total_self - root_s) > 1e-6 * max(root_s, 1.0):
        raise AssertionError(f"self times {total_self:.6f}s do not add up "
                             f"to the root spans' {root_s:.6f}s")
    if root not in snap["calls"]:
        raise AssertionError(f"no {root!r} span was recorded")
    if op_raw_s and not (root_s <= op_raw_s * 1.0001
                         and root_s >= op_raw_s * 0.95):
        raise AssertionError(f"root spans cover {root_s:.4f}s of "
                             f"{op_raw_s:.4f}s traced operation time")


def layer_metrics(snap: dict, factor: float, root: str,
                  extras: dict) -> dict:
    """All PER_LAYER metrics.  ``factor`` converts the pass's raw seconds
    to reference speed; ``extras`` supplies figures measured outside the
    tracer (overhead, online rounds, set-up input generation)."""
    calls, self_s = snap["calls"], snap["self_s"]
    values, maxima = snap["values"], snap["maxima"]
    out = {}
    for name, unit, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(span, 0)
        elif field == "self_s" and name not in extras:
            out[name] = self_s.get(span, 0.0) * factor
    reused = values.get("candidates.reused", 0.0)
    refreshed = values.get("candidates.refreshed", 0.0)
    full = values.get("candidates.full_evals", 0.0)
    hits = values.get("service.cache.hits", 0.0)
    out.update({
        "memory_profile.segments_max": maxima.get(
            "memory_profile.segments_max", 0),
        "kernel.batch_size_mean": _ratio(
            values.get("kernel.batch_tasks", 0.0),
            calls.get("kernel.evaluate_class_batch", 0)),
        "candidates.full_evals": full,
        "candidates.reuse_share": _ratio(reused, reused + refreshed + full),
        "heuristics.infeasible_share": _ratio(
            values.get("heuristics.infeasible", 0.0),
            calls.get("heuristics", 0)),
        "heuristics.infeasible_s": values.get(
            "heuristics.infeasible_s", 0.0) * factor,
        "service.cache.hit_share": _ratio(
            hits, hits + values.get("service.cache.misses", 0.0)),
        "trace.unattributed_share": _ratio(self_s.get(root, 0.0),
                                           snap["root_s"]),
        "online.rounds": 0,
        "online.decisions_per_round": 0.0,
        "service.hit_p50_ms": 0.0,
        "service.miss_p50_ms": 0.0,
    })
    out.update(extras)
    missing = set(_UNITS) - set(out)
    if missing:
        raise AssertionError(f"per-layer metrics not produced: {missing}")
    return {name: {"value": out[name], "unit": _UNITS[name]}
            for name, _, _ in PER_LAYER}
