"""The benchmark's steadiness self-check.

Runs one or more workloads over a list of seeds, twice back to back (two
"sets"), and reports for every end-to-end metric the per-set median,
quartiles and spread (interquartile distance over the median), and the
shift of the second set's median against the first.  It fails when a
spread or a worsening median shift exceeds the metric's bound in
``BENCHMARK.json``, or when a deterministic metric differs between the
two runs of one seed.

    python3 refbench/steady.py --workloads paper-sweep --seeds 1-5
    python3 refbench/steady.py --sets 1 --seeds 1-10       # all workloads
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Metrics that must repeat exactly for a seed.
DETERMINISTIC = ("makespan_ratio", "feasible_share")


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "refbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"] if len(lines) > 1 else {}
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect:\n"
                           f"{proc.stderr[-2000:]}")
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "context": context}


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = {}
            for seed in _seeds(args.seeds):
                runs[seed] = run_once(workload, seed, args.seconds)
                ctx, values = runs[seed]["context"], runs[seed]["metrics"]
                print(f"# {workload} set {s + 1} seed {seed}: ref "
                      f"{ctx.get('ref_loop_ms_median', 0):.2f} ms, steal "
                      f"{ctx.get('steal_s_delta', 0):.2f} s | "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                      flush=True)
            sets.append(runs)
        print(f"\n== {workload}")
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'shift':>7}")
        for name, m in bounds.items():
            stats = [summarize([r["metrics"][name] for r in runs.values()])
                     for runs in sets]
            first = stats[0]
            shift = 0.0
            if len(stats) == 2 and first["median"]:
                shift = stats[1]["median"] / first["median"] - 1.0
                if m["better"] == "higher":
                    shift = -shift
            worst_spread = max(st["spread"] for st in stats)
            flag = ""
            if worst_spread > m["bound"]:
                flag, ok = " SPREAD", False
            if shift > m["bound"]:
                flag, ok = flag + " SHIFT", False
            if worst_spread > m["bound"] / 3:
                flag += " (>bound/3)"
            if name in DETERMINISTIC and len(sets) == 2:
                for seed in sets[0]:
                    if (sets[0][seed]["metrics"][name]
                            != sets[1][seed]["metrics"][name]):
                        flag, ok = flag + f" NONDET(seed {seed})", False
            print(f"{name:<16} {first['median']:>12.5g} {first['q1']:>12.5g} "
                  f"{first['q3']:>12.5g} {worst_spread:>7.3f} "
                  f"{m['bound']:>6.2f} {shift:>+7.3f}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
