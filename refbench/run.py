"""Run one workload of the repository benchmark and print its metrics.

    python3 refbench/run.py --workload offline-large --seed 1 --seconds 20 --trace 0

``--trace 0`` times the untraced program and prints the end-to-end
metrics; ``--trace 1`` runs the workload's fixed inputs once untraced and
once with every layer wrapped, and prints the per-layer metrics.  The last
line of standard output is the JSON result; the lines before it are run
context (environment, raw times, scale factors, steal time), not metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("offline-large", "paper-sweep", "service-mix",
             "online-immediate")


def _workload(name: str):
    if name == "offline-large":
        from offline import offline_large
        return offline_large
    if name == "paper-sweep":
        from offline import paper_sweep
        return paper_sweep
    if name == "service-mix":
        from service import service_mix
        return service_mix
    from online import online_immediate
    return online_immediate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.prepare_environment()
    env = common.warm_environment()
    run = common.Run(trace=bool(args.trace))
    metrics = _workload(args.workload)(run, args.seed, args.seconds)
    common.check_backend()

    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "env": env,
               "raw_op_s": run.raw_s, "scaled_op_s": run.scaled_s,
               **run.context, **run.scaler.context()}
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
