"""One run of one benchmark workload; the last stdout line is the result.

    python3 perfbench/run.py --workload suite_full --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository: the program is
started from the checkout's ``src/`` with no install or build step.  With
``--trace 0`` the result carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` the same workload runs through the
tracing launcher and the result carries every per-layer metric instead.
Lines before the result report the operations, the workload's own figures
(by name and unit) and, when traced, a per-layer self-time table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import common

WORKLOADS = ("suite_full", "serve_mixed", "sweep_parallel")

#: The end-to-end metrics every workload reports: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "cache_mb": "MB",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(name: str, outcome, trace: bool) -> None:
    """The human-readable lines that precede the result."""
    ops = outcome.ops
    print(f"workload {name}: {outcome.rounds} round(s), "
          f"{ops.attempted} operations attempted, {ops.failed} failed")
    for reason in ops.reasons[:10]:
        print(f"  FAILED: {reason}")
    for metric, (value, unit, samples) in outcome.details.items():
        shown = "refused (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {metric:<22} {shown:>12} {unit:<9} n={samples}")
    if trace and outcome.layers is not None:
        from layers import LAYER_METRICS

        print("  per-layer (self time; totals per round):")
        for metric, (unit, _better) in LAYER_METRICS.items():
            print(f"    {metric:<30} {outcome.layers[metric]:>12.6g} {unit}")
    print("perfbench-e2e: " + json.dumps(outcome.e2e, sort_keys=True))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    module = __import__(args.workload)
    work = common.ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    program = common.Program(common.fresh_dir(work), trace=bool(args.trace))
    try:
        outcome = module.run(args.seed, args.seconds, program)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(Path(work.parent).iterdir()):
            work.parent.rmdir()
    report(args.workload, outcome, bool(args.trace))
    if args.trace:
        from layers import LAYER_METRICS

        metrics = {
            name: {"value": outcome.layers[name], "unit": unit}
            for name, (unit, _better) in LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": outcome.e2e[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.ops.attempted,
        "failed": outcome.ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
