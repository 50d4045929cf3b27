"""Steadiness and tracing-overhead checks for the benchmark.

    python3 perfbench/compare.py steady [--runs 10] [--workload NAME ...]
    python3 perfbench/compare.py overhead [--runs 3] [--workload NAME ...]

``steady`` makes two sets of ``--runs`` untraced runs of the same code,
alternating between the sets, every run with its own seed.  For each
workload and end-to-end metric it prints each set's median and quartiles
and whether the sets agree: each set's interquartile spread within the
metric's bound (``setup_s`` excepted), the second median no worse than the
first by more than the bound, and the same share of failed operations.

``overhead`` runs each workload untraced and traced and prints, for every
end-to-end metric, how far the traced median lies from the untraced one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run: its result line plus the untraced-form metrics."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("perfbench-e2e: "):
            result["e2e"] = json.loads(line[len("perfbench-e2e: "):])
    return result


def steady(bench: dict, workloads: list[str], runs: int) -> bool:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    all_agree = True
    for workload in workloads:
        sets = ([], [])
        for i in range(runs):
            for side in (0, 1):
                seed = 1 + 2 * i + side
                sets[side].append(one_run(workload, seed, bench["run_seconds"], 0))
        shares = [
            {r["failed"] / r["attempted"] for r in results} for results in sets
        ]
        print(f"\n{workload}: failed share per run, set A {sorted(shares[0])}, "
              f"set B {sorted(shares[1])}")
        if len(shares[0] | shares[1]) != 1:
            all_agree = False
        print(f"  {'metric':<12} {'set':<3} {'q1':>11} {'median':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for name, metric in bounds.items():
            values = [[r["e2e"][name] for r in results] for results in sets]
            bound = metric["bound"]
            lower = metric["better"] == "lower"
            mid = [quartiles(v)[1] for v in values]
            drift = (mid[1] - mid[0]) / mid[0] if lower else (mid[0] - mid[1]) / mid[0]
            ok = drift <= bound
            for side, label in ((0, "A"), (1, "B")):
                q1, m, q3 = quartiles(values[side])
                s = spread(values[side])
                if name != "setup_s":
                    ok = ok and s <= bound
                print(f"  {name:<12} {label:<3} {q1:>11.6g} {m:>11.6g} {q3:>11.6g} "
                      f"{s:>7.3f} {bound:>6.2f}")
            verdict = "agree" if ok else "DISAGREE"
            if ok and name != "setup_s" and max(map(spread, values)) > bound / 3:
                verdict += " (spread above a third of the bound)"
            print(f"  {name:<12} B vs A median {drift:+.3f} (worse is +): {verdict}")
            all_agree = all_agree and ok
    return all_agree


def overhead(bench: dict, workloads: list[str], runs: int) -> None:
    for workload in workloads:
        plain, traced = [], []
        for i in range(runs):
            plain.append(one_run(workload, 101 + i, bench["run_seconds"], 0)["e2e"])
            traced.append(one_run(workload, 101 + i, bench["run_seconds"], 1)["e2e"])
        print(f"\n{workload}: tracing overhead over {runs} run pairs")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = median([r[name] for r in plain])
            t = median([r[name] for r in traced])
            print(f"  {name:<12} untraced {p:>11.6g}  traced {t:>11.6g}  "
                  f"{(t - p) / p:+.1%}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("steady", "overhead"))
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    if args.mode == "steady":
        return 0 if steady(bench, workloads, args.runs or 10) else 1
    overhead(bench, workloads, args.runs or 3)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
