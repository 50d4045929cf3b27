"""Workload ``suite_full``: the cold and warm full-preset suite.

A round is one ``repro run --all --full --cache-dir D`` against an empty
``D`` followed by :data:`WARM_PASSES` warm passes of the same command, each
in a fresh process.  The suite runs at the program's own seed: its shape
checks are the paper's claims, stated for that seed, so ``--seed`` does
not change this workload's inputs.
"""

from __future__ import annotations

import json
import time

from common import Outcome, Program, dir_mb, fresh_dir, load_spans
from layers import experiment_seconds, first_call_delay, layer_metrics
from stats import Ops, median

WARM_PASSES = 2
EXPERIMENT_COUNT = 13


def setup_probe(program: Program, ops: Ops, times: int = 5) -> float:
    """Median wall of ``repro experiments --list``: the process start-up,
    imports and registry walk that every command of the workload pays."""
    walls = []
    for _ in range(times):
        done = program.run(["experiments", "--list"])
        listed = sum(
            1 for line in done.stdout.decode().splitlines() if line[:1] == "E"
        )
        problems = []
        if done.code != 0:
            problems.append(f"--list exited {done.code}")
        if listed != EXPERIMENT_COUNT:
            problems.append(f"--list named {listed} experiments")
        ops.check(problems)
        walls.append(done.wall_s)
    if program.trace:
        load_spans(program.spans_dir)
    return median(walls)


def pass_problems(done, summary_path, reference: bytes | None) -> list[str]:
    """Everything wrong with one suite pass (empty when it is correct)."""
    problems = []
    if done.code != 0:
        problems.append(f"exit code {done.code}: {done.stderr[-300:]}")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"no run summary: {exc}"]
    records = summary.get("records", [])
    if len(records) != EXPERIMENT_COUNT:
        problems.append(f"{len(records)} experiment records")
    for record in records:
        failed_checks = sorted(
            name for name, held in (record.get("checks") or {}).items() if not held
        )
        if record.get("status") != "ok" or not record.get("shape_holds"):
            problems.append(
                f"{record.get('experiment_id')} {record.get('status')} "
                f"(failed checks: {failed_checks})"
            )
    if reference is not None and done.stdout != reference:
        problems.append("stdout differs from the cold pass")
    return problems


def run(seed: int, seconds: float, program: Program) -> Outcome:
    del seed  # the suite reproduces the paper at the program's own seed
    ops = Ops()
    setup_s = setup_probe(program, ops)
    cold, warm, cache, rss = [], [], [], []
    spans, import_delays, overhead = [], [], 0.0
    rounds = 0
    started = time.monotonic()
    while rounds == 0 or time.monotonic() - started < seconds:
        rounds += 1
        cache_dir = fresh_dir(program.work / "cache")
        reference = None
        for index in range(1 + WARM_PASSES):
            summary = program.path("summary.json")
            done = program.run(
                ["run", "--all", "--full", "--cache-dir", str(cache_dir),
                 "--json-summary", str(summary)]
            )
            ops.check(pass_problems(done, summary, reference))
            rss.append(done.peak_rss_mb)
            if index == 0:
                reference = done.stdout
                cold.append(done.wall_s)
                cache.append(dir_mb(cache_dir))
            else:
                warm.append(done.wall_s)
            if program.trace:
                pass_spans = load_spans(program.spans_dir)
                spans.extend(pass_spans)
                delay = first_call_delay(pass_spans, done.launched)
                if delay is not None:
                    import_delays.append(delay)
                overhead += done.wall_s - experiment_seconds(pass_spans)
    e2e = {
        "setup_s": setup_s,
        "cold_s": median(cold),
        "warm_s": median(warm),
        "cache_mb": median(cache),
        "peak_rss_mb": max(rss),
    }
    details = {
        "cold_suite_s": (median(cold), "s", len(cold)),
        "warm_suite_s": (median(warm), "s", len(warm)),
        "cache_mb": (median(cache), "MB", len(cache)),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
    }
    layers = None
    if program.trace:
        layers = layer_metrics(
            spans,
            rounds,
            {
                "process.import_s": median(import_delays) if import_delays else 0.0,
                "runtime.overhead_s": overhead / rounds,
            },
        )
    return Outcome(ops=ops, correct=True, e2e=e2e, details=details,
                   layers=layers, rounds=rounds)
