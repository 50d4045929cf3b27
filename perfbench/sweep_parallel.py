"""Workload ``sweep_parallel``: a full-preset E9 grid over two pool workers.

A round is ``repro sweep E9 --preset full --grid seed=... --workers 2`` on
an empty cache, then :data:`REPLAYS` runs of the same command, which must
replay every point from the cache.  Rounds repeat, each with fresh seeds and a fresh
cache, until the measured seconds are spent.  After the last round two
points of the first are recomputed in this process at one worker with no
cache and compared with what the parallel sweep cached.
"""

from __future__ import annotations

import json
import random
import time

from common import Outcome, Program, dir_mb, fresh_dir, load_spans
from layers import experiment_seconds, first_call_delay, layer_metrics
from stats import Ops, median
from suite_full import setup_probe

EXPERIMENT = "E9"
POINTS = 16  # grid points per round
WORKERS = 2
REPLAYS = 3  # per round: a replay is a quarter-second process, so take several
SAMPLED = 2  # points recomputed in process


def sweep(program: Program, cache_dir, seeds: list[int]):
    summary_path = program.path("sweep.json")
    done = program.run(
        ["sweep", EXPERIMENT, "--preset", "full",
         "--grid", "seed=" + ",".join(map(str, seeds)),
         "--workers", str(WORKERS), "--cache-dir", str(cache_dir),
         "--json-summary", str(summary_path)]
    )
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        summary = {}
    return done, summary


def point_problems(done, summary: dict, from_cache: bool) -> list[list[str]]:
    """One problem list per grid point (all failing when the sweep did)."""
    points = summary.get("points", [])
    if done.code != 0 or len(points) != POINTS:
        whole = f"sweep exit {done.code}, {len(points)} points: {done.stderr[-300:]}"
        return [[whole]] * POINTS
    result = []
    for point in points:
        record = point.get("record", {})
        problems = []
        if record.get("status") != "ok" or not record.get("shape_holds"):
            problems.append(f"{point.get('config_hash', '')[:12]} {record.get('status')}")
        if (point.get("source") == "cache") != from_cache:
            problems.append(f"{point.get('config_hash', '')[:12]} source {point.get('source')}")
        result.append(problems)
    return result


def cached_result(cache_dir, config_hash: str):
    from repro.experiments.sweep import SWEEP_RESULT_KIND, result_cache_config
    from repro.io.artifacts import ArtifactCache

    rows = ArtifactCache(cache_dir).get(
        SWEEP_RESULT_KIND, result_cache_config(EXPERIMENT, config_hash)
    )
    return rows[0]["result"] if rows else None


def recompute_problems(cache_dir, seed: int) -> list[str]:
    """A point recomputed at one worker with no cache must match the cache."""
    from repro.experiments.registry import make_spec
    from repro.runtime.runner import SuiteRunner

    spec = make_spec(EXPERIMENT, "full", seed=seed)
    record = SuiteRunner(workers=1).run_points([spec]).records[0]
    if record.status != "ok":
        return [f"seed {seed}: in-process run {record.status}"]
    expected = json.loads(json.dumps(record.result.to_payload()))
    if cached_result(cache_dir, spec.config_hash()) != expected:
        return [f"seed {seed}: parallel result differs from a 1-worker run"]
    return []


def run(seed: int, seconds: float, program: Program) -> Outcome:
    ops = Ops()
    rng = random.Random(f"sweep_parallel:{seed}")
    setup_s = setup_probe(program, ops)
    cold, warm, cache, rss, busy = [], [], [], [], []
    spans, import_delays, overhead = [], [], 0.0
    first_cache, first_seeds = None, None
    correct = True
    rounds = 0
    started = time.monotonic()
    while rounds == 0 or time.monotonic() - started < seconds:
        rounds += 1
        seeds = rng.sample(range(1, 1_000_000), POINTS)
        cache_dir = fresh_dir(program.work / f"sweep-cache-{rounds}")
        done, summary = sweep(program, cache_dir, seeds)
        for problems in point_problems(done, summary, from_cache=False):
            ops.check(problems)
        cold.append(done.wall_s)
        cache.append(dir_mb(cache_dir))
        rss.append(done.peak_rss_mb)
        if program.trace:
            round_spans = load_spans(program.spans_dir)
            spans.extend(round_spans)
            import_delays.append(first_call_delay(round_spans, done.launched))
            overhead += done.wall_s - experiment_seconds(round_spans) / WORKERS
            durations = [p["record"].get("duration", 0.0) for p in summary.get("points", [])]
            busy.append(sum(durations) / (WORKERS * done.wall_s))

        for _ in range(REPLAYS):
            replay, replay_summary = sweep(program, cache_dir, seeds)
            for problems in point_problems(replay, replay_summary, from_cache=True):
                ops.check(problems)
            correct = correct and summary.get("fingerprint") is not None and (
                replay_summary.get("fingerprint") == summary.get("fingerprint")
            )
            warm.append(replay.wall_s)
            rss.append(replay.peak_rss_mb)
            if program.trace:
                replay_spans = load_spans(program.spans_dir)
                spans.extend(replay_spans)
                import_delays.append(first_call_delay(replay_spans, replay.launched))
        if first_cache is None:
            first_cache, first_seeds = cache_dir, seeds
    for point_seed in first_seeds[:SAMPLED]:
        ops.check(recompute_problems(first_cache, point_seed))

    rate = POINTS / median(cold)
    e2e = {
        "setup_s": setup_s,
        "cold_s": median(cold),
        "warm_s": median(warm),
        "cache_mb": median(cache),
        "peak_rss_mb": max(rss),
    }
    details = {
        "sweep_points_per_s": (rate, "points/s", len(cold)),
        "cold_sweep_s": (median(cold), "s", len(cold)),
        "replay_s": (median(warm), "s", len(warm)),
        "cache_mb": (median(cache), "MB", len(cache)),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
    }
    layers = None
    if program.trace:
        layers = layer_metrics(
            spans,
            rounds,
            {
                "process.import_s": median([d for d in import_delays if d is not None]),
                "runtime.overhead_s": overhead / rounds,
                "runtime.pool_busy_share": median(busy),
            },
        )
    return Outcome(ops=ops, correct=correct, e2e=e2e, details=details,
                   layers=layers, rounds=rounds)
