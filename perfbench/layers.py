"""Per-layer metrics from the spans a traced run recorded.

Each layer's time is its self time: the span's duration minus the wrapped
calls nested directly inside it (see :func:`stats.self_times`), so a
corpus load that generates a corpus is not charged for the generation.
Times and counts are totals per round of the workload; a layer a workload
never enters reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from stats import median, self_times

EXPERIMENTS = [f"E{i}" for i in range(1, 14)]

#: name -> (unit, better), in report order.
LAYER_METRICS = {
    "synthgen.generate_s": ("s", "lower"),
    "synthgen.papers_per_s": ("papers/s", "higher"),
    "corpus.load_s": ("s", "lower"),
    "artifacts.get_s": ("s", "lower"),
    "artifacts.get_calls": ("count", "lower"),
    "artifacts.get_hits": ("count", "higher"),
    "artifacts.read_mb": ("MB", "lower"),
    "artifacts.put_s": ("s", "lower"),
    "artifacts.put_calls": ("count", "lower"),
    "artifacts.write_mb": ("MB", "lower"),
    "methods_detect.detect_s": ("s", "lower"),
    "methods_detect.texts_per_s": ("texts/s", "higher"),
    **{f"experiment.{e}.run_s": ("s", "lower") for e in EXPERIMENTS},
    "netsim.community.study_s": ("s", "lower"),
    "netsim.transport.study_s": ("s", "lower"),
    "netsim.bgp.study_s": ("s", "lower"),
    "process.import_s": ("s", "lower"),
    "runtime.overhead_s": ("s", "lower"),
    "runtime.pool_busy_share": ("share", "higher"),
    "runtime.pool_rebuilds": ("count", "lower"),
    "serve.hot.server_p50_ms": ("ms", "lower"),
    "serve.mixed.server_p50_ms": ("ms", "lower"),
    "serve.compute_p50_ms": ("ms", "lower"),
    "serve.queue_wait_p50_ms": ("ms", "lower"),
    "serve.compute_jobs": ("count", "lower"),
    "serve.hits": ("count", "higher"),
    "serve.misses": ("count", "lower"),
}


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def experiment_seconds(spans: list[dict]) -> float:
    """Wall time inside experiment ``run`` calls (children included)."""
    return sum(duration(s) for s in spans if s["name"].startswith("experiment."))


def first_call_delay(spans: list[dict], launched: float) -> float | None:
    """Process start to its (or its workers') first layer call."""
    if not spans:
        return None
    return min(s["start"] for s in spans) - launched


def layer_metrics(spans: list[dict], rounds: int = 1,
                  measured: dict | None = None) -> dict:
    """Every :data:`LAYER_METRICS` entry from ``spans``.

    ``measured`` supplies the metrics a workload takes from outside the
    spans (``process.import_s``, ``runtime.overhead_s``, the pool share,
    the serve figures); any layer nobody measured reads 0.
    """
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    wall_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    papers = hits = read_bytes = write_bytes = 0
    for span in spans:
        name = span["name"]
        self_s[name] += own[span["id"]]
        wall_s[name] += duration(span)
        calls[name] += 1
        if name == "synthgen.generate":
            papers += span.get("papers", 0)
        elif name == "artifacts.get" and span.get("hit"):
            hits += 1
            read_bytes += span["bytes"]
        elif name == "artifacts.put" and "bytes" in span:
            write_bytes += span["bytes"]

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    per_round = {
        "synthgen.generate_s": wall_s["synthgen.generate"],
        "corpus.load_s": self_s["corpus.load"],
        "artifacts.get_s": wall_s["artifacts.get"],
        "artifacts.get_calls": calls["artifacts.get"],
        "artifacts.get_hits": hits,
        "artifacts.read_mb": read_bytes / 1e6,
        "artifacts.put_s": wall_s["artifacts.put"],
        "artifacts.put_calls": calls["artifacts.put"],
        "artifacts.write_mb": write_bytes / 1e6,
        "methods_detect.detect_s": wall_s["methods_detect.detect"],
        **{
            f"experiment.{e}.run_s": self_s[f"experiment.{e}"]
            for e in EXPERIMENTS
        },
        "netsim.community.study_s": self_s["netsim.community.study"],
        "netsim.transport.study_s": self_s["netsim.transport.study"],
        "netsim.bgp.study_s": self_s["netsim.bgp.study"],
        "runtime.pool_rebuilds": calls["runtime.pool_rebuild"],
    }
    metrics = {name: 0.0 for name in LAYER_METRICS}
    metrics.update({name: value / rounds for name, value in per_round.items()})
    metrics["synthgen.papers_per_s"] = rate(papers, wall_s["synthgen.generate"])
    metrics["methods_detect.texts_per_s"] = rate(
        calls["methods_detect.detect"], wall_s["methods_detect.detect"]
    )
    for name, value in (measured or {}).items():
        if name not in LAYER_METRICS:
            raise KeyError(f"unknown layer metric {name}")
        metrics[name] = value
    return metrics


def serve_figures(spans: list[dict], phases: dict[str, list[tuple[float, float]]],
                  hot_paths: set[str]) -> dict:
    """Server-side serve figures from a traced server's spans.

    ``phases`` maps ``hot``/``mixed`` to their ``(start, end)`` monotonic
    windows; ``hot_paths`` are the request paths of the hot key set.
    """
    respond = defaultdict(list)
    for span in spans:
        if span["name"] != "serve.respond" or span.get("path") not in hot_paths:
            continue
        for phase, windows in phases.items():
            if any(start <= span["start"] and span["end"] <= end for start, end in windows):
                respond[phase].append(duration(span) * 1e3)
    submitted: dict[str, float] = {}
    for span in sorted(spans, key=lambda s: s["start"]):
        if span["name"] == "serve.submit" and "key" in span:
            submitted.setdefault(span["key"], span["start"])
    computes = [s for s in spans if s["name"] == "serve.compute"]
    waits = [
        (s["start"] - submitted[s["key"]]) * 1e3
        for s in computes
        if s.get("key") in submitted
    ]
    figures = {}
    for phase in ("hot", "mixed"):
        if respond[phase]:
            figures[f"serve.{phase}.server_p50_ms"] = median(respond[phase])
    if computes:
        figures["serve.compute_p50_ms"] = median(
            [duration(s) * 1e3 for s in computes]
        )
    if waits:
        figures["serve.queue_wait_p50_ms"] = median(waits)
    return figures
