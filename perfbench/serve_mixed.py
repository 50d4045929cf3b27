"""Workload ``serve_mixed``: hot cache reads, cold computes, then both.

One ``repro serve`` process with its default settings, and at most two
client threads in a closed loop (each sends its next request when the
previous answer has arrived).  Set-up starts the server on an empty cache
and computes the hot key set; it is done :data:`SETUPS` times, each on a
fresh cache, and the last server is measured.  Three phases follow, and
take turns in :data:`SLICES` slices so that each samples the whole run (on
this box the speed drifts by a fifth over a few seconds):

- hot: one client reads hot keys;
- cold: one client sends E9 fast requests for fresh seeds, one after
  another, so every request is a compute;
- mixed: one client keeps sending cold requests while the other reads hot
  keys, so hot reads share the server process with a compute.

The hot and cold phases use one client each: with two clients on two
cores, the hit latency also holds the wait behind the other client's
request, and a compute that shares the server with hot reads takes
anywhere from one to two times as long from run to run, depending on how
the server's two threads trade the interpreter lock.  Both made the medians
move by more than the box's own noise between runs.
"""

from __future__ import annotations

import json
import random
import re
import socket
import threading
import time

from common import Outcome, Program, dir_mb, fresh_dir, load_spans
from layers import experiment_seconds, first_call_delay, layer_metrics, serve_figures
from stats import Ops, TooFewSamples, median, percentile

HOT_EXPERIMENTS = ("E6", "E7", "E9", "E13")
HOT_SEEDS = 3  # per hot experiment
COLD_EXPERIMENT = "E9"
SETUPS = 3
HOT_SHARE = 0.3  # of the measured seconds for the hot-only phase
COLD_SHARE = 0.25  # for the cold-only phase; the mixed phase gets the rest
SLICES = 5  # the phases take turns, so each samples the whole run
CLIENTS = 2
READY_TIMEOUT = 60.0


class Key:
    """One ``(experiment, seed)`` request at the fast preset."""

    def __init__(self, experiment_id: str, seed: int) -> None:
        from repro.experiments.registry import make_spec

        self.experiment_id = experiment_id
        self.seed = seed
        self.path = f"/v1/result/{experiment_id}?seed={seed}"
        self.config_hash = make_spec(experiment_id, "fast", seed=seed).config_hash()


def make_keys(seed: int) -> tuple[list[Key], "random.Random"]:
    """The hot key set for ``seed``, and the generator of its cold seeds."""
    rng = random.Random(f"serve_mixed:{seed}")
    seeds = rng.sample(range(1, 1_000_000), HOT_SEEDS * len(HOT_EXPERIMENTS))
    hot = [
        Key(experiment_id, seeds[i * HOT_SEEDS + j])
        for i, experiment_id in enumerate(HOT_EXPERIMENTS)
        for j in range(HOT_SEEDS)
    ]
    return hot, rng


def fetch(port: int, path: str) -> bytes:
    """One raw ``GET`` (the server closes every connection after answering).

    The client does as little Python as it can while a request is timed, so
    the two client threads barely contend for the interpreter lock; the
    answer is parsed and checked after the phase.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("ascii")
        )
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def parse(raw: bytes) -> tuple[int, dict, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1]) if lines[0].startswith("HTTP/") else 0
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def get(port: int, path: str) -> tuple[int, dict, bytes]:
    return parse(fetch(port, path))


def request(port: int, key: "Key", source: str, answers: list, latencies: list) -> None:
    """One timed result request; the answer is kept for :func:`check`."""
    started = time.monotonic()
    raw = fetch(port, key.path)
    latencies.append(time.monotonic() - started)
    answers.append((key, source, raw))


def check(answers: list, ops: Ops) -> dict:
    """Check every kept answer (one operation each); returns the last good
    body per request path."""
    bodies = {}
    for key, source, raw in answers:
        status, headers, body = parse(raw)
        problems = []
        if status != 200:
            problems.append(f"{key.path}: status {status}")
        else:
            payload = json.loads(body)
            if payload.get("config_hash") != key.config_hash:
                problems.append(f"{key.path}: config_hash {payload.get('config_hash')}")
            if headers.get("x-cache") != source:
                problems.append(f"{key.path}: X-Cache {headers.get('x-cache')}, want {source}")
            if not problems:
                bodies[key.path] = payload
        ops.check(problems)
    answers.clear()
    return bodies


class Server:
    """A running ``repro serve`` on an empty cache."""

    def __init__(self, program: Program) -> None:
        self.cache = fresh_dir(program.work / "serve-cache")
        self.process = program.start(
            ["serve", "--port", "0", "--cache-dir", str(self.cache)]
        )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT
        port = None
        while time.monotonic() < deadline:
            if self.process.popen.poll() is not None:
                break
            if port is None:
                found = re.search(r"listening on http://[^:]+:(\d+)",
                                  self.process.stderr_text())
                port = int(found.group(1)) if found else None
            if port is not None:
                try:
                    if get(port, "/readyz")[0] == 200:
                        return port
                except OSError:
                    pass
            time.sleep(0.005)
        self.process.kill()
        raise RuntimeError(f"repro serve never became ready: {self.process.stderr_text()[-500:]}")

    def stop(self, ops: Ops):
        self.process.terminate()
        done = self.process.wait(60.0)
        ops.record(done.code == 0, f"serve exited {done.code}")
        return done


def closed_loop(clients, until: float) -> None:
    """Run each client's ``step()`` on its own thread until ``until``; every
    started request completes, so the loop ends on whole operations."""

    def loop(step):
        while time.monotonic() < until:
            step()

    threads = [threading.Thread(target=loop, args=(step,)) for step in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def hot_reader(port: int, keys: list[Key], offset: int, answers: list, latencies: list):
    position = [offset]

    def step():
        key = keys[position[0] % len(keys)]
        position[0] += 1
        request(port, key, "cache", answers, latencies)

    return step


def set_up(program: Program, hot: list[Key], ops: Ops) -> Server:
    """Start a server and compute every hot key through it (two clients)."""
    server = Server(program)
    answers = []
    threads = [
        threading.Thread(
            target=lambda keys=keys: [
                request(server.port, key, "computed", answers, []) for key in keys
            ]
        )
        for keys in (hot[i::CLIENTS] for i in range(CLIENTS))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    check(answers, ops)
    return server


def same_result(key: Key, served: dict | None) -> list[str]:
    """Compare a served result with an in-process run with no cache."""
    from repro.experiments.registry import make_spec
    from repro.runtime.runner import SuiteRunner

    if served is None:
        return [f"{key.path}: no readable answer"]
    spec = make_spec(key.experiment_id, "fast", seed=key.seed)
    record = SuiteRunner().run_points([spec]).records[0]
    if record.status != "ok":
        return [f"{key.path}: in-process run {record.status}"]
    expected = json.loads(json.dumps(record.result.to_payload()))
    if served.get("result") != expected:
        return [f"{key.path}: served result differs from an in-process run"]
    return []


def run(seed: int, seconds: float, program: Program) -> Outcome:
    ops = Ops()
    hot, rng = make_keys(seed)
    setups, rss, import_delays = [], [], []
    server = None
    try:
        for index in range(SETUPS):
            started = time.monotonic()
            server = set_up(program, hot, ops)
            setups.append(time.monotonic() - started)
            if index < SETUPS - 1:
                done = server.stop(ops)
                rss.append(done.peak_rss_mb)
                if program.trace:
                    setup_spans = load_spans(program.spans_dir)
                    import_delays.append(first_call_delay(setup_spans, done.launched))
        cache_mb = dir_mb(server.cache)

        answers = []
        used = set()
        cold_keys = []

        def cold_requester(latencies):
            def step():
                cold_seed = rng.randrange(1_000_000, 2_000_000)
                while cold_seed in used:
                    cold_seed = rng.randrange(1_000_000, 2_000_000)
                used.add(cold_seed)
                key = Key(COLD_EXPERIMENT, cold_seed)
                cold_keys.append(key)
                request(server.port, key, "computed", answers, latencies)

            return step

        hot_latencies, cold_latencies = [], []
        mixed_cold_latencies, mixed_latencies = [], []
        phases = {
            "hot": (HOT_SHARE, [hot_reader(server.port, hot, 0, answers, hot_latencies)]),
            "cold": (COLD_SHARE, [cold_requester(cold_latencies)]),
            "mixed": (1 - HOT_SHARE - COLD_SHARE,
                      [cold_requester(mixed_cold_latencies),
                       hot_reader(server.port, hot, 0, answers, mixed_latencies)]),
        }
        windows = {phase: [] for phase in phases}
        for _ in range(SLICES):
            for phase, (share, clients) in phases.items():
                start = time.monotonic()
                closed_loop(clients, start + seconds * share / SLICES)
                windows[phase].append((start, time.monotonic()))
        check(answers, ops)

        status, _headers, body = get(server.port, "/metrics")
        counters = json.loads(body).get("counters", {}) if status == 200 else {}
        distinct = len(hot) + len(cold_keys)
        correct = counters.get("serve.compute_jobs") == distinct
        sampled = (hot[HOT_SEEDS * 2], hot[-1], cold_keys[0])
        for key in sampled:
            request(server.port, key, "cache", answers, [])
        served = check(answers, ops)
        for key in sampled:
            ops.check(same_result(key, served.get(key.path)))
        done = server.stop(ops)
        server = None
        rss.append(done.peak_rss_mb)
    finally:
        if server is not None:
            server.process.kill()

    details = {
        "hot_p50_ms": (median(hot_latencies) * 1e3, "ms", len(hot_latencies)),
        "hot_p99_ms": (tail(hot_latencies, 99), "ms", len(hot_latencies)),
        "cold_p50_ms": (median(cold_latencies) * 1e3, "ms", len(cold_latencies)),
        "mixed_cold_p50_ms": (median(mixed_cold_latencies) * 1e3, "ms",
                              len(mixed_cold_latencies)),
        "mixed_hot_p50_ms": (median(mixed_latencies) * 1e3, "ms", len(mixed_latencies)),
        "mixed_hot_p95_ms": (tail(mixed_latencies, 95), "ms", len(mixed_latencies)),
        "setup_s": (median(setups), "s", len(setups)),
        "cache_mb": (cache_mb, "MB", 1),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
        "compute_jobs": (counters.get("serve.compute_jobs"), "count", distinct),
    }
    e2e = {
        "setup_s": median(setups),
        "cold_s": median(cold_latencies),
        "warm_s": median(hot_latencies),
        "cache_mb": cache_mb,
        "peak_rss_mb": max(rss),
    }
    layers = None
    if program.trace:
        final = load_spans(program.spans_dir)
        import_delays.append(first_call_delay(final, done.launched))
        computes = sum(s["end"] - s["start"] for s in final if s["name"] == "serve.compute")
        measured = {
            "process.import_s": median([d for d in import_delays if d is not None]),
            "runtime.overhead_s": computes - experiment_seconds(final),
            "serve.compute_jobs": counters.get("serve.compute_jobs", 0),
            "serve.hits": counters.get("serve.hits", 0),
            "serve.misses": counters.get("serve.misses", 0),
        }
        measured.update(serve_figures(
            final,
            {"hot": windows["hot"], "mixed": windows["mixed"]},
            {key.path for key in hot},
        ))
        layers = layer_metrics(final, 1, measured)
    return Outcome(ops=ops, correct=correct, e2e=e2e, details=details,
                   layers=layers, rounds=1)


def tail(latencies: list[float], q: float) -> float | None:
    """The ``q``-th percentile in ms, or None when too few samples lie beyond it."""
    try:
        return percentile(latencies, q).value * 1e3
    except TooFewSamples:
        return None
