"""Run ``repro.cli.main`` with every benchmarked layer wrapped in a span.

Usage: ``python perfbench/launcher.py <repro arguments...>`` with
``PERFBENCH_TRACE_DIR`` naming a directory for span files and ``src/`` on
``PYTHONPATH``.  The program is not changed: each layer's public function
is replaced, as soon as its module has been imported and so before any
caller can copy it, by a wrapper that records ``(name, start, end, parent)``.  Spans stay in memory;
the launching process writes them when ``main`` returns, and a forked
worker writes its own each time it finishes an outermost span (pool
workers leave through ``os._exit`` and never reach ``atexit``).

Span times are ``time.monotonic()`` readings, one clock for every process
on the machine, so the harness can set them against its own timestamps.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time

_current = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """The spans of one process, and where they are written."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.spans: list[dict] = []
        self._next = 0

    def after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._next = 0

    def new_id(self) -> str:
        self._next += 1
        return f"{self.pid}:{self._next}"

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def finish(self, span: dict) -> None:
        self.spans.append(span)
        if span["parent"] is None and self.pid != self.root_pid:
            self.flush()


def _open_span(recorder: Recorder, name: str) -> tuple[dict, contextvars.Token]:
    span = {
        "id": recorder.new_id(),
        "parent": _current.get(),
        "name": name,
        "pid": recorder.pid,
        "start": time.monotonic(),
    }
    return span, _current.set(span["id"])


def wrap(recorder: Recorder, fn, name: str, describe=None):
    """``fn`` recording one span per call; ``describe(args, kwargs, result)``
    may add attributes (sizes, cache outcomes) to the span."""

    def close(span, token, args, kwargs, result, failed):
        span["end"] = time.monotonic()
        _current.reset(token)
        if failed:
            span["error"] = True
        elif describe is not None:
            span.update(describe(args, kwargs, result))
        recorder.finish(span)

    if asyncio.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span, token = _open_span(recorder, name)
            result, failed = None, True
            try:
                result = await fn(*args, **kwargs)
                failed = False
                return result
            finally:
                close(span, token, args, kwargs, result, failed)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, token = _open_span(recorder, name)
        result, failed = None, True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            close(span, token, args, kwargs, result, failed)

    return wrapper


# -- what each layer's span carries ------------------------------------------


def _papers(args, kwargs, result):
    return {"papers": len(result[0])}


def _cache_get(args, kwargs, result):
    cache, kind, config = args[0], args[1], args[2]
    if result is None:
        return {"hit": False}
    return {"hit": True, "bytes": cache.path_for(kind, config).stat().st_size}


def _cache_put(args, kwargs, result):
    return {"bytes": result.stat().st_size}


def _request(args, kwargs, result):
    return {
        "path": args[1].target,
        "status": result.status,
        "source": result.headers.get("X-Cache"),
    }


def _job_key(args, kwargs, result):
    return {"key": args[1]}


def _spec_key(args, kwargs, result):
    return {"key": args[0].config_hash()}


#: The experiment modules, E1 to E13 in order.
EXPERIMENT_MODULES = [
    f"repro.experiments.{name}"
    for name in (
        "e01_method_adoption", "e02_positionality_prevalence",
        "e03_agenda_concentration", "e04_coding_reliability", "e05_saturation",
        "e06_telmex_evasion", "e07_ixp_gravity", "e08_par_deployment",
        "e09_cpr_congestion", "e10_reachability_bias",
        "e11_recommendations_audit", "e12_scale_vs_depth",
        "e13_congestion_collapse",
    )
]

#: (defining module, function or Class.method, span name, describe).
LAYERS = [
    ("repro.bibliometrics.synthgen", "generate_corpus", "synthgen.generate", _papers),
    ("repro.experiments._corpus", "shared_corpus_from_config", "corpus.load", None),
    ("repro.experiments._corpus", "shared_columnar_corpus_from_config", "corpus.load", None),
    ("repro.experiments._corpus", "shared_aggregates_from_config", "corpus.load", None),
    ("repro.io.artifacts", "ArtifactCache.get", "artifacts.get", _cache_get),
    ("repro.io.artifacts", "ArtifactCache.put", "artifacts.put", _cache_put),
    ("repro.bibliometrics.methods_detect", "LexiconScanner.detect", "methods_detect.detect", None),
    ("repro.netsim.bgp.scenarios", "run_mandatory_peering_study", "netsim.bgp.study", None),
    ("repro.netsim.bgp.scenarios", "run_gravity_study", "netsim.bgp.study", None),
    ("repro.netsim.community.deployment", "run_deployment_study", "netsim.community.study", None),
    ("repro.netsim.community.congestion", "run_congestion_study", "netsim.community.study", None),
    ("repro.netsim.transport.sim", "run_collapse_study", "netsim.transport.study", None),
    ("repro.runtime.supervisor", "WorkerSupervisor._note_rebuild", "runtime.pool_rebuild", None),
    ("repro.serve.service", "ResultService.respond", "serve.respond", _request),
    ("repro.serve.jobs", "ComputeJobManager.submit", "serve.submit", _job_key),
    ("repro.serve.jobs", "compute_experiment_rows", "serve.compute", _spec_key),
]


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Wraps a module's layer functions the moment the module has run.

    A module that does ``from x import f`` copies ``x.f`` when it is
    imported, so ``f`` must be wrapped before anyone can import it: right
    after ``x`` itself has executed.  Wrapping on import also leaves the
    program's own import order and cost as they are.
    """

    def __init__(self, recorder: Recorder, targets: dict) -> None:
        self.recorder = recorder
        self.targets = targets

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.targets:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        run_module = spec.loader.exec_module

        def exec_module(module):
            run_module(module)
            for attribute, name, describe in self.targets[fullname]:
                owner = module
                if "." in attribute:
                    class_name, attribute = attribute.split(".")
                    owner = getattr(module, class_name)
                original = getattr(owner, attribute)
                setattr(owner, attribute, wrap(self.recorder, original, name, describe))

        spec.loader.exec_module = exec_module
        return spec


def install(recorder: Recorder) -> None:
    """Wrap each layer in :data:`LAYERS` and each experiment's ``run``
    (which the registry looks up on the module at call time)."""
    targets: dict[str, list] = {}
    for module_name, attribute, name, describe in LAYERS:
        targets.setdefault(module_name, []).append((attribute, name, describe))
    for number, module_name in enumerate(EXPERIMENT_MODULES, 1):
        targets.setdefault(module_name, []).append(
            ("run", f"experiment.E{number}", None)
        )
    sys.meta_path.insert(0, _WrapOnImport(recorder, targets))


def main(argv: list[str]) -> int:
    recorder = Recorder(os.environ["PERFBENCH_TRACE_DIR"])
    install(recorder)
    os.register_at_fork(after_in_child=recorder.after_fork)
    from repro.cli import main as repro_main

    try:
        code = repro_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
