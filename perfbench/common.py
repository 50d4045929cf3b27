"""Starting the program the way users run it, and timing what it costs.

Untraced, every program process is ``python -m repro ...`` with ``src/`` on
``PYTHONPATH`` and default settings.  Traced, the same arguments go through
``perfbench/launcher.py``, which wraps the layers and then calls
``repro.cli.main``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from stats import Ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (SRC / "repro" / "cli.py").is_file()


def dir_mb(path: Path) -> float:
    """Bytes of every file under ``path``, in MB (10**6 bytes)."""
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.stat(os.path.join(folder, name)).st_size
    return total / 1e6


@dataclass
class Outcome:
    """What one run of a workload measured.

    ``e2e`` holds every end-to-end metric of ``BENCHMARK.json``; ``details``
    the workload's own figures as ``name -> (value, unit, samples)``;
    ``layers`` the per-layer metrics of a traced run.
    """

    ops: Ops
    correct: bool
    e2e: dict
    details: dict
    layers: dict | None
    rounds: int


@dataclass
class Finished:
    """One program process that ran to its end."""

    code: int
    wall_s: float
    stdout: bytes
    stderr: str
    peak_rss_mb: float  # of the process and every child it waited for
    launched: float  # time.monotonic() just before the process started


class Program:
    """Runs ``repro`` processes inside one scratch directory of the checkout.

    Args:
        work: Directory for caches, outputs and span files.
        trace: Start every process through the tracing launcher.
    """

    def __init__(self, work: Path, trace: bool) -> None:
        self.work = work
        self.trace = trace
        self.spans_dir = work / "spans"
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self._serial = 0

    def _argv(self, args: list[str]) -> list[str]:
        if self.trace:
            return [sys.executable, str(LAUNCHER), *args]
        return [sys.executable, "-m", "repro", *args]

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        if self.trace:
            env["PERFBENCH_TRACE_DIR"] = str(self.spans_dir)
        return env

    def path(self, name: str) -> Path:
        """A fresh path inside the work directory."""
        self._serial += 1
        return self.work / f"{self._serial:03d}-{name}"

    def start(self, args: list[str]) -> "Process":
        out, err = self.path("stdout"), self.path("stderr")
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            launched = time.monotonic()
            popen = subprocess.Popen(
                self._argv(args),
                cwd=self.work,
                env=self._env(),
                stdin=subprocess.DEVNULL,
                stdout=stdout,
                stderr=stderr,
            )
        return Process(popen, launched, out, err)

    def run(self, args: list[str], timeout: float = 170.0) -> Finished:
        """Run one command to its end (killed after ``timeout`` seconds)."""
        return self.start(args).wait(timeout)


class Process:
    """A started program process; :meth:`wait` reaps it with its rusage."""

    def __init__(self, popen, launched: float, out: Path, err: Path) -> None:
        self.popen = popen
        self.launched = launched
        self.out = out
        self.err = err

    def stderr_text(self) -> str:
        return self.err.read_text(encoding="utf-8", errors="replace")

    def terminate(self) -> None:
        if self.popen.returncode is None:
            self.popen.send_signal(signal.SIGTERM)

    def wait(self, timeout: float) -> Finished:
        watchdog = threading.Timer(timeout, self.popen.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(self.popen.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - self.launched
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        return Finished(
            code=self.popen.returncode,
            wall_s=wall,
            stdout=self.out.read_bytes(),
            stderr=self.stderr_text(),
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            launched=self.launched,
        )

    def kill(self) -> None:
        """Last-resort cleanup for a process a failed run leaves behind."""
        if self.popen.returncode is None:
            self.popen.kill()
            self.popen.wait()


def load_spans(spans_dir: Path) -> list[dict]:
    """Every span the traced processes wrote, then clear the directory."""
    spans = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
        path.unlink()
    return spans


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
