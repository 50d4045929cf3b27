"""The benchmark's own statistics and bookkeeping.

Everything the benchmark reports is computed here, never with the
program's own helpers (``repro.obs.metrics.percentile`` and friends), so a
change to the program cannot shift the ruler it is measured with.
"""

from __future__ import annotations

import math
import statistics
import threading
from dataclasses import dataclass, field


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile and the evidence behind it."""

    q: float
    value: float
    samples: int
    beyond: int  # samples strictly above the chosen rank


def percentile(values, q: float, *, min_beyond: int = 10) -> Percentile:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    The rank is ``ceil(q/100 * n)``; the value is the sample at that rank
    in sorted order, so it is always one of the observations.  A tail
    percentile (q > 50) is refused with :class:`TooFewSamples` unless at
    least ``min_beyond`` samples lie beyond its rank: a p99 over 200
    samples rests on two observations and says nothing about the tail.
    """
    data = sorted(values)
    n = len(data)
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    if n == 0:
        raise TooFewSamples("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if q > 50 and beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {beyond} beyond it; "
            f"need at least {min_beyond}"
        )
    return Percentile(q=q, value=data[rank - 1], samples=n, beyond=beyond)


def median(values) -> float:
    """Nearest-rank median (the lower middle sample for an even count)."""
    return percentile(values, 50).value


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values, n=4)``
    gives them (the exclusive method)."""
    if len(values) < 2:
        raise TooFewSamples("quartiles need at least two samples")
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else math.inf


def self_times(spans) -> dict:
    """Self time per span id: its duration minus its direct children's.

    ``spans`` are dicts with ``id``, ``parent`` (an id or None), ``start``
    and ``end``.  A child's own nested children are already inside the
    child's duration, so only direct children are subtracted; each layer's
    time is then counted exactly once along a chain of nested calls.
    """
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    result = dict(own)
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in result:
            result[parent] -= own[span["id"]]
    return result


@dataclass
class Ops:
    """Operations attempted and failed, with the reason for each failure.

    Safe to share between client threads.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, ok: bool, what: str = "") -> bool:
        """Count one operation; returns ``ok`` so checks can chain."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.reasons.append(what or "operation failed")
        return ok

    def check(self, problems: list[str]) -> bool:
        """Count one operation that fails when any problem was found."""
        return self.record(not problems, "; ".join(problems))
