"""Percentiles, failure accounting and route digests of one benchmark run."""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, List, Sequence, Tuple

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised when a percentile would rest on fewer than ``MIN_BEYOND`` samples."""


def percentile(samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q`` percentile (``0 < q < 1``) of ``samples``.

    Refuses (raises :class:`TooFewSamples`) when fewer than ``min_beyond``
    samples lie strictly above the returned rank: a p99 needs at least
    1000 samples, a median at least 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile q must lie in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))  # 1-based rank of the answer
    if n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    return sorted(samples)[rank - 1]


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which :func:`percentile` answers ``q``."""
    n = 1
    while n - max(1, math.ceil(q * n)) < min_beyond:
        n += 1
    return n


class Outcomes:
    """Attempted and failed operations of one run.

    A service reply counts as a success only with status ``ok``: shed,
    timeout, failed, degraded and error replies are all failures of an
    attempted request.
    """

    __slots__ = ("attempted", "failed")

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def record_reply(self, reply: dict) -> bool:
        ok = reply.get("status") == "ok"
        self.record(ok)
        return ok

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def failure_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class RouteDigest:
    """Order-sensitive SHA-256 over ``(query id, start time, grids)`` triples."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, query_id: int, start_time: int, grids: Iterable[Tuple[int, int]]) -> None:
        flat: List[int] = [query_id, start_time]
        for r, c in grids:
            flat.append(r)
            flat.append(c)
        self._h.update(struct.pack(f"<I{len(flat)}q", len(flat), *flat))
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
