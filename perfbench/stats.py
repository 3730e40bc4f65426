"""Percentiles and failure accounting of the load generator."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.service.protocol import DeadlineExceededError, RetryAfterError

#: A percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to be stable."""


def min_samples(q: float) -> int:
    """Smallest sample count :func:`percentile` accepts for ``q``."""
    return math.ceil(MIN_BEYOND / (1 - q / 100) - 1e-9)


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (:class:`TooFewSamples`) unless at least :data:`MIN_BEYOND`
    samples lie beyond the chosen rank, so p50 needs 20 samples and p90
    needs 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {max(0, n - rank)} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(q)} samples)"
        )
    return ordered[rank - 1]


@dataclass
class Recorder:
    """Counts and times every request the closed loop sends.

    Each request is attempted once (commits go out with ``retry=False``),
    so every refusal, expired deadline or error is counted exactly once,
    by kind, in :attr:`failures`.
    """

    attempted: int = 0
    #: kind -> count: ``shed`` (RetryAfter), ``deadline``, ``error``.
    failures: dict = field(default_factory=dict)
    #: op -> list of (rid, seconds) of requests that succeeded.
    latencies: dict = field(default_factory=dict)
    #: rid -> ``time.perf_counter()`` when the request was sent.
    started: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    async def call(self, op: str, rid: str, request):
        """Await ``request`` (a coroutine), timing it under ``op``.

        Returns its result, or ``None`` when it failed.
        """
        self.attempted += 1
        started = self.started[rid] = time.perf_counter()
        try:
            result = await request
        except RetryAfterError:
            kind = "shed"
        except DeadlineExceededError:
            kind = "deadline"
        except ReproError:
            kind = "error"
        else:
            self.latencies.setdefault(op, []).append(
                (rid, time.perf_counter() - started)
            )
            return result
        self.failures[kind] = self.failures.get(kind, 0) + 1
        return None

    def check_against_server(self, server_shed: int,
                             server_deadline: int) -> list[str]:
        """Mismatches between the client's failure counts and the
        server's own ``shed`` / ``deadline_expired`` counters."""
        problems = []
        for kind, theirs in (("shed", server_shed),
                             ("deadline", server_deadline)):
            ours = self.failures.get(kind, 0)
            if ours != theirs:
                problems.append(
                    f"client counted {ours} {kind} failures, server {theirs}"
                )
        return problems
