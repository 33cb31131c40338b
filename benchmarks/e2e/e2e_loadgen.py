"""Open-loop request schedule for the serving workload.

Request ``i`` is due at ``t0 + i / rate``.  One client thread sends each
request when it is due, or as soon as the previous response is back if that
is later, and times it from its *due* time: a stalled request therefore
delays, and is charged to, every request queued behind it, as it would be for
independent users arriving on that schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

RequestT = TypeVar("RequestT")


@dataclass(frozen=True)
class Sample:
    """Timestamps and answer of one request."""

    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from the due time to the complete response."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return self.sent - self.due


def run_open_loop(
    requests: Sequence[RequestT],
    rate: float,
    send: Callable[[int, RequestT], tuple[int, bytes]],
    *,
    between: Callable[[int], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Send ``requests`` on the schedule; ``send(i, request)`` blocks for the answer.

    ``between(i)`` runs before request ``i`` is awaited: a write landing
    between two reads, whose cost shows as lateness if it outlasts the gap.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    start = clock()
    samples = []
    for index, request in enumerate(requests):
        due = start + index / rate
        if between is not None:
            between(index)
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        status, body = send(index, request)
        samples.append(Sample(due, sent, clock(), status, body))
    return samples
