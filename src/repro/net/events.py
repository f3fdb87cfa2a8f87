"""Discrete-event queue.

Events are ``(time_us, sequence, callback)`` triples on a heap.  The
queue does not own time -- it drains against the shared
:class:`~repro.switch.clock.SimClock`, which the Mantis agent's driver
operations advance.  This is how data-plane events (packet arrivals)
interleave with control-plane operations at per-operation granularity.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError


class EventQueue:
    """A time-ordered callback queue."""

    def __init__(self):
        #: The live heap, never rebound: ``SimClock.watch`` peeks at
        #: ``heap[0][0]`` to skip the drain call when nothing is due.
        self.heap: List[Tuple[float, int, Callable[[float], None]]] = []
        self._sequence = itertools.count()
        self._draining = False
        self.processed = 0

    def schedule(self, time_us: float, callback: Callable[[float], None]) -> None:
        """Run ``callback(time_us)`` when the clock reaches ``time_us``."""
        if not time_us >= 0:  # NaN too: it would never come due
            raise SimulationError(f"cannot schedule event at {time_us}")
        heapq.heappush(self.heap, (time_us, next(self._sequence), callback))

    def peek_time(self) -> Optional[float]:
        return self.heap[0][0] if self.heap else None

    def __len__(self) -> int:
        return len(self.heap)

    def drain(self, now_us: float) -> int:
        """Run every event due at or before ``now_us``.

        Reentrancy-safe: events scheduled while draining are processed
        in the same drain if they are due.  Returns the number of
        events run.
        """
        if self._draining:
            return 0
        self._draining = True
        ran = 0
        try:
            while self.heap and self.heap[0][0] <= now_us:
                time_us, _seq, callback = heapq.heappop(self.heap)
                callback(time_us)
                ran += 1
                self.processed += 1
        finally:
            self._draining = False
        return ran
