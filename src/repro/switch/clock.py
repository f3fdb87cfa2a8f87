"""Simulated clock.

All latency numbers in the reproduction are expressed in microseconds
of simulated time.  A single :class:`SimClock` instance is shared by
the switch ASIC, the driver, the Mantis agent, and the discrete-event
network simulator, so cross-component orderings (e.g. "did the table
update commit before this packet entered the pipeline?") are
well-defined.
"""

from __future__ import annotations


class SimClock:
    """A monotonically increasing microsecond clock.

    ``now`` is a plain attribute because every layer reads it on its
    hot path; move it only through :meth:`advance` / :meth:`advance_to`.

    Event sources registered with :meth:`watch` are drained after every
    advance that leaves one of their events due -- the network
    simulator uses this to interleave packet events with control-plane
    driver operations at operation granularity.  An advance with
    nothing due costs one comparison per source and no call.
    """

    def __init__(self, start_us: float = 0.0):
        #: Current simulated time in microseconds.
        self.now = float(start_us)
        self._watched = []

    def watch(self, heap, drain) -> None:
        """Run ``drain(now_us)`` after each advance that leaves the head
        of ``heap`` due.

        ``heap`` is a live ``heapq`` list of tuples led by their due
        time; the head is due when ``heap[0][0] <= now`` -- an event
        stamped exactly with an advance's end time runs inside that
        advance.  ``drain`` must tolerate re-entry (an event callback
        may advance the clock again).
        """
        self._watched.append((heap, drain))

    def advance(self, delta_us: float) -> float:
        """Move time forward by ``delta_us`` and return the new time."""
        if not delta_us >= 0:  # NaN too: it would stall every event
            raise ValueError(f"cannot advance clock by {delta_us} us")
        self.now = now = self.now + delta_us
        for heap, drain in self._watched:
            if heap and heap[0][0] <= now:
                drain(now)
        return self.now

    def advance_to(self, time_us: float) -> float:
        """Move time forward to ``time_us`` (no-op if already later)."""
        if time_us > self.now:
            self.now = time_us
            for heap, drain in self._watched:
                if heap and heap[0][0] <= time_us:
                    drain(time_us)
        return self.now

    def __repr__(self) -> str:
        return f"SimClock(now={self.now:.3f}us)"
