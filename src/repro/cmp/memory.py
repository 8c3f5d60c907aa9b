"""Main-memory timing models (extension).

The paper charges every L2 miss a fixed 250-cycle penalty (Table II) —
infinite memory bandwidth.  This module adds the obvious robustness check:
a **single-channel FCFS memory queue** where misses are serviced at most
one per ``service_interval`` cycles, so miss bursts queue behind each
other and a polluting thread hurts its neighbours through *bandwidth* as
well as capacity.  The bandwidth ablation bench uses it to show the
paper's configuration ordering is not an artifact of the fixed-latency
assumption.

The model is deliberately simple (no banking, no row-buffer state): it
adds the first-order queueing effect with one comparison per miss, which
keeps the simulator hot path intact when disabled
(``service_interval == 0``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass


class MemoryChannel:
    """Single FCFS channel: at most one miss service per interval.

    Parameters
    ----------
    service_interval:
        Minimum cycles between successive service *starts* (the inverse
        bandwidth).  ``0`` models infinite bandwidth — requests never
        queue.
    latency:
        Cycles from service start to data return (the paper's 250-cycle
        memory penalty).
    """

    __slots__ = ("service_interval", "latency", "_clock", "_count")

    def __init__(self, service_interval: float, latency: float) -> None:
        if service_interval < 0:
            raise ValueError("service_interval cannot be negative")
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self.service_interval = float(service_interval)
        self.latency = float(latency)
        # Boxed so the event loop's ``request`` fragment
        # (:mod:`repro.cache.transitions`) steps the same state in place,
        # by address: ``[next free service start, summed queue cycles]``
        # and ``[requests issued]``.
        self._clock = array("d", [0.0, 0.0])
        self._count = array("q", [0])

    @property
    def queue_cycles(self) -> float:
        """Summed cycles requests waited before their service started."""
        return self._clock[1]

    @property
    def requests(self) -> int:
        """Requests issued so far."""
        return self._count[0]

    def request(self, now: float) -> float:
        """Issue a miss at time ``now``; returns the data-return time."""
        clock = self._clock
        issue = now if now >= clock[0] else clock[0]
        clock[0] = issue + self.service_interval
        self._count[0] += 1
        clock[1] += issue - now
        return issue + self.latency

    @property
    def average_queue_delay(self) -> float:
        """Mean cycles a request waited before service."""
        return self.queue_cycles / self.requests if self.requests else 0.0

    def reset(self) -> None:
        """Return the channel to an idle, counter-free state."""
        self._clock[:] = array("d", [0.0, 0.0])
        self._count[0] = 0


@dataclass(frozen=True)
class BandwidthConfig:
    """Optional bandwidth limit attached to a simulation.

    ``service_interval == 0`` (default) reproduces the paper's
    fixed-latency memory exactly.
    """

    service_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.service_interval < 0:
            raise ValueError("service_interval cannot be negative")

    @property
    def limited(self) -> bool:
        """True when a bandwidth limit is configured."""
        return self.service_interval > 0
