"""Fixture: an event loop with per-event lookups and allocations."""

from heapq import heappop, heappush


class BatchedEngine:
    """Miniature of the real engine's scheduling loop."""

    def run(self):
        """Every iteration chases attributes and allocates a list."""
        heap = list(self.heap)
        lines = self.lines
        now = 0.0
        while heap:
            now, t = heappop(heap)
            hit = self.l2.probe(lines[t], t)
            record = [t, hit]
            heappush(heap, (now + 1.0, record[0]))
        return now
