"""Fixture: an event loop that runs on ``run``'s locals only."""

from heapq import heappop, heappushpop


class BatchedEngine:
    """Miniature of the real engine's scheduling loop."""

    def run(self):
        """Rare paths sit in closures; the loop touches bound names."""
        heap = list(self.heap)
        access = self.l2.access_line_hit
        lines = self.lines
        pushpop = heappushpop
        boundary = self.interval
        limit = self.limit

        def cross(now, boundary):
            self.controller.interval_boundary(cycle=int(boundary))
            return boundary + self.interval

        now, t = heappop(heap)
        while now < limit:
            if now >= boundary:
                boundary = cross(now, boundary)
            clock = now + (1.0 if access(lines[t], t) else 9.0)
            now, t = pushpop(heap, (clock, t))
        return now
