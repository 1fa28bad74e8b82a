"""Reference kernel: the event queue as a plain binary heap.

The specification ``repro.sim.SimKernel``'s event heap is held to by
``test_kernel_heap.py``: events fire in ``(deadline, seq)``
order, a cancelled timer never fires and never advances the clock, a
delay returned by a ``post``ed callback posts it again (a timer's return
value is ignored), and an exception leaves everything not yet fired in
the queue.  Slow and obvious on purpose; it imports nothing from
``repro``.
"""

import heapq


class ReferenceTimer:
    def __init__(self, fn, args, reposts=False):
        self.fn, self.args, self.cancelled = fn, args, False
        self.reposts = reposts

    def cancel(self):
        self.cancelled = True


class ReferenceKernel:
    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap = []  # (deadline, seq, timer); seq breaks every tie

    def schedule_at(self, deadline, fn, *args, reposts=False):
        if deadline < self.now:
            raise ValueError(f"deadline {deadline} is in the past (now={self.now})")
        self._seq += 1
        timer = ReferenceTimer(fn, args, reposts)
        heapq.heappush(self._heap, (deadline, self._seq, timer))
        return timer

    def schedule(self, delay, fn, *args, reposts=False):
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn, *args, reposts=reposts)

    def post(self, delay, fn, *args):
        self.schedule(delay, fn, *args, reposts=True)

    def run(self, until=None):
        """Fire everything due, or everything due by ``until``; the
        clock ends at ``until`` when one is given."""
        heap = self._heap
        while heap:
            deadline, _, timer = heap[0]
            if timer.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and deadline > until:
                break
            heapq.heappop(heap)
            self.now = deadline
            delay = timer.fn(*timer.args)
            if timer.reposts and delay is not None:
                self.post(delay, timer.fn, *timer.args)
        if until is not None and until > self.now:
            self.now = until
