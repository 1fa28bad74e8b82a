"""Call-graph fixture: delegate edges into a suspending and a pure callee
(the running form is ``Store`` in ``tests/test_sanitizer.py``)."""


class Store:
    def locked_bad(self, ctx):
        """_refresh suspends while the lock is held."""
        yield from self._lock.acquire()
        yield from self._refresh()
        self._lock.release()

    def locked_ok(self, ctx):
        """The lock is released before delegating."""
        yield from self._lock.acquire()
        self._count = 1
        self._lock.release()
        yield from self._refresh()

    def locked_pure(self, ctx):
        """The callee never suspends."""
        yield from self._lock.acquire()
        yield from self._drain()
        self._lock.release()

    def _refresh(self):
        yield UltSleep(0.1)  # noqa: F821

    def _drain(self):
        for item in list(self._pending):
            yield item
