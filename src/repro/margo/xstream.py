"""Execution streams (xstreams): the OS threads of the Argobots model.

Each :class:`XStream` repeatedly picks an entry from its scheduler's
pools (in priority order, like the "basic" Argobots scheduler) and runs
it: a ULT until it yields, a run-to-completion item (Margo's network
progress) for one ``step()``.  Float charges (``Compute`` or bare) and
item charges make the stream itself busy for simulated time, which is
how CPU contention between providers sharing a stream (paper Fig. 2)
arises.

The stream is a kernel *callback* state machine, not a generator:
``_drive`` is its one callback, posted on a wakeup and re-armed by
returning a charge as the kernel's delay, and an ``_idle`` flag stands
in for a wakeup event (DESIGN.md section 3; the generator stream it
replaced is ``tests/reference_scheduler.py``).
"""

from __future__ import annotations

from typing import Any, Optional

from ..analysis.race import hooks as _race
from ..mercury import RPCRequest
from ..sim.kernel import SimKernel
from . import ult as _ult
from .errors import ConfigError
from .pool import Pool
from .ult import BLOCKED, RUNNING, ULT, Compute, Park, UltSleep, UltYield

__all__ = ["XStream", "SCHEDULER_TYPES"]

SCHEDULER_TYPES = ("basic", "basic_wait", "prio")

# Fixed cost charged per scheduling decision, modeling the scheduler's
# own overhead.  Small but non-zero so that idle loops always advance
# simulated time.
SCHED_OVERHEAD = 20e-9

#: float first, so a subclass of it (``Compute``'s) resolves to a charge.
_COMMANDS = (float, Compute, RPCRequest, Park, UltSleep, UltYield)


class XStream:
    """An execution stream pulling ULTs from an ordered list of pools."""

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        pools: list[Pool],
        scheduler: str = "basic_wait",
    ) -> None:
        if not name:
            raise ConfigError("xstream name must be non-empty")
        if not pools:
            raise ConfigError(f"xstream {name!r} needs at least one pool")
        if scheduler not in SCHEDULER_TYPES:
            raise ConfigError(
                f"unknown scheduler type {scheduler!r} (expected one of {SCHEDULER_TYPES})"
            )
        self.kernel = kernel
        self.name = name
        self.scheduler = scheduler
        self.pools: list[Pool] = list(pools)
        # True only while every pool was found empty and no ``_drive``
        # is queued: the next push (or ``notify``) posts one.
        self._idle = False
        self._started = False
        self._stopping = False
        # Bound once: every post would otherwise allocate a bound method.
        self._run = self._drive
        # The entry whose charge is running; the re-armed ``_drive`` resumes it.
        self._charged: Any = None
        # Counters for monitoring/benchmarks.
        self.slices_run = 0
        self.busy_time = 0.0
        self.ults_finished = 0
        for pool in self.pools:
            pool.attach_xstream(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError(f"xstream {self.name} already started")
        self._started = True
        # First turn happens on the event loop, not synchronously, so
        # start order does not leak into execution order mid-timestep.
        self.kernel.post(0.0, self._run)

    def stop(self) -> None:
        """Ask the stream to exit after the current slice."""
        self._stopping = True
        self.notify()
        for pool in self.pools:
            pool.detach_xstream(self)
        self.pools = []

    def notify(self) -> None:
        """Wake the stream because work may be available (pool push)."""
        if self._idle:
            self._idle = False
            self.kernel.post(0.0, self._run)

    # ------------------------------------------------------------------
    # pool management (runtime reconfiguration)
    # ------------------------------------------------------------------
    def add_pool(self, pool: Pool) -> None:
        if pool in self.pools:
            return
        self.pools.append(pool)
        pool.attach_xstream(self)
        self.notify()

    def remove_pool(self, pool: Pool) -> None:
        if pool not in self.pools:
            raise ConfigError(f"xstream {self.name} does not serve pool {pool.name}")
        if len(self.pools) == 1:
            raise ConfigError(f"cannot remove the last pool of xstream {self.name}")
        self.pools.remove(pool)
        pool.detach_xstream(self)

    # ------------------------------------------------------------------
    # the scheduling loop
    # ------------------------------------------------------------------
    # mochi-lint: hotpath
    def _drive(self) -> Optional[float]:
        """The stream's one kernel callback: posted bare to take a turn
        (start, or a push found it idle), re-armed by returning a charge.
        A pool entry that is not a :class:`ULT` is a run-to-completion
        item: ``step()``, run with ``current_ult()`` set to it, returns the
        seconds to charge before the next ``step()``, or None when done.
        A ULT body's exception fails that ULT; one from the machinery (a
        finish callback, a park, a push, a ``step``) leaves through
        ``kernel.run()`` with the next turn already posted."""
        ult = self._charged
        self._charged = None
        value = exc = None
        try:
            while True:
                if ult is None:
                    if self._stopping:
                        return
                    for pool in self.pools:
                        queue = pool._queue
                        if queue:
                            if _race.PERTURB is not None:
                                # Schedule-explorer mode: pop a seeded-random
                                # ready entry instead of the head.  Any pop
                                # order is a legal cooperative schedule, so
                                # outcomes that change under it are bugs.
                                index = _race.PERTURB.randrange(len(queue))
                                ult = queue[index]
                                del queue[index]
                            else:
                                ult = queue.popleft()
                            if pool._profiler is not None and ult.profile_enqueued_at is not None:
                                pool._profiler._note_pool_pop(pool, ult)
                            break
                    else:
                        self._idle = True
                        return
                    self.slices_run += 1
                    if type(ult) is ULT:
                        ult.state = RUNNING
                        value = ult._resume_value
                        exc = ult._resume_exc
                        ult._resume_value = None
                        ult._resume_exc = None
                if type(ult) is not ULT:
                    _ult._CURRENT = ult
                    try:
                        charge = ult.step()
                    finally:
                        _ult._CURRENT = None
                    if charge is None:
                        ult = None
                        continue
                    self.busy_time += charge
                    self._charged = ult
                    return charge + SCHED_OVERHEAD
                try:
                    # For the body and finish callbacks, not the command.
                    _ult._CURRENT = ult
                    if exc is not None:
                        cmd = ult.gen.throw(exc)
                        exc = None
                    else:
                        cmd = ult.gen.send(value)
                    value = None
                except StopIteration as stop:
                    self.ults_finished += 1
                    ult.finish(stop.value)
                    ult = None
                    continue
                except BaseException as err:  # noqa: BLE001 - ULT failure path
                    self.ults_finished += 1
                    ult.finish(None, err)
                    ult = None
                    continue
                finally:
                    _ult._CURRENT = None
                # Commands by exact type, subclasses by isinstance.
                kind = type(cmd)
                if kind not in _COMMANDS:
                    kind = next((c for c in _COMMANDS if isinstance(cmd, c)), None)
                if kind is float or kind is Compute:
                    if cmd < 0:
                        exc = ValueError(f"negative compute duration: {cmd}")
                        continue
                    self.busy_time += cmd
                    self._charged = ult
                    return cmd + SCHED_OVERHEAD
                if kind is UltYield:
                    ult.pool.push(ult)
                elif kind is None:
                    exc = TypeError(
                        f"ULT {ult.name!r} yielded unsupported command {cmd!r}; "
                        "ULTs may yield a float, Compute, UltYield, UltSleep, or Park"
                    )
                    continue
                else:
                    if _race.ANY_HELD:
                        # MCH011 needs a ULT suspending *while holding a
                        # mutex*; ANY_HELD is False in a lock-free phase,
                        # so the common case pays one load here.  A strict
                        # violation fails the offending ULT (via gen.throw
                        # on the next loop turn), not the stream.
                        try:
                            _race.note_suspend(ult, cmd)
                        except AssertionError as err:
                            exc = err
                            continue
                    if kind is RPCRequest:
                        # forward's wait: the reply or its timeout readies it.
                        ult.state = BLOCKED
                    elif kind is UltSleep:
                        ult.state = BLOCKED
                        self.kernel.post(cmd.duration, ult._timed_ready, ult._park_token)
                    else:
                        cmd.event._park(ult, cmd.timeout)
                ult = None
        except BaseException:
            self.kernel.post(0.0, self._run)
            raise

    # ------------------------------------------------------------------
    def sample(self) -> dict[str, float]:
        """Cumulative utilization counters (the continuous profiler takes
        per-window deltas of these at each boundary tick)."""
        return {
            "busy_time": self.busy_time,
            "slices_run": float(self.slices_run),
            "ults_finished": float(self.ults_finished),
        }

    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "scheduler": {"type": self.scheduler, "pools": [p.name for p in self.pools]},
        }
