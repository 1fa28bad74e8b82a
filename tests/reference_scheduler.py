"""Reference scheduler: the xstream as a generator task, progress as a ULT.

This is the generator scheduler ``repro.margo.xstream`` had before the
stream became a kernel callback (``ReferenceTask._step`` -> ``_loop`` ->
``yield from _run_slice`` -> ULT, woken through a ``ReferenceWakeup``),
and the network progress loop ``MargoInstance`` ran as a ULT parked on
an event before it became a run-to-completion item.  The task driver
below makes the posts the kernel's own task runner made, which the
kernel no longer has.  Both are kept as the oracle
``test_scheduler_differential.py`` runs random ULT programs against:
same posts in the same order, or the property fails.  Slow and obvious
on purpose; nothing under ``src/`` imports it.
"""

from repro.analysis.race import hooks as race
from repro.margo import ult as ult_module
from repro.margo.errors import MargoError
from repro.margo.pool import Pool
from repro.margo.ult import ULT, Compute, Park, UltEvent, UltSleep, UltState, UltYield
from repro.margo.xstream import SCHED_OVERHEAD, XStream
from repro.mercury import RPCRequest, RPCResponse


class ReferenceTask:
    """A generator driven by kernel posts: the first step at delay 0, a
    yielded number ``d`` resumes it after ``d`` seconds, and a yielded
    :class:`ReferenceWakeup` resumes it at delay 0 from the ``set`` (or
    right away, joining the setter for the race checker, when already
    set).  An exception leaves through ``kernel.run()``."""

    def __init__(self, kernel, gen):
        self.kernel = kernel
        self.gen = gen
        kernel.post(0.0, self._step)

    def _step(self):
        try:
            cmd = self.gen.send(None)
        except StopIteration:
            return
        if not isinstance(cmd, ReferenceWakeup):
            self.kernel.post(cmd, self._step)
        elif cmd.is_set:
            if race.ENABLED:
                race.note_event_join(cmd)
            self.kernel.post(0.0, self._step)
        else:
            cmd.waiter = self._step


class ReferenceWakeup:
    """A level-triggered event with one waiter: ``set`` posts the waiter
    at delay 0 and stays set until ``clear``."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.is_set = False
        self.waiter = None

    def set(self):
        if self.is_set:
            return
        self.is_set = True
        waiter, self.waiter = self.waiter, None
        if waiter is not None:
            self.kernel.post(0.0, waiter)

    def clear(self):
        self.is_set = False


class ReferenceProgress:
    """The progress loop as a generator ULT parked on an event between
    messages: ``deliver`` sets the event, the loop clears it to park."""

    def __init__(self, margo, name):
        self.margo = margo
        self.event = UltEvent(margo.kernel, name=name)
        self.ult = ULT(self._loop(), name=name)

    def deliver(self, payload):
        if self.margo._finalized:
            return
        self.margo._incoming.append(payload)
        self.event.set()

    def _loop(self):
        margo = self.margo
        while not margo._finalized:
            if margo._incoming:
                message = margo._incoming.popleft()
                yield Compute(margo.config.dispatch_cost)
                if isinstance(message, RPCRequest):
                    margo._dispatch_request(message)
                elif isinstance(message, RPCResponse):
                    margo._dispatch_response(message)
                else:
                    raise MargoError(f"unexpected message on the wire: {message!r}")
            else:
                self.event.clear()
                yield Park(self.event, None)


class ReferencePool(Pool):
    """``Pool.push`` that wakes watchers by setting their wakeup events."""

    def push(self, ult):
        ult.pool = self
        ult.state = UltState.READY
        self._queue.append(ult)
        self.total_pushed += 1
        if race.ENABLED:
            race.note_push(self, ult)
        prof = self._profiler
        if prof is not None and prof._sched_on:
            ult.profile_enqueued_at = prof.kernel.now
        for xstream in self._watchers:
            xstream.notify()

    def pop(self):
        """The pool pop ``XStream._drive`` does inline, as a method for ``_loop``."""
        queue = self._queue
        if not queue:
            return None
        if race.PERTURB is not None:
            index = race.PERTURB.randrange(len(queue))
            ult = queue[index]
            del queue[index]
        else:
            ult = queue.popleft()
        if self._profiler is not None and ult.profile_enqueued_at is not None:
            self._profiler._note_pool_pop(self, ult)
        return ult


class ReferenceXStream(XStream):
    def __init__(self, kernel, name, pools, scheduler="basic_wait"):
        super().__init__(kernel, name, pools, scheduler)
        self._wakeup = ReferenceWakeup(kernel)

    def start(self):
        if self._started:
            raise RuntimeError(f"xstream {self.name} already started")
        self._started = True
        ReferenceTask(self.kernel, self._loop())

    def notify(self):
        self._wakeup.set()  # idempotent while set, like the _idle flag

    def _loop(self):
        while not self._stopping:
            ult = next((u for u in (p.pop() for p in self.pools) if u is not None), None)
            if ult is None:
                self._wakeup.clear()
                yield self._wakeup
                continue
            yield from self._run_slice(ult)

    def _run_slice(self, ult):
        self.slices_run += 1
        ult.state = UltState.RUNNING
        value, exc = ult._resume_value, ult._resume_exc
        ult._resume_value = ult._resume_exc = None
        while True:
            try:
                ult_module._CURRENT = ult  # mochi-lint: disable=MCH060 -- an xstream is the owner of this slot; the oracle is one
                cmd = ult.gen.throw(exc) if exc is not None else ult.gen.send(value)
                value = exc = None
            except StopIteration as stop:
                self.ults_finished += 1
                ult.finish(result=stop.value)
                return
            except BaseException as err:  # noqa: BLE001 - ULT failure path
                self.ults_finished += 1
                ult.finish(error=err)
                return
            finally:
                ult_module._CURRENT = None  # mochi-lint: disable=MCH060 -- same: the executing stream clears it
            if isinstance(cmd, float):  # a Compute or a bare charge
                if cmd < 0:
                    exc = ValueError(f"negative compute duration: {cmd}")
                    continue
                self.busy_time += cmd
                yield cmd + SCHED_OVERHEAD
            elif isinstance(cmd, (Park, UltSleep, RPCRequest)):
                if race.ANY_HELD:
                    try:
                        race.note_suspend(ult, cmd)
                    except AssertionError as err:
                        exc = err
                        continue
                if isinstance(cmd, RPCRequest):  # forward's wait for its reply
                    ult.state = UltState.BLOCKED
                elif isinstance(cmd, UltSleep):
                    ult.state = UltState.BLOCKED
                    self.kernel.post(cmd.duration, ult._timed_ready, ult._park_token)
                else:
                    cmd.event._park(ult, cmd.timeout)
                return
            elif isinstance(cmd, UltYield):
                ult.pool.push(ult)
                return
            else:
                exc = TypeError(f"ULT {ult.name!r} yielded unsupported command {cmd!r}")
