"""Measurement core of the end-to-end benchmark.

One *run* is :data:`REPETITIONS` repetitions of one workload.  Every
repetition builds a fresh deployment (set-up), drives a fixed list of
operations (timed phase), verifies the final state and is thrown away.
Two clocks are kept apart in every name:

* ``sim_*`` -- simulated time.  A pure function of the seed; asserted
  identical across the repetitions of a run.
* ``wall_*`` / ``setup_s`` -- host time, *speed-normalised*.  This class
  of machine (a shared 2-vCPU VM) drifts by 10-30 % for tens of seconds
  at a time, which no amount of repetition inside one process averages
  out.  So the timed phase is cut into short segments and a fixed
  pure-Python calibration loop (:func:`calibrate`, ~1 ms) runs right
  after each one: a segment's cost is its host seconds divided by the
  host seconds the calibration loop took next to it, i.e. "how many
  calibration loops did this segment cost", and a phase's cost is the
  sum over its segments.  That ratio is what an optimisation of the
  program changes and what machine drift mostly leaves alone (measured
  on the echo path: quartile spread 2 % against 7-12 % for raw wall
  rates).  It is scaled by :data:`CALIB_REF_S` so the numbers read as
  seconds on the reference machine.  The raw, un-normalised rate is
  kept as the layer metric ``harness.raw_ops_per_s``.

The simulator never sees the meter: ticks happen between operations,
in host time only, and change no simulated timestamp.
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- this harness measures host time on purpose.

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from _harness import once  # benchmarks/_harness.py: GC-quiesced single run

REPETITIONS = 5
#: Untraced repetitions of a ``--trace 1`` run (the traced repetition
#: costs about three of them; the per-run time cap is the same).
TRACE_REPETITIONS = 2

CALIB_STEPS = 10_000
#: Host seconds one :func:`calibrate` call takes on the reference machine
#: (the machine described in README.md, in its fast phase).
CALIB_REF_S = 1.0e-3

_perf = time.perf_counter


def calibrate() -> float:
    """Host seconds for a fixed generator + dict + int workload, the
    instruction mix the simulator itself is made of."""
    started = _perf()
    table: dict[int, int] = {}

    def steps():
        for index in range(CALIB_STEPS):
            yield index

    total = 0
    for index in steps():
        table[index & 1023] = index
        total += index
    return _perf() - started


class Meter:
    """Cuts the timed phase into calibrated segments.

    Workload clients call :meth:`tick` after every completed operation
    (or batch).  Once ``segment_ops`` operations have accumulated the
    meter closes the segment, runs the calibration loop and restarts the
    clock, so calibration time is never inside a segment.
    """

    def __init__(self, segment_ops: int, calibrated: bool = True) -> None:
        self.segment_ops = segment_ops
        self.calibrated = calibrated
        #: (ops, host seconds, calibration seconds) per closed segment.
        self.segments: list[tuple[int, float, float]] = []
        self.ops = 0
        self._pending = 0
        self._mark = 0.0

    def start(self) -> None:
        self._mark = _perf()

    def tick(self, ops: int = 1) -> None:
        self.ops += ops
        self._pending += ops
        if self._pending >= self.segment_ops:
            self._close()

    def _close(self) -> None:
        ended = _perf()
        calib = calibrate() if self.calibrated else 0.0
        self.segments.append((self._pending, ended - self._mark, calib))
        self._pending = 0
        self._mark = _perf()

    def stop(self) -> None:
        if self._pending or not self.segments:
            self._close()

    # -- reductions ----------------------------------------------------
    @property
    def busy_seconds(self) -> float:
        """Host seconds inside segments (calibration excluded)."""
        return sum(wall for _ops, wall, _calib in self.segments)

    def median_calibration(self) -> float:
        return statistics.median(calib for _ops, _wall, calib in self.segments)

    def normalised_seconds(self) -> float:
        """Host seconds of all segments at the reference machine's speed:
        each segment's time divided by how slow the calibration loop ran
        right after it.  A sum, not a median, so that a rare expensive
        event (a migration) weighs what it cost."""
        return sum(wall / calib for _ops, wall, calib in self.segments) * CALIB_REF_S


# ----------------------------------------------------------------------
# small statistics helpers
# ----------------------------------------------------------------------
def tail_quantile(samples: int) -> float:
    """0.99 when at least ten samples lie beyond it, else the highest
    quantile that still has ten beyond it (never below the median)."""
    if samples >= 1000:
        return 0.99
    return max(0.5, 1.0 - 10.0 / max(samples, 1))


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the driver computes them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
class BenchmarkError(RuntimeError):
    """A self-check failed: the run must not publish a number."""


@dataclass
class Recorder:
    """What clients write while the timed phase runs."""

    meter: Meter
    #: the workload's simulated-latency limit, in seconds.
    slo_limit_s: float = float("inf")
    #: simulated seconds per operation, in completion order.
    latencies: list[float] = field(default_factory=list)
    #: simulated seconds per operation, by operation kind.
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: operations that succeeded within the latency limit.
    met: int = 0
    retries: int = 0
    #: free-form exact counters a workload adds (keys moved, user bytes...).
    counts: dict[str, float] = field(default_factory=dict)
    #: first few failure descriptions, for the error message.
    failures: list[str] = field(default_factory=list)

    def done(self, kind: str, latency: float, ok: bool, ops: int = 1, why: str = "") -> None:
        """Record one finished operation (``ops`` > 1 for a batch: the
        latency is the batch's, the operation count its keys)."""
        self.attempted += ops
        self.latencies.append(latency)
        self.by_kind.setdefault(kind, []).append(latency)
        if not ok:
            self.failed += ops
            if len(self.failures) < 5:
                self.failures.append(why or kind)
        elif latency <= self.slo_limit_s:
            self.met += ops
        self.meter.tick(ops)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


@dataclass
class Repetition:
    """Everything one repetition produced."""

    setup_wall_s: float
    setup_norm_s: float
    wall_s: float
    norm_s_per_op: float
    segments: int
    calib_ms: float
    rss_mb: float
    attempted: int
    failed: int
    #: exact, seed-determined values (simulated times and counts).
    exact: dict[str, float]
    failures: list[str]


def run_repetition(workload: Any, inputs: Any, profiler: Optional[Any] = None) -> Repetition:
    """Set up, drive, verify and discard one deployment.

    ``profiler`` (a ``cProfile.Profile``) is enabled around the timed
    phase only; a profiled repetition skips calibration because its host
    times are only ever compared with each other.
    """
    gc.collect()
    calibrated = profiler is None
    setup_meter = Meter(workload.setup_segment_ops, calibrated=calibrated)
    setup_meter.start()
    deployment = workload.build(inputs, setup_meter.tick)
    setup_meter.stop()
    setup_wall = setup_meter.busy_seconds
    setup_norm = setup_meter.normalised_seconds() if calibrated else 0.0

    meter = Meter(workload.segment_ops, calibrated=calibrated)
    recorder = Recorder(meter, workload.slo_limit_us * 1e-6)
    before = workload.snapshot(deployment)

    def timed() -> None:
        meter.start()
        if profiler is not None:
            profiler.enable()
        try:
            workload.drive(deployment, inputs, recorder)
        finally:
            if profiler is not None:
                profiler.disable()
            meter.stop()

    once(timed)
    after = workload.snapshot(deployment)
    exact = workload.reduce(deployment, inputs, recorder, before, after)
    problems = workload.verify(deployment, inputs)
    if problems:
        recorder.failed += len(problems)
        recorder.failures.extend(problems[:5])
    exact["harness.ops_failed_share"] = recorder.failed / max(recorder.attempted, 1)

    repetition = Repetition(
        setup_wall_s=setup_wall,
        setup_norm_s=setup_norm,
        wall_s=meter.busy_seconds,
        norm_s_per_op=meter.normalised_seconds() / max(meter.ops, 1) if calibrated else 0.0,
        segments=len(meter.segments),
        calib_ms=meter.median_calibration() * 1e3,
        rss_mb=0.0,
        attempted=recorder.attempted,
        failed=recorder.failed,
        exact=exact,
        failures=recorder.failures,
    )
    del deployment, recorder, meter, before, after
    gc.collect()
    repetition.rss_mb = peak_rss_mb()
    return repetition


def latency_summary(recorder: Recorder, sim_seconds: float) -> dict[str, float]:
    """The four simulated end-to-end metrics of one repetition.  A
    failed operation misses the latency limit whatever its latency was;
    the operations of a batch share the batch's latency."""
    ordered = sorted(recorder.latencies)
    tail = tail_quantile(len(ordered))
    return {
        "sim_op_p50_us": percentile(ordered, 0.5) * 1e6,
        "sim_op_p99_us": percentile(ordered, tail) * 1e6,
        "sim_ops_per_s": recorder.attempted / sim_seconds if sim_seconds > 0 else 0.0,
        "sim_slo_met_share": recorder.met / max(recorder.attempted, 1),
        "harness.sim_tail_quantile": tail,
        "harness.latency_samples": float(len(ordered)),
    }


# ----------------------------------------------------------------------
# one run = several repetitions + self-checks
# ----------------------------------------------------------------------
#: end-to-end metric -> (unit, better); bounds live in BENCHMARK.json.
END_TO_END = {
    "wall_ops_per_s": ("1/s", "higher"),
    "wall_us_per_rpc": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "sim_op_p50_us": ("us", "lower"),
    "sim_op_p99_us": ("us", "lower"),
    "sim_ops_per_s": ("1/s", "higher"),
    "sim_slo_met_share": ("ratio", "higher"),
}

#: Peak RSS after the last repetition may exceed peak RSS after the first
#: by this factor at most: more means deployments are not being released
#: (a prototype that kept them grew 250 -> 480 -> 710 MB).  The *peak* is
#: compared because resident memory after a free depends on what the
#: allocator happens to hand back to the kernel.
RSS_GROWTH_LIMIT = 1.10
#: plus this much: fragmentation on a 30 MB process is not a leak.
RSS_SLACK_MB = 8.0


def summarise(repetitions: list[Repetition], bounds: dict[str, float]) -> dict[str, Any]:
    """Reduce the repetitions of a run; raise on a failed self-check."""
    first = repetitions[0]
    for index, other in enumerate(repetitions[1:], start=2):
        if other.exact != first.exact:
            moved = sorted(
                name
                for name in set(first.exact) | set(other.exact)
                if first.exact.get(name) != other.exact.get(name)
            )
            raise BenchmarkError(
                f"repetition {index} is not identical to repetition 1 in "
                f"{moved[:8]}: the simulation is not deterministic"
            )
        if (other.attempted, other.failed) != (first.attempted, first.failed):
            raise BenchmarkError("attempted/failed counts differ between repetitions")
    if len(repetitions) >= 3:
        if repetitions[-1].rss_mb > RSS_GROWTH_LIMIT * repetitions[0].rss_mb + RSS_SLACK_MB:
            raise BenchmarkError(
                f"peak resident memory grew from {repetitions[0].rss_mb:.0f} MB after the "
                f"first repetition to {repetitions[-1].rss_mb:.0f} MB after the last: "
                "deployments are not released between repetitions"
            )

    rpcs_per_op = first.exact["margo.runtime.rpcs_per_op"]
    samples = {
        "wall_ops_per_s": [1.0 / r.norm_s_per_op for r in repetitions],
        "wall_us_per_rpc": [r.norm_s_per_op * 1e6 / rpcs_per_op for r in repetitions],
        "setup_s": [r.setup_norm_s for r in repetitions],
    }
    end_to_end: dict[str, dict[str, Any]] = {}
    for name, values in samples.items():
        q1, mid, q3 = quartiles(values)
        end_to_end[name] = {
            "value": mid,
            "q1": q1,
            "q3": q3,
            "samples": len(values),
            "spread": spread(values),
        }
    end_to_end["peak_rss_mb"] = {"value": peak_rss_mb(), "samples": 1}
    for name in ("sim_op_p50_us", "sim_op_p99_us", "sim_ops_per_s", "sim_slo_met_share"):
        end_to_end[name] = {
            "value": first.exact[name],
            "samples": int(first.exact["harness.latency_samples"]),
            "exact": True,
        }
    end_to_end = {name: end_to_end[name] for name in END_TO_END}  # the declared order
    for name, entry in end_to_end.items():
        entry["unit"], entry["better"] = END_TO_END[name]
        bound = bounds.get(name)
        entry["bound"] = bound
        # Within one run only setup_s is exempt: its spread is the
        # driver's business across runs, not across repetitions.
        entry["unresolved"] = bool(
            bound is not None
            and name.startswith("wall_")
            and entry.get("spread", 0.0) > bound
        )
    raw_rate = statistics.median(r.attempted / r.wall_s for r in repetitions)
    harness = {
        "harness.raw_ops_per_s": raw_rate,
        "harness.calib_ms": statistics.median(r.calib_ms for r in repetitions),
        "harness.raw_setup_s": statistics.median(r.setup_wall_s for r in repetitions),
        "harness.segments": float(first.segments),
        "harness.peak_rss_after_first_mb": repetitions[0].rss_mb,
        "harness.peak_rss_after_last_mb": repetitions[-1].rss_mb,
    }
    return {
        "attempted": first.attempted,
        "failed": first.failed,
        "failures": first.failures,
        "end_to_end": end_to_end,
        "exact": dict(first.exact),
        "harness": harness,
        "repetitions": len(repetitions),
    }


def run_untraced(
    workload: Any,
    inputs: Any,
    bounds: dict[str, float],
    repetitions: int = REPETITIONS,
    on_repetition: Optional[Callable[[int, Repetition], None]] = None,
) -> dict[str, Any]:
    done: list[Repetition] = []
    for index in range(repetitions):
        repetition = run_repetition(workload, inputs)
        done.append(repetition)
        if on_repetition is not None:
            on_repetition(index, repetition)
    return summarise(done, bounds)
