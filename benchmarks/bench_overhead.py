"""Overhead gates: what each optional layer costs the hot paths.

Every observer and checker in the stack -- the runtime checker
(mochi-race), the health plane, the continuous profiler and the xray
paths it records, tracing + metrics --
promises to be free when off and affordable at its documented sampled
setting.  This is the one runner that prices those promises on the two
workload shapes of ``_harness.py`` (kernel callback swarm, echo RPC).

``ROWS`` is the whole specification: each row compares a *test* arm
against a *base* arm of the same group, and a group's arms run
interleaved in palindrome-ordered paired rounds (``_harness.run_rounds``)
so machine drift cancels within a round.  A row's statistic is

* ``overhead`` -- ``1 - 1/r`` for ``r`` the median per-round wall ratio
  test/base;
* ``ratio`` -- ``r`` itself;
* ``added_us`` -- the median per-round test-minus-base cost in µs per
  RPC, each round normalised by the e2e benchmark's calibration loop
  (``benchmarks/e2e/measure.calibrate``) so that it reads as µs on the
  reference machine.  An observer's fixed per-RPC cost is gated here
  rather than as a share, which grows every time the RPC path gets
  cheaper;

and a row fails when its value is above its bound; a bound of ``None``
makes the row informational.  Only ``added_us`` rows are gated.  The
wall ratios of the off-path arms (a plane off, cycled, or on and idle
against its base) are informational: their promise, no call per
request, is checked as exact Python call counts by
``tests/test_offpath_calls.py`` over these same ``ARMS``, with the same
verdict on every host.  Groups are kept
small on purpose: the further apart two paired runs sit inside a round,
the more drift reads as phantom overhead, so each xray gate has its own
two-arm group.

Usage::

    PYTHONPATH=src python benchmarks/bench_overhead.py          # gates; exit 1 on a failed one
    PYTHONPATH=src python benchmarks/bench_overhead.py --smoke  # tiny sizes, deterministic facts only

The default run writes ``benchmarks/results/OVERHEAD.json`` (every
round's walls, each arm's median and quartiles, every row).  ``--smoke``
runs the identical code at tiny sizes, writes nothing, and checks only
the facts that do not depend on the host clock (``check_facts``).
"""

from __future__ import annotations

# mochi-lint: disable-file=MCH001 -- this runner measures real wall-clock
# throughput of the simulator itself; it never runs under the kernel.

import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(__file__), "e2e"))

from _harness import (  # noqa: E402
    OBS_OFF,
    bench_kernel_swarm,
    bench_rpc_echo,
    median,
    paired_ratio,
    run_rounds,
)
from common import print_table, save_results  # noqa: E402
from measure import CALIB_REF_S, calibrate  # noqa: E402

from repro.analysis.race import hooks  # noqa: E402

#: Sampling period that only ever stamps request 1: the pure skip path.
NEVER = 1 << 30


def _profiled(**extra) -> dict:
    knobs = {"tracing": False, "metrics": False, "profiling": True, "profile_window": 1e-2}
    return {"observability": dict(knobs, **extra)}


def _rpc(config: dict, **kwargs):
    return lambda size: bench_rpc_echo(size["n_rpcs"], config, **kwargs)


def _swarm(size: dict) -> dict:
    return bench_kernel_swarm(size["n_tasks"], size["n_steps"])


def _race_on(arm):
    """``arm`` with the whole runtime checker on in record mode: the
    ``enable`` call ``REPRO_SANITIZE=race`` makes, the mode CI runs."""

    def run(size):
        hooks.enable(strict=False)
        try:
            return arm(size)
        finally:
            hooks.disable()
            hooks.reset()

    return run


def _race_cycled(arm):
    """``arm`` after enabling and disabling the checker: prices the
    restored path, not the checker."""

    def run(size):
        hooks.enable()
        hooks.disable()
        hooks.reset()
        return arm(size)

    return run


ARMS = {
    "kernel": _swarm,
    "kernel_race_on": _race_on(_swarm),
    "rpc_off": _rpc(OBS_OFF),
    "rpc_race_on": _race_on(_rpc(OBS_OFF)),
    "rpc_race_cycled": _race_cycled(_rpc(OBS_OFF)),
    # Every observability knob present and false.
    "rpc_explicit_off": _rpc(
        {"observability": {"tracing": False, "metrics": False, "profiling": False}}
    ),
    "rpc_health_on": _rpc(OBS_OFF, health=True),
    "rpc_traced": _rpc({"observability": {"tracing": True, "metrics": True}}),
    "rpc_profiled_full": _rpc(_profiled()),
    # A window short enough to rotate many times during the run.
    "rpc_profiled_rotating": _rpc(_profiled(profile_window=1e-4)),
    # The documented always-on setting: decompose every 64th request.
    "rpc_profiled_sampled": _rpc(_profiled(profile_sample_every=64)),
    "rpc_profiled_unsampled": _rpc(_profiled(profile_sample_every=NEVER)),
    "rpc_xray_unsampled": _rpc(_profiled(profile_sample_every=NEVER, xray=True)),
    "rpc_xray_sampled": _rpc(_profiled(profile_sample_every=64, xray=True)),
    "rpc_xray_full": _rpc(_profiled(xray=True)),
    # The observer stack the churn workload keeps on (minus its Listing-1
    # monitor): tracing at 1/64, metrics, profiling every 64th request.
    "rpc_traced_sampled": _rpc(
        _profiled(tracing=True, trace_sample_rate=1 / 64, metrics=True, profile_sample_every=64)
    ),
}

#: ``added_us`` bounds, µs per RPC on the reference machine: the median
#: of what each observer cost, measured with this statistic, at the
#: commit before the one that introduced it (EXPERIMENTS.md "Overhead
#: gates"), rounded down.  The matching shares are printed as info.
RACE_US = 8.1
#: The sampled planes' bounds are halfway between the medians of three
#: runs each before and after a change that cut them, rounded down: for
#: these three, before (4.16 / 5.01 / 13.09) and after (3.86 / 4.60 /
#: 7.76) the trace decision became an integer on a slotted request and
#: hook sites stopped calling hooks that do not listen.
PROFILED_SAMPLED_US = 4.0
XRAY_SAMPLED_US = 4.8
TRACED_SAMPLED_US = 10.4

#: (group, base arm, test arm, statistic, bound or None = informational).
ROWS = [
    ("race", "kernel", "kernel_race_on", "overhead", None),
    ("race_rpc", "rpc_off", "rpc_race_on", "added_us", RACE_US),
    ("race_rpc", "rpc_off", "rpc_race_on", "overhead", None),
    ("offpath", "rpc_off", "rpc_race_cycled", "ratio", None),
    ("offpath", "rpc_off", "rpc_explicit_off", "ratio", None),
    ("health", "rpc_off", "rpc_health_on", "ratio", None),
    ("profiled_sampled", "rpc_off", "rpc_profiled_sampled", "added_us", PROFILED_SAMPLED_US),
    ("profiled_sampled", "rpc_off", "rpc_profiled_sampled", "overhead", None),
    ("xray_offpath", "rpc_profiled_unsampled", "rpc_xray_unsampled", "ratio", None),
    ("xray_sampled", "rpc_off", "rpc_xray_sampled", "added_us", XRAY_SAMPLED_US),
    ("xray_sampled", "rpc_off", "rpc_xray_sampled", "overhead", None),
    ("xray_full", "rpc_off", "rpc_xray_full", "overhead", None),
    ("traced_sampled", "rpc_off", "rpc_traced_sampled", "added_us", TRACED_SAMPLED_US),
    ("traced_sampled", "rpc_off", "rpc_traced_sampled", "overhead", None),
    ("observers_on", "rpc_off", "rpc_profiled_full", "overhead", None),
    ("observers_on", "rpc_off", "rpc_profiled_rotating", "overhead", None),
    ("observers_on", "rpc_off", "rpc_traced", "overhead", None),
]

#: Rounds and workload sizes per group.  The ``added_us`` groups take
#: many short two-arm rounds: with 96, the median moves by a few tenths
#: of a microsecond from run to run.
SIZES = {
    "race": dict(repeats=6, n_tasks=300, n_steps=50),
    "race_rpc": dict(repeats=96, n_rpcs=1000),
    "offpath": dict(repeats=6, n_rpcs=2500),
    "health": dict(repeats=6, n_rpcs=5000),
    "profiled_sampled": dict(repeats=96, n_rpcs=1000),
    "xray_offpath": dict(repeats=20, n_rpcs=2500),
    "xray_sampled": dict(repeats=96, n_rpcs=1000),
    "xray_full": dict(repeats=3, n_rpcs=2500),
    "traced_sampled": dict(repeats=96, n_rpcs=1000),
    "observers_on": dict(repeats=6, n_rpcs=2500),
}
SMOKE = dict(repeats=1, n_tasks=40, n_steps=10, n_rpcs=60)

#: Test arms that must leave simulated time exactly where the base arm
#: leaves it; every other test arm models observation as cost and must
#: move it forward.  xray is no monitor: over the profiler it rides, it
#: is charged nothing.
SAME_SIM_TIME = {
    "kernel_race_on", "rpc_race_on", "rpc_race_cycled", "rpc_explicit_off", "rpc_health_on",
    "rpc_xray_unsampled",
}


def run_groups(smoke: bool) -> dict:
    """Run every group's arms; per group: sizes, per-round walls, each
    round's calibration, and each arm's best stats with the median and
    quartiles of its walls."""
    groups = {}
    for group, size in SIZES.items():
        size = SMOKE if smoke else size
        names = list(dict.fromkeys(arm for row in ROWS if row[0] == group for arm in row[1:3]))
        calibrations = []  # one after every run, in run order

        def calibrated(arm):
            stats = arm(size)
            calibrations.append(calibrate())
            return stats

        best, rounds = run_rounds(
            size["repeats"], {name: (lambda arm=ARMS[name]: calibrated(arm)) for name in names}
        )
        # A round is normalised by the median of its calibrations, not
        # each run by the one after it, which sees that run's heap.
        per_round = 2 * len(names)
        round_calib = [
            median(calibrations[i * per_round:(i + 1) * per_round]) for i in range(len(rounds))
        ]
        for name in names:
            walls = [walls[name] for walls in rounds]
            q1, q2, q3 = (
                statistics.quantiles(walls, n=4, method="inclusive")
                if len(walls) > 1
                else walls * 3
            )
            best[name].update(median_s=q2, q1_s=q1, q3_s=q3)
        groups[group] = {
            "sizes": dict(size), "rounds": rounds, "round_calib_s": round_calib, "arms": best,
        }
    return groups


def compare(groups: dict) -> list[dict]:
    """One output row per ``ROWS`` entry, with its verdict."""
    out = []
    for group, base, test, statistic, bound in ROWS:
        arms, rounds = groups[group]["arms"], groups[group]["rounds"]
        ratio = paired_ratio(rounds, test, base)
        best_wall = arms[test]["wall_s"] / arms[base]["wall_s"]
        if statistic == "overhead":
            value = 1.0 - 1.0 / ratio
        elif statistic == "added_us":
            # An arm's round wall covers two runs of n RPCs each.
            scale = CALIB_REF_S / (2 * groups[group]["sizes"]["n_rpcs"]) * 1e6
            value = median(
                [(r[test] - r[base]) / calib * scale
                 for r, calib in zip(rounds, groups[group]["round_calib_s"])]
            )
        else:
            value = ratio
        failed = bound is not None and value > bound
        verdict = "info" if bound is None else "FAIL" if failed else "pass"
        out.append(
            dict(group=group, base=base, test=test, statistic=statistic, value=value,
                 best_wall_ratio=best_wall, bound=bound, verdict=verdict)
        )
    return out


def check_facts(groups: dict) -> None:
    """What must hold at any size on any machine."""
    for group, base, test, _statistic, _bound in ROWS:
        arms = groups[group]["arms"]
        b, t = arms[base], arms[test]
        count = "events" if "events" in b else "rpcs"
        assert b[count] == t[count] > 0, (test, b[count], t[count])
        if count == "rpcs":
            assert b["rpcs"] == groups[group]["sizes"]["n_rpcs"]
        if test in SAME_SIM_TIME:
            assert t["sim_time"] == b["sim_time"], (test, t["sim_time"], b["sim_time"])
        else:
            assert t["sim_time"] > b["sim_time"], (test, t["sim_time"], b["sim_time"])
    arms = {name: stats for group in groups.values() for name, stats in group["arms"].items()}
    # The plane really attached, and stayed silent on a healthy run.
    assert arms["rpc_health_on"]["health"] and arms["rpc_health_on"]["recorder_events"] == 0
    # Profiled arms really profiled: windows closed, waterfalls kept
    # (the ring holds 32; only request 1 when nothing else is stamped).
    assert arms["rpc_profiled_rotating"]["windows_closed"] > 0
    assert arms["rpc_profiled_full"]["waterfalls"] == 32
    assert 0 < arms["rpc_profiled_sampled"]["waterfalls"] <= 32
    assert arms["rpc_profiled_unsampled"]["waterfalls"] == 1
    # Sampling really gated xray recording: one path when only request 1
    # is stamped, fewer sampled than full; the profiler-only arm grows no
    # plane at all.
    assert "xray_paths" not in arms["rpc_profiled_unsampled"]
    assert arms["rpc_xray_unsampled"]["xray_paths"] == 1
    assert 0 < arms["rpc_xray_sampled"]["xray_paths"] < arms["rpc_xray_full"]["xray_paths"]
    # Trace sampling really dropped whole traces, and kept some.
    assert 0 < arms["rpc_traced_sampled"]["spans"] < arms["rpc_traced"]["spans"]


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    groups = run_groups(smoke)
    rows = compare(groups)
    check_facts(groups)
    print_table("overhead gates" + (" (smoke: values are noise)" if smoke else ""), rows)
    if smoke:
        print("overhead smoke OK")
        return 0
    failures = [row for row in rows if row["verdict"] == "FAIL"]
    save_results("OVERHEAD", {"groups": groups, "rows": rows, "passed": not failures})
    for row in failures:
        print(
            f"GATE FAILED: {row['group']}: {row['test']} vs {row['base']} "
            f"{row['statistic']} {row['value']:.4f} against {row['bound']}"
        )
    return 1 if failures else 0


def test_overhead_smoke():
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
