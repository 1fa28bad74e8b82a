"""Deterministic schedule explorer: the dynamic half of mochi-race.

The happens-before engine proves that two accesses *could* run in either
order; the explorer proves whether the order *matters*.  A scenario --
any zero-argument callable that builds a cluster, drives it, and returns
a dict of **schedule-invariant facts** (final KV contents, blob
checksums, "exactly one leader") -- is run once unperturbed and then
once per seed with :data:`repro.analysis.race.hooks.PERTURB` installed,
which makes every stream's pool pop pick a seeded-random ready ULT instead of
the head.  Any pop order is a legal cooperative schedule, so a final
state whose digest differs from the baseline is an order-dependent
outcome (MCH032), pinned to the first scheduling event (pool push or
timer fire) where the perturbed trace diverges from the baseline.

Determinism contract: for the same scenario and the same seed, two
explorations produce byte-identical reports.  The ULT name counter is
rewound before every run so ULT names (which appear in traces and
finding messages) do not leak across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..findings import Finding
from . import hooks

__all__ = ["RunResult", "ExplorationReport", "explore", "state_digest"]


def state_digest(facts: dict[str, Any]) -> str:
    """Canonical digest of a scenario's schedule-invariant facts."""
    blob = json.dumps(facts, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class RunResult:
    """One scenario execution under one perturbation seed."""

    seed: Optional[int]  # None = unperturbed baseline
    digest: str
    trace: list[str]
    findings: list[Finding]


@dataclass
class ExplorationReport:
    """Everything one :func:`explore` call learned about a scenario."""

    scenario: str
    baseline: RunResult
    runs: list[RunResult]
    #: Baseline HB/lock findings plus one MCH032 per diverging seed.
    findings: list[Finding]

    @property
    def diverging(self) -> list[RunResult]:
        return [run for run in self.runs if run.digest != self.baseline.digest]

    @property
    def clean(self) -> bool:
        return not self.findings


def _first_divergence(base: list[str], other: list[str]) -> str:
    for index, (a, b) in enumerate(zip(base, other)):
        if a != b:
            return f"event #{index}: baseline {a!r} vs perturbed {b!r}"
    if len(base) != len(other):
        index = min(len(base), len(other))
        longer = base if len(base) > len(other) else other
        tag = "baseline" if len(base) > len(other) else "perturbed"
        return f"event #{index}: only the {tag} trace has {longer[index]!r}"
    return "traces identical (state diverged without a trace-visible event)"


def explore(
    scenario: Callable[[], dict[str, Any]],
    name: str,
    seeds: Sequence[int] = tuple(range(1, 9)),
) -> ExplorationReport:
    """Run ``scenario`` unperturbed plus once per seed; diff digests."""
    from ...margo.ult import ULT_IDS

    start_id = ULT_IDS.last
    was_enabled, was_strict = hooks.ENABLED, hooks._strict

    def one_run(seed: Optional[int]) -> RunResult:
        ULT_IDS.last = start_id  # every run names its ULTs the same way
        hooks.disable()
        # Full precision: the explorer's divergence pinpointing needs a
        # complete fire trace, so timer-edge sampling is turned off here.
        hooks.enable(exact=True)
        trace: list[str] = []
        hooks.TRACE = trace
        hooks.set_perturbation(seed)
        try:
            facts = scenario()
        finally:
            run_findings = list(hooks.findings)
            hooks.set_perturbation(None)
            hooks.TRACE = None
        return RunResult(seed, state_digest(facts), trace, run_findings)

    baseline = one_run(None)
    runs = [one_run(seed) for seed in seeds]
    hooks.disable()
    if was_enabled:
        hooks.enable(strict=was_strict)
    findings = list(baseline.findings)
    for run in runs:
        if run.digest != baseline.digest:
            findings.append(
                hooks.report_order_dependence(
                    name, run.seed, _first_divergence(baseline.trace, run.trace)
                )
            )
    return ExplorationReport(
        scenario=name, baseline=baseline, runs=runs, findings=findings
    )
