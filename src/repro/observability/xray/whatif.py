"""Coz-style what-if engine: virtual speedup of candidate actions.

For each high-excess segment of the differential profile, map it to the
reconfiguration action that would plausibly shrink it, then *replay the
recorded paths* with that segment's durations scaled by ``1 - SHRINK``
and re-read the p99 off the virtual totals.  This is causal profiling
in miniature (Curtsinger & Berger's Coz, inverted): instead of slowing
everything else down at run time, we shrink the candidate segment on
paths we already recorded -- valid because one recorded path is a
causal chain, so removing wait time from a segment removes it from that
request's end-to-end latency one-for-one.

The model deliberately ignores second-order effects (shrinking a queue
wait also drains the queue faster for *other* requests), which makes
predictions conservative for queueing bottlenecks: the realized
improvement of adding an xstream is typically *larger* than predicted.
The controller records predicted-vs-realized so the error is visible.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from .attribution import nearest_rank, segment_key

__all__ = ["SHRINK", "what_if", "candidate_for"]

#: Fraction of the attributed segment assumed removable by the action.
#: 0.5 is deliberately conservative: adding one xstream to a one-xstream
#: pool at most halves queue waits; a migration relocates roughly half
#: of a convoy's contention.  Documented in DESIGN.md section 11.
SHRINK = 0.5

#: Which reconfiguration verb plausibly shrinks which phase.
_ACTION_FOR_PHASE = {
    "sched": "add_xstream",  # queue wait: more executors on that pool
    "lock": "migrate_provider",  # convoy: split the contenders apart
    "park": "migrate_provider",
    "handler": "migrate_provider",  # compute-bound: offload the provider
    "network": "add_node",  # wire time: spread traffic over more links
    "respond": "add_node",
    "client_queue": "add_node",
}


def candidate_for(
    segment: dict[str, Any], paths: Optional[list[dict[str, Any]]] = None
) -> Optional[dict[str, Any]]:
    """The candidate action for one attributed segment, or None for a
    phase no reconfiguration verb addresses."""
    action = _ACTION_FOR_PHASE.get(segment["phase"])
    if action is None:
        return None
    process = segment["process"]
    if action == "add_xstream":
        return {"action": action, "process": process, "target": segment["pool"]}
    if action == "migrate_provider":
        # Name the provider that dominates this segment: the most common
        # provider id among recorded paths containing the segment (ties
        # to the smallest id, so the choice is deterministic).
        key = segment_key(segment)
        counts: Counter[int] = Counter()
        for record in paths or ():
            if any(segment_key(s) == key for s in record["segments"]):
                counts[record["provider"]] += 1
        provider = min(
            (p for p, c in counts.items() if c == max(counts.values())),
            default=None,
        ) if counts else None
        return {
            "action": action,
            "process": process,
            "target": segment["pool"] or process,
            "provider": provider,
        }
    return {"action": action, "process": process, "target": process}


def what_if(
    paths: list[dict[str, Any]],
    attribution: dict[str, Any],
    shrink: float = SHRINK,
    top: int = 5,
) -> dict[str, Any]:
    """Rank candidate actions by predicted p99 improvement.

    Returns::

        {"p99": ..., "shrink": ...,
         "actions": [{"action", "process", "target", ...,
                      "segment": {...}, "predicted_p99",
                      "predicted_improvement"}, ...]}

    sorted by descending predicted improvement (ties lexicographic by
    action/target), so ``actions[0]`` is the recommendation.
    """
    totals = sorted(record["total"] for record in paths)
    p99 = nearest_rank(totals, 0.99)
    actions: list[dict[str, Any]] = []
    seen: set[tuple[str, str]] = set()
    for segment in attribution.get("segments", [])[:top]:
        if segment["excess"] <= 0.0:
            continue
        candidate = candidate_for(segment, paths)
        if candidate is None:
            continue
        dedup = (candidate["action"], str(candidate["target"]))
        if dedup in seen:
            continue
        seen.add(dedup)
        key = segment_key(segment)
        virtual = []
        for record in paths:
            cut = sum(
                s["duration"]
                for s in record["segments"]
                if segment_key(s) == key
            )
            virtual.append(record["total"] - shrink * cut)
        predicted_p99 = nearest_rank(sorted(virtual), 0.99)
        improvement = (p99 - predicted_p99) / p99 if p99 > 0 else 0.0
        actions.append(
            {
                **candidate,
                "segment": {
                    "process": segment["process"],
                    "pool": segment["pool"],
                    "phase": segment["phase"],
                    "excess": segment["excess"],
                },
                "predicted_p99": predicted_p99,
                "predicted_improvement": improvement,
            }
        )
    actions.sort(
        key=lambda a: (-a["predicted_improvement"], a["action"], str(a["target"]))
    )
    return {"p99": p99, "shrink": shrink, "actions": actions}
