"""LoadEstimator: measured windows -> Pufferscale ``Shard`` inputs.

Pufferscale's planner (:func:`repro.pufferscale.plan_rebalance`) works on
``Shard(load=..., size_bytes=...)`` values.  Until now those were fed by
hand (synthetic loads); this estimator derives them from what the
continuous profiler actually measured -- per-provider request rates and
payload bytes over the last ``smoothing`` closed windows -- so the
rebalancing loop runs on observations instead of assumptions.

The estimator is pure arithmetic over profile documents
(``$__profile__``): no I/O, no clocks, fully deterministic.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["LoadEstimator"]


class LoadEstimator:
    """Reduce per-provider window measurements to load/size estimates.

    ``smoothing`` is the number of most-recent closed windows averaged
    per process; more windows smooth bursts at the cost of reaction
    time.  Loads are request rates (requests / simulated second), sizes
    are the bytes observed in the averaged span -- both deterministic
    functions of the input documents.
    """

    def __init__(self, smoothing: int = 3) -> None:
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {smoothing}")
        self.smoothing = smoothing

    def estimate(self, profile_doc: dict[str, Any]) -> dict[str, dict[str, float]]:
        """Per-provider-key estimates from one process's profile windows
        (``profile_doc["windows"]``): ``{provider_key: {load, bytes_in, bytes_out}}``."""
        windows = profile_doc.get("windows", [])[-self.smoothing:]
        if not windows:
            return {}
        totals: dict[str, dict[str, float]] = {}
        span = 0.0
        for window in windows:
            span += window["end"] - window["start"]
            for key, entry in window.get("providers", {}).items():
                acc = totals.get(key)
                if acc is None:
                    acc = totals[key] = {
                        "requests": 0.0, "bytes_in": 0.0, "bytes_out": 0.0,
                    }
                acc["requests"] += entry["requests"]
                acc["bytes_in"] += entry["bytes_in"]
                acc["bytes_out"] += entry["bytes_out"]
        return {
            key: {
                "load": acc["requests"] / span if span > 0 else 0.0,
                "bytes_in": acc["bytes_in"],
                "bytes_out": acc["bytes_out"],
            }
            for key, acc in sorted(totals.items())
        }

    @staticmethod
    def merge(
        per_process: Iterable[dict[str, dict[str, float]]],
    ) -> dict[str, dict[str, float]]:
        """Merge per-process estimate maps (provider keys are unique per
        process in a well-formed deployment; on collision, rates add)."""
        merged: dict[str, dict[str, float]] = {}
        for estimates in per_process:
            for key, entry in estimates.items():
                acc = merged.get(key)
                if acc is None:
                    merged[key] = dict(entry)
                else:
                    for field, value in entry.items():
                        acc[field] = acc.get(field, 0.0) + value
        return dict(sorted(merged.items()))
