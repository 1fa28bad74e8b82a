"""Streaming statistics (Welford) rendered in the paper's JSON shape.

Listing 1 shows duration statistics as ``{"num": 3, "avg": ..., "max":
...}``; :class:`RunningStats` accumulates those plus min/var/sum in one
pass with O(1) state.
"""

from __future__ import annotations

from typing import Any

__all__ = ["RunningStats"]


class RunningStats:
    """Single-pass mean/variance/min/max accumulator."""

    __slots__ = ("num", "_mean", "_m2", "min", "max", "sum")

    def __init__(self) -> None:
        self.num = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.sum = 0.0

    def update(self, value: float) -> None:
        self.num += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        delta = value - self._mean
        self._mean += delta / self.num
        self._m2 += delta * (value - self._mean)

    @property
    def avg(self) -> float:
        return self._mean if self.num else 0.0

    @property
    def var(self) -> float:
        """Population variance."""
        return self._m2 / self.num if self.num else 0.0

    def merge(self, other: "RunningStats") -> None:
        """Combine another accumulator into this one (parallel Welford)."""
        if other.num == 0:
            return
        if self.num == 0:
            self.num = other.num
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.sum = other.sum
            return
        total = self.num + other.num
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.num * other.num / total
        self._mean = (self._mean * self.num + other._mean * other.num) / total
        self.num = total
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_json(self) -> dict[str, Any]:
        """Listing-1-style rendering."""
        if self.num == 0:
            return {"num": 0}
        return {
            "num": self.num,
            "avg": self.avg,
            "min": self.min,
            "max": self.max,
            "var": self.var,
            "sum": self.sum,
        }
