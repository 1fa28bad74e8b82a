"""Plan execution via dependency injection.

Pufferscale "simply works out a rebalancing plan and carries it out by
calling functions provided via dependency injection" (paper section 6,
Observation 6): the executor never learns what a shard *is* -- the
service supplies a ``migrate(shard, source, destination)`` ULT
generator (typically REMI-backed) and the executor drives it, node-pairs
in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..core.parallel import parallel
from ..margo.runtime import MargoInstance
from .planner import MigrationPlan

__all__ = ["PlanExecutor", "ExecutionReport"]


@dataclass(frozen=True)
class ExecutionReport:
    """What happened when a plan ran."""

    moves_executed: int
    bytes_moved: int
    duration: float


class PlanExecutor:
    """Carries out a :class:`MigrationPlan` with an injected migrator."""

    def __init__(
        self,
        margo: MargoInstance,
        migrate: Callable[[Any, str, str], Generator],
        max_parallel: int = 4,
    ) -> None:
        if max_parallel <= 0:
            raise ValueError("max_parallel must be positive")
        self.margo = margo
        self.migrate = migrate
        self.max_parallel = max_parallel
        self.moves_executed = self.bytes_moved = self.rebalances = 0
        for counter in ("moves_executed", "bytes_moved", "rebalances"):
            margo.export(f"pufferscale_{counter}", self, counter)

    def execute(self, plan: MigrationPlan) -> Generator:
        """Run every move; returns an :class:`ExecutionReport`.

        Moves are grouped into waves that never reuse a node within a
        wave (migrations between disjoint node pairs run concurrently;
        a node's NIC/disk is the serialization point).
        """
        started = self.margo.kernel.now
        remaining = list(plan.moves)
        executed = 0
        moved_bytes = 0
        while remaining:
            wave: list = []
            busy: set[str] = set()
            rest: list = []
            for move in remaining:
                if (
                    len(wave) < self.max_parallel
                    and move.source not in busy
                    and move.destination not in busy
                ):
                    wave.append(move)
                    busy.add(move.source)
                    busy.add(move.destination)
                else:
                    rest.append(move)
            remaining = rest
            yield from parallel(
                self.margo,
                [self.migrate(m.shard, m.source, m.destination) for m in wave],
            )
            executed += len(wave)
            moved_bytes += sum(m.shard.size_bytes for m in wave)
        self.moves_executed += executed
        self.bytes_moved += moved_bytes
        self.rebalances += 1
        if self.margo.tracer is not None:
            self.margo.tracer.record_span(
                "rebalance",
                "rebalance",
                self.margo.process.name,
                started,
                self.margo.kernel.now,
                attributes={"moves": executed, "bytes": moved_bytes},
            )
        return ExecutionReport(
            moves_executed=executed,
            bytes_moved=moved_bytes,
            duration=self.margo.kernel.now - started,
        )
