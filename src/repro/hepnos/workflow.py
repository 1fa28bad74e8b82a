"""A NOvA-like multi-step workflow generator.

The paper's motivating example (section 1): "the high-energy physics
NOvA workflow presents steps with vastly different I/O patterns ... the
best configuration of the service for one step of the workflow is not
necessarily the best for other steps."

Three step archetypes with deliberately different I/O shapes:

* **ingest** -- write-heavy, large event products (favors many shards:
  parallel ingestion bandwidth);
* **filter** -- read-modify-write of small products (mixed);
* **analysis** -- scan-heavy (``list_events`` + targeted reads; favors
  few shards: every scan pays a per-shard fan-out cost).

``run_step`` executes a step against a :class:`HEPnOSClient` and reports
its wall (simulated) time -- the measurement E12 compares across static
and dynamic configurations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Optional

from .datamodel import EventKey
from .service import HEPnOSClient

__all__ = ["WorkflowStep", "nova_like_workflow", "run_step", "StepReport"]


@dataclass(frozen=True)
class WorkflowStep:
    """One step of the workflow."""

    name: str
    kind: str  # "ingest" | "filter" | "analysis"
    num_events: int
    product_size: int
    num_scans: int = 0
    reads_per_scan: int = 8
    dataset: str = "nova"

    def __post_init__(self) -> None:
        if self.kind not in ("ingest", "filter", "analysis"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.num_events < 0 or self.product_size < 0 or self.num_scans < 0:
            raise ValueError("step parameters must be non-negative")


@dataclass(frozen=True)
class StepReport:
    step: str
    kind: str
    duration: float
    operations: int


def nova_like_workflow(
    scale: int = 1, dataset: str = "nova"
) -> list[WorkflowStep]:
    """The canonical 3-step workflow, sized by ``scale``."""
    return [
        WorkflowStep(
            name="ingest",
            kind="ingest",
            num_events=120 * scale,
            product_size=64 * 1024,
            dataset=dataset,
        ),
        WorkflowStep(
            name="filter",
            kind="filter",
            num_events=80 * scale,
            product_size=1024,
            dataset=dataset,
        ),
        WorkflowStep(
            name="analysis",
            kind="analysis",
            num_events=40 * scale,
            product_size=256,
            num_scans=30 * scale,
            dataset=dataset,
        ),
    ]


def run_step(
    client: HEPnOSClient,
    step: WorkflowStep,
    rng: random.Random,
    run_number: int = 0,
) -> Generator:
    """Execute one step; returns a :class:`StepReport`."""
    kernel = client.margo.kernel
    started = kernel.now
    operations = 0

    if step.kind == "ingest":
        batch: list[tuple[EventKey, str, bytes]] = []
        for i in range(step.num_events):
            key = EventKey(step.dataset, run_number, i // 100, i % 100)
            payload = bytes(rng.randrange(256) for _ in range(8)) * (
                step.product_size // 8
            )
            batch.append((key, "raw", payload))
            if len(batch) >= 32:
                yield from client.store_batch(batch)
                operations += len(batch)
                batch = []
        if batch:
            yield from client.store_batch(batch)
            operations += len(batch)

    elif step.kind == "filter":
        for i in range(step.num_events):
            key = EventKey(step.dataset, run_number, i // 100, i % 100)
            exists = yield from client.event_exists(key, "raw")
            if exists:
                data = yield from client.load_event(key, "raw")
                digest = bytes([sum(data[:64]) % 256]) * step.product_size
                yield from client.store_event(key, "filtered", digest)
                operations += 3
            else:
                operations += 1

    elif step.kind == "analysis":
        for _ in range(step.num_scans):
            keys = yield from client.iterate_events(step.dataset, run=run_number)
            operations += 1
            stride = max(1, len(keys) // max(1, step.reads_per_scan))
            for raw in keys[::stride][: step.reads_per_scan]:
                from .datamodel import decode_event_key

                key, product = decode_event_key(raw)
                if product:
                    yield from client.load_event(key, product)
                    operations += 1

    return StepReport(
        step=step.name,
        kind=step.kind,
        duration=kernel.now - started,
        operations=operations,
    )
