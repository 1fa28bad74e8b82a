"""Workload ``kv_batch_scan``: Yokan used the other way.

Closed loop, 4 client ULTs on 2 client processes, one Bedrock-booted
server with one Yokan database on the ``ordered`` backend.  Clients move
keys in batches: ``put_multi`` and ``get_multi`` of 32 to 256 small
pairs (so batches fall on both sides of the 8 KiB bulk threshold) and
``list_keys`` prefix scans paged with ``max_keys``.  An operation is one
key moved or listed; a latency sample is one batch.

Why it exists: it uses ``yokan`` the opposite way from
``objstore_mixed`` (batch + range against single keys).  The per-RPC
cost of ``margo`` and ``sim.kernel`` is spread over ~100 keys, so those
layers do little, while ``mercury.estimate_size`` walking list payloads
and the backend's ``put_multi`` / ``get_multi`` / ``list_keys`` do most.
This is the workload where "stop re-walking batch payloads" must show
and where a gain on the echo path must not.

Each client ULT owns its key groups (``u<ult>/g<group>/k<index>``); a
group's keys are dense, so the dict model is one list of value numbers
per group and a scan's expected page is a slice.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Any

from repro import Cluster
from repro.bedrock import boot_process
from repro.yokan import YokanClient

from deploy import (
    CLIENT_PROCESSES,
    ULTS_PER_CLIENT,
    Deployment,
    add_clients,
    reduce_counts,
    run_per_plan,
    server_margo_doc,
    snapshot,
)
from measure import Recorder

PUT, GET, SCAN = "put_multi", "get_multi", "list_keys"
GROUPS_PER_ULT = 8
#: batch sizes, each used once per deck: 32, 40, ... 256 pairs.  Many
#: sizes, so that batch latency is a smooth distribution and its median
#: does not hop between two clusters from seed to seed.
BATCH_SIZES = list(range(32, 257, 8))
PAGE_SIZES = [64, 128]
VALUE_POOL = 4096
WARMUP_BATCH = 128
#: one put in four appends fresh keys to a group; the others overwrite.
EXTEND_EVERY = 4
YOKAN_PROVIDER_ID = 1


@dataclass
class UltPlan:
    keys: list[list[bytes]]  # per group: every key it will ever hold
    #: batches: (PUT, group, start, count, value_start)
    #:          (GET, group, start, stride, expected value numbers)
    #:          (SCAN, group, start_index, page, expected count)
    ops: list[tuple]
    initial: list[list[int]]  # per group: value number of each preloaded key
    final: list[list[int]]  # per group: value number of each key afterwards


@dataclass
class KvInputs:
    seed: int
    values: list[bytes]
    plans: list[UltPlan]


def plan_ult(rng: random.Random, ult: int, key_ops: int, initial_keys: int) -> UltPlan:
    model = [list(rng.randrange(VALUE_POOL) for _ in range(initial_keys))
             for _ in range(GROUPS_PER_ULT)]
    initial = [list(held) for held in model]
    ops: list[tuple] = []
    planned = puts = 0
    sizes: list[int] = []
    pages: list[int] = []

    def batch_size() -> int:
        if not sizes:
            sizes.extend(BATCH_SIZES)
            rng.shuffle(sizes)
        return sizes.pop()

    while planned < key_ops:
        # One round: two puts, two gets, then a scan of half that many keys.
        moved = 0
        for kind in (PUT, GET, PUT, GET):
            count = batch_size()
            group = rng.randrange(GROUPS_PER_ULT)
            held = model[group]
            if kind == PUT:
                puts += 1
                value_start = rng.randrange(VALUE_POOL - count)
                if puts % EXTEND_EVERY == 0:
                    start = len(held)
                    held.extend(range(value_start, value_start + count))
                else:
                    start = rng.randrange(len(held) - count + 1)
                    held[start:start + count] = range(value_start, value_start + count)
                ops.append((PUT, group, start, count, value_start))
            else:
                stride = rng.randrange(1, len(held) // count + 1)
                start = rng.randrange(len(held) - (count - 1) * stride)
                expected = array("H", held[start:start + count * stride:stride])
                ops.append((GET, group, start, stride, expected))
            moved += count
        group = rng.randrange(GROUPS_PER_ULT)
        if not pages:
            pages.extend(PAGE_SIZES)
        page = pages.pop()
        position = rng.randrange(len(model[group]))
        remaining = moved // 2
        while remaining > 0 and position < len(model[group]):
            listed = min(page, len(model[group]) - position)
            ops.append((SCAN, group, position, page, listed))
            position += listed
            remaining -= listed
            moved += listed
        planned += moved
    keys = [
        [f"u{ult}/g{group:02d}/k{index:06d}".encode() for index in range(len(model[group]))]
        for group in range(GROUPS_PER_ULT)
    ]
    return UltPlan(keys=keys, ops=ops, initial=initial, final=model)


def check_reply(kind: str, reply: Any, expected: Any) -> bool:
    """``expected`` is the list of values (get) or keys (scan) the dict
    model predicts; a put returns nothing."""
    return kind == PUT or reply == expected


class KvBatchScan:
    name = "kv_batch_scan"
    pinned_ops_per_s = 240_000
    segment_ops = 8_000
    setup_segment_ops = 8_000
    slo_limit_us = 340.0
    min_ops = 20_000
    yokan_backend = "ordered"
    #: keys per group loaded during set-up (a smoke test shrinks this;
    #: it must stay at least the largest batch).
    initial_keys = 512
    #: read-only batches each client ULT sends during set-up.
    warmup_batches = 1_000

    def generate(self, seed: int, ops: int) -> KvInputs:
        rng = random.Random(seed)
        values = [rng.randbytes(8) * rng.randrange(3, 12) for _ in range(VALUE_POOL)]
        ults = CLIENT_PROCESSES * ULTS_PER_CLIENT
        plans = [
            plan_ult(random.Random(rng.getrandbits(64)), index, ops // ults, self.initial_keys)
            for index in range(ults)
        ]
        return KvInputs(seed=seed, values=values, plans=plans)

    # -- set-up --------------------------------------------------------
    def build(self, inputs: KvInputs, tick: Any) -> Deployment:
        cluster = Cluster(seed=inputs.seed)
        document = {
            "margo": server_margo_doc(),
            "libraries": {"yokan": "libyokan.so"},
            "providers": [
                {
                    "name": "kv",
                    "type": "yokan",
                    "provider_id": YOKAN_PROVIDER_ID,
                    "pool": "rpc",
                    "config": {"database": {"type": "ordered"}},
                }
            ],
        }
        server, _bedrock = boot_process(cluster, "server0", "snode0", document)
        clients = add_clients(cluster, first_node="snode0")
        handles = [
            YokanClient(client).make_handle(server.address, YOKAN_PROVIDER_ID)
            for client in clients
        ]
        values = inputs.values

        def fill(db: Any, plan: UltPlan):
            for group, held in enumerate(plan.initial):
                keys = plan.keys[group]
                for start in range(0, len(held), 128):
                    chunk = held[start:start + 128]
                    yield from db.put_multi(
                        list(zip(keys[start:start + 128], [values[v] for v in chunk]))
                    )
                    tick(len(chunk))
            # Read-only warm-up: the first batches after boot are not
            # what a long-running service pays, and a set-up of a tenth
            # of a second is too short to time steadily.
            for batch in range(self.warmup_batches):
                keys = plan.keys[batch % GROUPS_PER_ULT][:WARMUP_BATCH]
                if batch % 4 == 3:
                    reply = yield from db.list_keys(prefix=keys[0][:-7], max_keys=WARMUP_BATCH)
                else:
                    reply = yield from db.get_multi(keys)
                if len(reply) != len(keys):
                    raise RuntimeError("warm-up batch came back short")
                tick(len(keys))

        deployment = Deployment(
            cluster=cluster, servers=[server], clients=clients, extra={"handles": handles}
        )
        run_per_plan(deployment, inputs.plans, lambda slot, plan: fill(handles[slot], plan))
        return deployment

    snapshot = staticmethod(snapshot)

    # -- timed phase ---------------------------------------------------
    def drive(self, deployment: Deployment, inputs: KvInputs, recorder: Recorder) -> None:
        cluster = deployment.cluster
        kernel = cluster.kernel
        done = recorder.done
        count_keys = recorder.count
        values = inputs.values
        handles = deployment.extra["handles"]

        def client_loop(slot: int, plan: UltPlan):
            db = handles[slot]
            keys = plan.keys
            for op in plan.ops:
                kind, group = op[0], op[1]
                held = keys[group]
                started = kernel.now
                try:
                    if kind == PUT:
                        _k, _g, start, count, value_start = op
                        yield from db.put_multi(
                            list(zip(held[start:start + count],
                                     values[value_start:value_start + count]))
                        )
                        ok = True
                    elif kind == GET:
                        _k, _g, start, stride, expected = op
                        count = len(expected)
                        reply = yield from db.get_multi(
                            held[start:start + count * stride:stride]
                        )
                        ok = check_reply(GET, reply, [values[v] for v in expected])
                    else:
                        _k, _g, position, page, count = op
                        reply = yield from db.list_keys(
                            prefix=held[0][:-7],
                            start_after=held[position - 1] if position else None,
                            max_keys=page,
                        )
                        ok = check_reply(SCAN, reply, held[position:position + count])
                    why = "" if ok else f"{kind} group {group}: wrong reply"
                except Exception as err:  # noqa: BLE001 - any failure is a failed op
                    ok, why = False, f"{kind} group {group}: {type(err).__name__}: {err}"
                count_keys(f"keys.{kind}", count)
                done(kind, kernel.now - started, ok, ops=count, why=why)

        run_per_plan(deployment, inputs.plans, client_loop)

    def reduce(self, deployment, inputs, recorder, before, after) -> dict[str, float]:
        exact = reduce_counts(recorder, before, after)
        for kind in (PUT, GET, SCAN):
            keys = recorder.counts.get(f"keys.{kind}", 0)
            exact[f"kv.{kind}.sim_us_per_key"] = (
                sum(recorder.by_kind.get(kind, ())) * 1e6 / keys if keys else 0.0
            )
        exact["yokan.keys_per_rpc"] = recorder.attempted / max(exact["harness.rpcs"], 1.0)
        return exact

    # -- final-state check ---------------------------------------------
    def verify(self, deployment: Deployment, inputs: KvInputs) -> list[str]:
        """The database holds exactly the model's keys, and one group per
        client ULT reads back value for value."""
        db = deployment.extra["handles"][0]
        values = inputs.values
        problems: list[str] = []

        def audit():
            stored = yield from db.count()
            want = sum(len(held) for plan in inputs.plans for held in plan.final)
            if stored != want:
                problems.append(f"{stored} keys stored, model has {want}")
            for index, plan in enumerate(inputs.plans):
                group = index % GROUPS_PER_ULT
                held = plan.final[group]
                reply = yield from db.get_multi(plan.keys[group][: len(held)])
                if reply != [values[v] for v in held]:
                    problems.append(f"group {group} of client {index} differs from the model")

        deployment.cluster.run_ult(deployment.clients[0], audit())
        return problems

