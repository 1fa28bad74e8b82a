"""Workload ``objstore_mixed``: the composed storage service.

Closed loop, 4 client ULTs on 2 client processes, driving the
:mod:`objstore` surface over 3 Bedrock-booted servers.

* sizes: 60 % around 256 B (inline in the metadata record), 30 % around
  16 KiB and 10 % around 256 KiB (Warabi blob, bulk path above the 8 KiB
  threshold), each object within +-12.5 % of its class;
* mix: 45 % get / 30 % put / 15 % exists / 10 % evict, exact in every
  block of 20 operations, zipf-skewed over each client's live objects;
* one put in three creates an object and the other two overwrite one,
  so creations balance evictions and about 2 000 objects stay live
  (memory is bounded; the overwritten or evicted blob is erased).

Why it exists: ``yokan``, ``warabi``, ``storage``, ``mercury.bulk`` and
the byte cost of ``sim.network`` carry most of the work, and reads sit
beside writes, so a gain for ``get`` that costs ``put`` shows (each kind
has its own latency among the layer metrics).

Each client ULT owns its keys, so every key's history is sequential and
the plain-dict model in :meth:`generate` knows every reply in advance.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Any, Generator

from repro import Cluster
from repro.bedrock import boot_process

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
from measure import Recorder, percentile, tail_quantile
from objstore import INLINE_MAX, Directory, ObjectStore, server_document

SERVERS = 3
GET, PUT, EXISTS, EVICT = "get", "put", "exists", "evict"
#: one block of operations: the mix is exact in every block.
BLOCK = [GET] * 9 + [PUT] * 6 + [EXISTS] * 3 + [EVICT] * 2
#: ten consecutive puts carry exactly this size mix.
SIZE_BLOCK = [256] * 6 + [16 * 1024] * 3 + [256 * 1024]
ZIPF_RANKS = 512
ZIPF_EXPONENT = 0.9
#: one ``exists`` in six asks for a key that was never stored.
ABSENT_EVERY = 6
VERIFY_SAMPLE = 100  # objects read back per client ULT after the timed phase


def payload(token: bytes, size: int) -> bytes:
    """An object's bytes: its 8-byte token repeated (sizes are multiples
    of 8).  The model keeps (token, size), not the bytes."""
    return token * (size >> 3)


@dataclass
class ClientPlan:
    """What one client ULT does and what it must see."""

    preload: list[tuple[bytes, bytes, int]]  # (key, token, size)
    #: (kind, key, token, size, present): for ``get`` the token and size
    #: expected back, for ``exists`` the expected answer.
    ops: list[tuple[str, bytes, bytes, int, bool]]
    final: dict[bytes, tuple[bytes, int]]  # live objects afterwards


@dataclass
class ObjstoreInputs:
    seed: int
    plans: list[ClientPlan]


def byte_counts(plans: list[ClientPlan]) -> dict[str, float]:
    """User bytes the timed phase writes, and user bytes it moves into
    or out of Warabi (objects too large for the metadata record)."""
    moved = [(kind, size) for plan in plans for kind, _k, _t, size, _p in plan.ops
             if kind in (PUT, GET)]
    return {
        "harness.put_bytes": float(sum(size for kind, size in moved if kind == PUT)),
        "harness.warabi_bytes": float(sum(size for _kind, size in moved if size > INLINE_MAX)),
    }


def plan_client(rng: random.Random, prefix: str, live_target: int, ops: int,
                size_block: list[int], block: list[str]) -> ClientPlan:
    """Generate one client ULT's operations against a dict model.

    Sizes are stratified everywhere a size matters, not only for puts:
    a get, an evict and an overwrite each pick a size class from its own
    shuffled copy of ``size_block`` and then a live object of that class
    by zipf rank.  The bytes a run moves are then the same from seed to
    seed to within the +-12.5 % jitter on each object's size, instead of
    depending on how large the few hot objects happen to be.
    """
    weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(ZIPF_RANKS)
    ))
    classes = sorted(set(size_block))
    model: dict[bytes, tuple[bytes, int, int]] = {}  # key -> token, size, class
    live: dict[int, list[bytes]] = {size_class: [] for size_class in classes}
    serial = itertools.count()
    decks: dict[str, list[int]] = {}

    def next_class(purpose: str) -> int:
        deck = decks.setdefault(purpose, [])
        if not deck:
            deck.extend(size_block)
            rng.shuffle(deck)
        return deck.pop()

    def jitter(size_class: int) -> int:
        return int(size_class * rng.uniform(0.875, 1.125)) & ~7

    def fresh_key() -> bytes:
        return f"{prefix}/obj{next(serial):07d}".encode()

    def pick_live(purpose: str) -> bytes:
        size_class = next_class(purpose)
        if not live[size_class]:
            size_class = max(classes, key=lambda c: len(live[c]))
        keys = live[size_class]
        rank = bisect.bisect_left(weights, rng.random() * weights[-1])
        return keys[rank % len(keys)]

    def store(key: bytes, size_class: int) -> tuple[bytes, int]:
        old = model.get(key)
        if old is not None:
            live[old[2]].remove(key)
        token, size = rng.randbytes(8), jitter(size_class)
        model[key] = (token, size, size_class)
        live[size_class].append(key)
        return token, size

    preload = []
    for _ in range(live_target):
        key = fresh_key()
        token, size = store(key, next_class(PUT))
        preload.append((key, token, size))

    plan: list[tuple[str, bytes, bytes, int, bool]] = []
    puts = exists = 0
    while len(plan) < ops:
        kinds = list(block)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == PUT:
                puts += 1
                create = puts % 3 == 0
                key = fresh_key() if create else pick_live("overwrite")
                token, size = store(key, next_class(PUT))
                plan.append((PUT, key, token, size, not create))
            elif kind == GET:
                key = pick_live(GET)
                token, size, _class = model[key]
                plan.append((GET, key, token, size, True))
            elif kind == EXISTS:
                exists += 1
                absent = exists % ABSENT_EVERY == 0
                key = f"{prefix}/never{exists:07d}".encode() if absent else pick_live(EXISTS)
                plan.append((EXISTS, key, b"", 0, not absent))
            else:
                key = pick_live(EVICT)
                live[model.pop(key)[2]].remove(key)
                plan.append((EVICT, key, b"", 0, True))
    return ClientPlan(preload=preload, ops=plan[:ops], final=_replay(preload, plan[:ops]))


def _replay(preload: list, ops: list) -> dict[bytes, tuple[bytes, int]]:
    """The model's state after exactly ``ops`` (the plan may have been
    cut inside a block)."""
    model = {key: (token, size) for key, token, size in preload}
    for kind, key, token, size, _present in ops:
        if kind == PUT:
            model[key] = (token, size)
        elif kind == EVICT:
            del model[key]
    return model


def check_reply(kind: str, reply: Any, token: bytes, size: int, present: bool) -> bool:
    """Does ``reply`` match what the model said this operation returns?"""
    if kind == GET:
        return reply == payload(token, size)
    if kind == EXISTS:
        return reply is present
    return True  # put and evict return nothing to check; the read-back does


def perform(store: ObjectStore, op: tuple) -> Generator:
    """Run one planned operation against the store and check its reply;
    returns (ok, why).  Any exception is a failed operation."""
    kind, key, token, size, present = op
    try:
        if kind == GET:
            reply = yield from store.get(key)
        elif kind == PUT:
            reply = yield from store.put(key, payload(token, size))
        elif kind == EXISTS:
            reply = yield from store.exists(key)
        else:
            reply = yield from store.evict(key)
    except Exception as err:  # noqa: BLE001 - any failure is a failed op
        return False, f"{kind} {key!r}: {type(err).__name__}: {err}"
    if check_reply(kind, reply, token, size, present):
        return True, ""
    return False, f"{kind} {key!r}: wrong reply"


class ObjstoreMixed:
    name = "objstore_mixed"
    pinned_ops_per_s = 3_200
    segment_ops = 100
    setup_segment_ops = 50
    slo_limit_us = 200.0
    min_ops = 400
    live_per_ult = 500
    block = BLOCK
    size_block = SIZE_BLOCK
    observability = None  # observers off
    yokan_backend = "persistent"

    def generate(self, seed: int, ops: int) -> ObjstoreInputs:
        rng = random.Random(seed)
        ults = CLIENT_PROCESSES * ULTS_PER_CLIENT
        plans = [
            plan_client(
                random.Random(rng.getrandbits(64)),
                f"u{index}",
                self.live_per_ult,
                ops // ults,
                self.size_block,
                self.block,
            )
            for index in range(ults)
        ]
        return ObjstoreInputs(seed=seed, plans=plans)

    # -- set-up --------------------------------------------------------
    def boot(self, inputs: ObjstoreInputs) -> Deployment:
        """Cluster + Bedrock boot of the storage servers and clients."""
        cluster = Cluster(seed=inputs.seed)
        servers = []
        for index in range(SERVERS):
            margo, _bedrock = boot_process(
                cluster,
                f"server{index}",
                f"snode{index}",
                server_document(index, server_margo_doc(self.observability)),
            )
            servers.append(margo)
        clients = add_clients(cluster, first_node="snode0", observability=self.observability)
        addresses = [margo.address for margo in servers]
        directory = Directory(cluster.kernel, addresses, addresses)
        stores = [ObjectStore(client, directory) for client in clients]
        return Deployment(
            cluster=cluster,
            servers=servers,
            clients=clients,
            extra={"directory": directory, "stores": stores},
        )

    def preload(self, deployment: Deployment, inputs: ObjstoreInputs, tick: Any) -> None:
        stores = deployment.extra["stores"]

        def fill(store: ObjectStore, objects: list):
            for key, token, size in objects:
                yield from store.put(key, payload(token, size))
                tick()

        run_per_plan(deployment, inputs.plans, lambda slot, plan: fill(stores[slot], plan.preload))

    def build(self, inputs: ObjstoreInputs, tick: Any) -> Deployment:
        deployment = self.boot(inputs)
        self.preload(deployment, inputs, tick)
        return deployment

    snapshot = staticmethod(snapshot)

    # -- timed phase ---------------------------------------------------
    def drive(self, deployment: Deployment, inputs: ObjstoreInputs, recorder: Recorder) -> None:
        cluster = deployment.cluster
        kernel = cluster.kernel
        done = recorder.done
        stores = deployment.extra["stores"]
        for store in stores:
            store.recorder = recorder

        def client_loop(slot: int, plan: ClientPlan):
            store = stores[slot]
            for op in plan.ops:
                started = kernel.now
                ok, why = yield from perform(store, op)
                done(op[0], kernel.now - started, ok, why=why)

        run_per_plan(deployment, inputs.plans, client_loop)

    def reduce(self, deployment, inputs, recorder, before, after) -> dict[str, float]:
        exact = reduce_counts(recorder, before, after)
        for kind in (PUT, GET, EXISTS, EVICT):
            ordered = sorted(recorder.by_kind.get(kind, []))
            exact[f"objstore.{kind}.sim_p50_us"] = percentile(ordered, 0.5) * 1e6
            exact[f"objstore.{kind}.sim_p99_us"] = (
                percentile(ordered, tail_quantile(len(ordered))) * 1e6
            )
        exact.update(byte_counts(inputs.plans))
        exact["warabi.user_bytes_per_op"] = exact["harness.warabi_bytes"] / max(
            recorder.attempted, 1
        )
        exact["yokan.keys_per_rpc"] = 1.0  # every Yokan RPC here carries one key
        return exact

    # -- final-state check ---------------------------------------------
    def verify(self, deployment: Deployment, inputs: ObjstoreInputs) -> list[str]:
        """Every shard holds exactly the live objects (no lost record, no
        leaked blob) and a sample of them reads back byte for byte."""
        stores = deployment.extra["stores"]
        problems: list[str] = []

        def audit():
            for index, plan in enumerate(inputs.plans):
                store = stores[index % CLIENT_PROCESSES]
                keys = sorted(plan.final)
                step = max(1, len(keys) // VERIFY_SAMPLE)
                for key in keys[::step]:
                    token, size = plan.final[key]
                    data = yield from store.get(key)
                    if data != payload(token, size):
                        problems.append(f"read-back of {key!r} differs")
            records, blobs = yield from stores[0].census()
            live = [entry for plan in inputs.plans for entry in plan.final.values()]
            want_blobs = sum(1 for _token, size in live if size > INLINE_MAX)
            if records != len(live):
                problems.append(f"{records} metadata records, model has {len(live)}")
            if blobs != want_blobs:
                problems.append(f"{blobs} blobs stored, model has {want_blobs}")

        deployment.cluster.run_ult(stores[0].margo, audit())
        return problems
