"""Warabi against its model, and the one-copy-at-rest ownership rule.

``tests/model.py`` keeps a blob as a plain ``bytearray`` edited in
place; ``repro.warabi`` keeps it as one immutable ``bytes`` shared by
reference with the device.  The differential test below runs generated
programs on both.  A program step is a *batch* of one to three
operations issued at once from separate client processes (the server's
rpc pool is served by two streams, so handlers really overlap) or a
dynamic step: restart over the local store, checkpoint -> restore,
migrate through Bedrock + REMI.  A batch passes when some serial order
of its operations explains every reply and the state left behind.

The tests after it pin what the representation has to guarantee:
identity (provider and device hold the *same* object, a whole-blob read
returns it), commit atomicity, erase racing write, and the memory bound.
"""

import gc
import itertools
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.analysis.race import hooks as race_hooks
from repro.bedrock import BedrockClient, boot_process
from repro.margo import RpcFailedError
from repro.margo.ult import UltSleep, UltState
from repro.storage import ParallelFileSystem
from repro.warabi import WarabiClient

from .model import ModelError, WarabiModel

MARGO_DOC = {
    "argobots": {
        "pools": [
            {"name": "rpc", "type": "fifo_wait", "access": "mpmc"},
            {"name": "progress", "type": "fifo_wait", "access": "mpmc"},
        ],
        "xstreams": [
            {"name": "es_rpc0", "scheduler": {"type": "basic_wait", "pools": ["rpc"]}},
            {"name": "es_rpc1", "scheduler": {"type": "basic_wait", "pools": ["rpc"]}},
            {"name": "es_progress", "scheduler": {"type": "basic_wait", "pools": ["progress"]}},
        ],
    },
    "progress_pool": "progress",
    "rpc_pool": "rpc",
}
WARABI_ID = 1
PREFIX = "warabi/blobs/"


class Rig:
    """A cluster, three client processes, and the server process that
    currently hosts the ``blobs`` provider."""

    def __init__(self, target_type):
        self.cluster = Cluster(seed=11)
        self.target_type = target_type
        self.persistent = target_type == "persistent"
        self.clients = [self.cluster.add_margo(f"client{i}", node=f"c{i}") for i in range(3)]
        self.warabi = [WarabiClient(margo) for margo in self.clients]
        self.pfs = ParallelFileSystem()
        self.booted = 0
        #: False between a restore into a persistent target (which
        #: rebuilds memory, not files) and the next migration's flush.
        self.all_on_disk = True
        self.host(*self.boot("s0", hosting=True))

    def boot(self, node, hosting):
        providers = [{"name": "remi0", "type": "remi", "provider_id": 0, "pool": "rpc"}]
        if hosting:
            providers.append(
                {"name": "blobs", "type": "warabi", "provider_id": WARABI_ID, "pool": "rpc",
                 "config": {"target": {"type": self.target_type}}}
            )
        self.booted += 1
        return boot_process(
            self.cluster, f"server{self.booted}", node,
            {"margo": MARGO_DOC, "providers": providers,
             "libraries": {"warabi": "libwarabi.so", "remi": "libremi.so"}},
        )

    def host(self, margo, bedrock):
        self.margo, self.bedrock = margo, bedrock
        self.targets = [w.make_handle(margo.address, WARABI_ID) for w in self.warabi]

    @property
    def provider(self):
        return self.bedrock.records["blobs"].instance

    @property
    def store(self):
        return self.margo.process.node.attachments["disk"]

    # -- steps ----------------------------------------------------------
    def batch(self, timed_ops):
        """Issue the operations at once, each after its own delay from
        its own client process; return their replies in input order."""

        def one(target, delay, op):
            if delay:
                yield UltSleep(delay)
            kind, *args = op
            try:
                return "ok", (yield from getattr(target, kind)(*args))
            except RpcFailedError as err:
                return "error", str(err)

        ults = [
            self.cluster.spawn(margo, one(target, delay, op))
            for margo, target, (delay, op) in zip(self.clients, self.targets, timed_ops)
        ]
        return self.cluster.wait_ults(ults)

    def restart(self):
        """The server process dies and comes back over the same disk."""
        self.cluster.faults.kill_process(self.margo.process)
        self.host(*self.boot(self.margo.process.node.name, hosting=True))

    def checkpoint_restore(self):
        self.cluster.run_ult(self.margo, self.provider.checkpoint(self.pfs, "ckpt/blobs"))
        self.cluster.faults.kill_process(self.margo.process)
        self.host(*self.boot(f"s{self.booted}", hosting=True))
        self.cluster.run_ult(self.margo, self.provider.restore(self.pfs, "ckpt/blobs"))
        self.all_on_disk = not self.persistent

    def migrate(self):
        """To a fresh node every time: REMI leaves the source's files
        behind, so a move *back* would find stale ones."""
        margo, bedrock = self.boot(f"s{self.booted}", hosting=False)
        source = BedrockClient(self.clients[0]).make_service_handle(self.margo.address)
        self.cluster.run_ult(
            self.clients[0],
            source.migrate_provider("blobs", margo.address, remi_provider_id=0),
        )
        self.host(margo, bedrock)
        self.all_on_disk = True

    # -- what must hold whenever no operation is in flight --------------
    def state(self):
        return dict(self.provider._blobs), self.provider._next_id

    def check_at_rest(self):
        blobs = self.provider._blobs
        assert all(type(blob) is bytes for blob in blobs.values())
        if not self.persistent:
            return
        on_disk = {path[len(PREFIX):] for path in self.store.list(PREFIX)} - {"meta"}
        assert on_disk <= {str(blob_id) for blob_id in blobs}, "file of an erased blob"
        for leaf in on_disk:  # one copy at rest: the device holds the provider's object
            assert self.store.read(PREFIX + leaf) is blobs[int(leaf)]
        if self.all_on_disk:
            assert len(on_disk) == len(blobs)
            if self.provider._next_id:  # the sidecar appears with the first create
                meta = json.loads(self.store.read(PREFIX + "meta"))
                assert meta["next_id"] == self.provider._next_id


def expected(model, op):
    kind, *args = op
    try:
        return "ok", getattr(model, kind)(*args)
    except ModelError as err:
        return "error", err.args[0]


def agrees(reply, want):
    if want[0] == "error":  # the refusal has to say why
        return reply[0] == "error" and want[1] in reply[1]
    return reply == want


def state_of(model):
    """The model's state in the shape of :meth:`Rig.state`."""
    return {blob_id: bytes(blob) for blob_id, blob in model.blobs.items()}, model.next_id


def explain(model, ops, replies, state):
    """The model after the first serial order of ``ops`` that yields
    ``replies`` and ``state``; None when no order does."""
    for order in itertools.permutations(range(len(ops))):
        trial = model.copy()
        wants = {index: expected(trial, ops[index]) for index in order}
        if all(agrees(replies[i], wants[i]) for i in order) and state_of(trial) == state:
            return trial
    return None


BLOB_OPS = ("write", "read", "size", "erase")


def resolve(op, issued):
    """A generated blob reference names any id ever issued, or the next."""
    kind, *args = op
    if kind in BLOB_OPS:
        args[0] %= issued + 1
    return (kind, *args)


def run_program(target_type, program):
    """Run ``program`` on a fresh rig and on the model, checking after
    every step; returns both for further assertions."""
    rig, model = Rig(target_type), WarabiModel()
    for step in program:
        if step == "restart":
            if rig.persistent and rig.all_on_disk:
                rig.restart()
        elif step == "checkpoint_restore":
            rig.checkpoint_restore()
        elif step == "migrate":
            if rig.persistent:
                rig.migrate()
        else:
            ops = [resolve(op, model.next_id) for _delay, op in step]
            replies = rig.batch([(delay, op) for (delay, _), op in zip(step, ops)])
            model = explain(model, ops, replies, rig.state())
            assert model is not None, f"no serial order explains {ops} -> {replies}"
        assert rig.state() == state_of(model)
        rig.check_at_rest()
    return rig, model


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------
payloads = st.one_of(
    st.binary(max_size=12),
    # From 8 KiB up a payload travels by bulk handle, both ways.
    st.builds(bytes.__mul__, st.binary(min_size=1, max_size=2), st.sampled_from([4096, 9000])),
)
offsets = st.one_of(st.integers(-1, 16), st.sampled_from([4090, 8190, 20000]))
read_sizes = st.one_of(st.none(), st.integers(-1, 16), st.sampled_from([8192, 9000]))


def on_blob(refs):
    """Operations on the blobs ``refs`` draws; writes twice as likely."""
    write = st.tuples(st.just("write"), refs, payloads, offsets)
    return st.one_of(
        write,
        write,
        st.tuples(st.just("read"), refs, offsets, read_sizes),
        st.tuples(st.just("size"), refs),
        st.tuples(st.just("erase"), refs),
    )


blob_refs = st.integers(0, 3)
operations = st.one_of(
    st.tuples(st.just("create"), st.sampled_from([0, 0, 1, 5, 8200, -1])),
    st.tuples(st.just("list")),
    on_blob(blob_refs),
    on_blob(blob_refs),
)
#: From "the handlers start together" to "the second arrives while the
#: first sleeps on the device".
delays = st.sampled_from([0.0, 2e-7, 1e-6, 5e-6, 4e-5])
singles = st.lists(st.tuples(st.just(0.0), operations), min_size=1, max_size=1)
batches = st.lists(st.tuples(delays, operations), min_size=2, max_size=3)
#: Two or three operations on *one* blob: where a torn or lost update,
#: a resurrected blob or a zombie file would come from.
contended = blob_refs.flatmap(
    lambda ref: st.lists(st.tuples(delays, on_blob(st.just(ref))), min_size=2, max_size=3)
)
steps = st.one_of(
    singles, singles, batches, contended, contended,
    st.sampled_from(["restart", "checkpoint_restore", "migrate"]),
)
#: A program opens with up to three creates so that most references
#: name a blob that exists.
programs = st.builds(
    lambda sizes, rest: [[(0.0, ("create", size))] for size in sizes] + rest,
    st.lists(st.sampled_from([0, 5, 8200]), max_size=3),
    st.lists(steps, max_size=20),
)


CREATE_8 = [(0.0, ("create", 8))]


@pytest.mark.parametrize("target_type", ["memory", "persistent"])
@settings(max_examples=100, deadline=None)
@given(program=programs)
# Two disjoint partial writes whose handlers overlap: a splice from a
# reference taken before the compute yield loses the first one.
@example(program=[CREATE_8, [(0.0, ("write", 0, b"ab", 0)), (0.0, ("write", 0, b"cd", 4))]])
# A write whose blob is erased under it is refused, not resurrected ...
@example(program=[CREATE_8, [(0.0, ("erase", 0)), (2e-7, ("write", 0, b"ab", 2))]])
# ... and so is the loser of two erases (it used to be a bare KeyError).
@example(program=[CREATE_8, [(0.0, ("erase", 0)), (0.0, ("erase", 0))]])
# An erase during the write's device sleep leaves no file to migrate.
@example(
    program=[CREATE_8, [(0.0, ("write", 0, b"xy" * 9000, 0)), (4e-5, ("erase", 0))], "migrate"]
)
def test_warabi_matches_bytearray_model(target_type, program):
    run_program(target_type, program)


# ----------------------------------------------------------------------
# pins
# ----------------------------------------------------------------------
def test_erase_racing_a_large_write_leaves_no_blob_and_no_file():
    """The zombie-file reproduction, swept: an erase 0 .. 3.5 ms after a
    4 MB write lands before the write's commit (which is then refused)
    or during its device sleep (both acknowledged: write, then erase).
    Either way neither the provider, the store nor a later migration may
    still know the blob."""
    rig = Rig("persistent")
    data = b"z" * (4 << 20)
    outcomes = set()
    for blob_id in range(8):
        rig.batch([(0.0, ("create", 0))])
        write, erase = rig.batch(
            [(0.0, ("write", blob_id, data, 0)), (blob_id * 500e-6, ("erase", blob_id))]
        )
        assert erase == ("ok", None)
        assert write == ("ok", len(data)) or "no such blob" in write[1]
        outcomes.add(write[0])
        assert rig.provider._blobs == {}
        assert rig.provider.local_files() == [PREFIX + "meta"]
    assert outcomes == {"ok", "error"}  # the sweep crossed the commit point
    rig.migrate()
    assert rig.batch([(0.0, ("list",))]) == [("ok", [])]
    assert rig.provider.local_files() == [PREFIX + "meta"]


@pytest.mark.parametrize("target_type", ["memory", "persistent"])
def test_write_commits_atomically(target_type):
    """Readers polling across a partial, extending write see the old
    value or the new one -- never the new length filled with zeros."""
    old, patch = b"old!" * 2, b"N" * (1 << 20)
    new = old[:4] + patch
    rig, _model = run_program(
        target_type, [[(0.0, ("create", 0))], [(0.0, ("write", 0, old, 0))]]
    )
    seen = []

    def poll(target):
        while writer.state != UltState.DONE:
            seen.append((yield from target.read(0)))

    def write(target):
        return (yield from target.write(0, patch, 4))

    writer = rig.cluster.spawn(rig.clients[0], write(rig.targets[0]))
    pollers = [rig.cluster.spawn(m, poll(t)) for m, t in zip(rig.clients[1:], rig.targets[1:])]
    rig.cluster.wait_ults([writer, *pollers])
    assert set(seen) == {old, new}
    assert rig.provider._blobs[0] == new
    rig.check_at_rest()


def test_payload_is_shared_by_reference_end_to_end():
    """One copy at rest: the object the client wrote *is* the provider's
    blob, the device's file and what a whole-blob read returns -- inline
    or by bulk handle; a ranged read is one slice of it."""
    rig, _model = run_program("persistent", [[(0.0, ("create", 0))], [(0.0, ("create", 0))]])
    inline, bulk = b"i" * 100, b"b" * 100_000
    replies = rig.batch([(0.0, ("write", 0, inline, 0)), (0.0, ("write", 1, bulk, 0))])
    assert replies == [("ok", 100), ("ok", 100_000)]
    for blob_id, data in enumerate((inline, bulk)):
        assert rig.provider._blobs[blob_id] is data
        assert rig.store.read(f"{PREFIX}{blob_id}") is data
        assert rig.batch([(0.0, ("read", blob_id, 0, None))])[0][1] is data
        assert rig.batch([(0.0, ("read", blob_id, 10, 50))]) == [("ok", data[10:60])]
    rig.restart()  # _load_persisted adopts the device's objects
    assert rig.provider._blobs[1] is rig.store.read(f"{PREFIX}1") is bulk


@pytest.mark.skipif(race_hooks.ENABLED, reason="the race layer's access history is traced too")
def test_blobs_at_rest_cost_one_copy_of_the_payload():
    """200 x 64 KiB through the bulk path into a persistent target grow
    traced memory by the payload, not by a multiple of it (2.0x when the
    provider held a ``bytearray`` and the store a ``bytes`` of it)."""
    count, size = 200, 64 << 10
    rig = Rig("persistent")
    target = rig.targets[0]

    def fill():
        for index in range(count):
            blob_id = yield from target.create()
            yield from target.write(blob_id, bytes([index % 251 + 1]) * size)

    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        rig.cluster.run_ult(rig.clients[0], fill())
        gc.collect()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rig.provider._blobs) == count
    rig.check_at_rest()
    assert (after - before) / (count * size) <= 1.1
