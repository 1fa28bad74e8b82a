"""Cross-cutting property-based tests (hypothesis)."""

import json
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.bedrock.jx9 import jx9_execute
from repro.margo import MargoConfig, RpcError
from repro.mercury import (
    STATUS_ERROR,
    STATUS_NO_RPC,
    STATUS_OK,
    BulkHandle,
    RPCRequest,
    RPCResponse,
    codec_cost,
    estimate_size,
)
from repro.monitoring import RunningStats
from repro.poesie import MiniInterpreter
from repro.raft import LogEntry, RaftLog
from repro.ssg import SwimConfig, SwimState, Update
from repro.yokan import Batch, encode_records

# ----------------------------------------------------------------------
# mercury: wire-size estimation
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20)
    | st.binary(max_size=50),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_estimate_size_nonnegative_and_stable(value):
    size = estimate_size(value)
    assert size >= 0
    assert estimate_size(value) == size  # deterministic


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=1000))
def test_estimate_size_bytes_exact(data):
    assert estimate_size(data) == len(data)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=8), st.integers(), max_size=8))
def test_estimate_size_monotone_in_dict_growth(mapping):
    size = estimate_size(mapping)
    bigger = dict(mapping)
    bigger["__extra_key__"] = 12345
    assert estimate_size(bigger) > size


def recursive_estimate_size(obj):
    """The size model as one recursive walk, a Python frame per element:
    the oracle the shipped ``estimate_size`` (which sizes flat batches
    without walking them) must agree with on every payload."""
    declared = getattr(obj, "__wire_size__", None)
    if declared is not None:
        return declared
    t = type(obj)
    if t in (int, float):
        return 8
    if t is bool or obj is None:
        return 1
    if t in (bytes, bytearray, memoryview):
        return len(obj)
    if t is str:
        return len(obj.encode("utf-8", errors="replace")) + 4
    if t in (list, tuple, set, frozenset):
        return 8 + sum(recursive_estimate_size(item) for item in obj)
    if t is dict:
        return 8 + sum(
            recursive_estimate_size(k) + recursive_estimate_size(v) for k, v in obj.items()
        )
    raise TypeError(type(obj).__name__)


class DeclaredBytes(bytes):
    """A byte string that declares a wire footprint other than its length."""

    __wire_size__ = 3


byte_strings = st.binary(max_size=40).flatmap(
    lambda data: st.sampled_from([data, bytearray(data), memoryview(data)])
)
declared_bytes = st.builds(DeclaredBytes, st.binary(max_size=8))
batch_elements = (
    byte_strings
    | st.tuples(byte_strings, byte_strings)  # (key, value) pairs
    | st.tuples(byte_strings)  # ragged: 1-tuples ...
    | st.tuples(byte_strings, byte_strings, byte_strings)  # ... and 3-tuples
    | st.tuples(byte_strings, st.integers(-5, 5))  # mixed pairs
    | st.just(())
    | declared_bytes
    | st.builds(BulkHandle, st.just("na+sim://n0:1"), st.integers(0, 1 << 20))
    | st.integers(-5, 5)
    | st.none()
)
#: homogeneous batches (the shapes sized arithmetically) as often as
#: arbitrary mixes of the elements above (the shapes that must fall
#: through to the walk).
batches = st.one_of(
    st.lists(byte_strings, max_size=12),
    st.lists(st.tuples(byte_strings, byte_strings), max_size=12),
    st.lists(st.tuples(byte_strings), max_size=6),
    st.lists(byte_strings | declared_bytes, max_size=6),
    st.lists(st.tuples(byte_strings | declared_bytes, byte_strings), max_size=6),
    st.lists(batch_elements, max_size=8),
).flatmap(lambda items: st.sampled_from([items, tuple(items)]))
batch_payloads = st.recursive(
    batches,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["pairs", "keys", "bulk", "x"]), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(batch_payloads)
def test_estimate_size_matches_recursive_walk_on_batches(payload):
    assert estimate_size(payload) == recursive_estimate_size(payload)


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_estimate_size_matches_recursive_walk_on_json(value):
    assert estimate_size(value) == recursive_estimate_size(value)


# ----------------------------------------------------------------------
# mercury: a message carries its wire size and codec charge
# ----------------------------------------------------------------------
class Declared:
    """A payload of any declared wire size, with no bytes behind it."""

    __slots__ = ("__wire_size__",)

    def __init__(self, size):
        self.__wire_size__ = size


def _raise(ctx):
    raise RuntimeError("refused")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_every_message_carries_its_wire_size_and_codec_charge(size):
    """Each request and each reply the runtime sends -- OK, error and
    no-handler -- goes out with ``wire_size == HEADER_SIZE +
    payload_size`` and a ``codec_cost`` bit-equal to the codec model."""
    cluster = Cluster(seed=1)
    server = cluster.add_margo("server", node="n0")
    client = cluster.add_margo("client", node="n1")
    server.register("echo", lambda ctx: ctx.args)
    server.register("fail", _raise)
    sent = []
    send = cluster.network.send

    def tap(src, address, message, wire):
        sent.append((message, wire))
        return send(src, address, message, wire)

    cluster.network.send = tap

    def call(name):
        try:
            return (yield from client.forward(server.address, name, Declared(size)))
        except RpcError as err:
            return type(err).__name__

    outcomes = [cluster.run_ult(client, call(name)) for name in ("echo", "fail", "nobody")]
    assert outcomes[0].__wire_size__ == size
    assert outcomes[1:] == ["RpcFailedError", "NoSuchRpcError"]
    replies = [m for m, _ in sent if type(m) is RPCResponse]
    assert [r.status for r in replies] == [STATUS_OK, STATUS_ERROR, STATUS_NO_RPC]
    assert [r.payload_size for r in replies] == [size, 0, 0]
    assert [m.payload_size for m, _ in sent if type(m) is RPCRequest] == [size] * 3
    for message, wire in sent:
        assert wire == message.wire_size == message.HEADER_SIZE + message.payload_size
        assert message.codec_cost.hex() == codec_cost(message.payload_size).hex()


#: RPC argument names: ASCII ones (sized in the dict's own frame) and
#: non-ASCII ones, a lone surrogate included (sized by the walk), plus
#: the odd non-str key.
arg_names = (
    st.text(alphabet=st.characters(max_codepoint=127), max_size=10)
    | st.text(max_size=6)
    | st.sampled_from(["key", "pairs", "bulk", "clé", "\ud800"])
    | st.integers(-3, 3)
    | st.binary(max_size=4)
)
arg_values = st.recursive(
    st.binary(max_size=40)
    | st.integers(-(2**40), 2**40)
    | st.floats()
    | st.booleans()
    | st.none()
    | st.text(max_size=8)
    | byte_strings
    | declared_bytes
    | st.builds(BulkHandle, st.just("na+sim://n0:1"), st.integers(0, 1 << 20))
    | st.lists(st.tuples(st.binary(max_size=8), st.binary(max_size=8)), max_size=5).map(
        Batch.of_pairs)
    | st.lists(st.binary(max_size=8), max_size=5).map(Batch.of_keys),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(arg_names, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(arg_names, arg_values, max_size=6))
def test_estimate_size_matches_recursive_walk_on_argument_dicts(args):
    assert estimate_size(args) == recursive_estimate_size(args)


# ----------------------------------------------------------------------
# yokan: a batch's declared size is the walk
# ----------------------------------------------------------------------
#: every input type a batch field may arrive as; some values are large
#: enough that a batch lands on either side of the 8 KiB bulk threshold.
batch_fields = (
    byte_strings
    | st.text(max_size=12)
    | st.integers(0, 3000).map(bytes)
)
#: few distinct keys, across input types: batches repeat keys.
repeated_keys = st.sampled_from([b"k", "k", bytearray(b"k"), memoryview(b"j"), "j"])


def as_bytes(field):
    return field.encode("utf-8") if isinstance(field, str) else bytes(field)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(repeated_keys | batch_fields, batch_fields), max_size=12))
def test_pair_batch_declares_the_walk(pairs):
    batch = Batch.of_pairs(pairs)
    plain = list(batch)
    assert plain == [(as_bytes(key), as_bytes(value)) for key, value in pairs]
    assert all(type(key) is bytes and type(value) is bytes for key, value in plain)
    assert estimate_size(batch) == recursive_estimate_size(plain)
    assert batch.records() == len(encode_records(batch))
    assert Batch.of_pairs(iter(pairs)) == batch  # one-shot iterables too


@settings(max_examples=200, deadline=None)
@given(st.lists(repeated_keys | batch_fields, max_size=12))
def test_key_batch_declares_the_walk(keys):
    batch = Batch.of_keys(keys)
    plain = list(batch)
    assert plain == [as_bytes(key) for key in keys]
    assert all(type(key) is bytes for key in plain)
    assert estimate_size(batch) == recursive_estimate_size(plain)
    assert batch.nbytes == sum(map(len, plain))


# ----------------------------------------------------------------------
# monitoring: RunningStats matches the statistics module
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
def test_running_stats_matches_reference(values):
    stats = RunningStats()
    for v in values:
        stats.update(v)
    assert stats.num == len(values)
    assert stats.avg == pytest.approx(statistics.fmean(values), abs=1e-6, rel=1e-9)
    assert stats.min == min(values)
    assert stats.max == max(values)
    assert stats.var == pytest.approx(statistics.pvariance(values), abs=1e-4, rel=1e-6)


# ----------------------------------------------------------------------
# poesie: the mini interpreter agrees with Python on arithmetic
# ----------------------------------------------------------------------
arith_expr = st.recursive(
    st.integers(min_value=-50, max_value=50).map(str),
    lambda children: st.tuples(children, st.sampled_from(["+", "-", "*"]), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    ),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(arith_expr)
def test_poesie_arithmetic_matches_python(expression):
    expected = eval(expression)  # noqa: S307 - generated from a safe grammar
    assert MiniInterpreter().execute(f"return {expression}") == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=20)
)
def test_poesie_list_builtins_match_python(xs):
    interp = MiniInterpreter()
    result = interp.execute("return [sum(xs), min(xs), max(xs), len(xs)]",
                            env={"xs": list(xs)})
    assert result == [sum(xs), min(xs), max(xs), len(xs)]


# ----------------------------------------------------------------------
# jx9: JSON literals evaluate to themselves
# ----------------------------------------------------------------------
jx9_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=12,
    ),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=6,
        ),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(jx9_json)
def test_jx9_json_literal_roundtrip(value):
    literal = json.dumps(value)
    assert jx9_execute(f"return {literal};") == value


@settings(max_examples=40, deadline=None)
@given(jx9_json)
def test_jx9_count_matches_python_len(value):
    if isinstance(value, (list, dict, str)):
        assert jx9_execute("return count($v);", {"v": value}) == len(value)


# ----------------------------------------------------------------------
# raft log: idempotent, prefix-preserving replication
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=3),
)
def test_raft_log_replay_idempotent(terms, replays):
    """Replaying the same AppendEntries any number of times leaves the
    log identical (duplicate suppression)."""
    terms = sorted(terms)
    leader = RaftLog()
    for term in terms:
        leader.append_new(term, f"c{term}")
    follower = RaftLog()
    batch = leader.entries_from(1)
    for _ in range(replays + 1):
        assert follower.match_and_append(0, 0, batch)
    assert follower.last_index == leader.last_index
    for index in range(1, leader.last_index + 1):
        assert follower.term_at(index) == leader.term_at(index)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=15),
    st.data(),
)
def test_raft_log_conflict_truncation_preserves_prefix(terms, data):
    terms = sorted(terms)
    log = RaftLog()
    for term in terms:
        log.append_new(term, f"old-{term}")
    # Overwrite a suffix with higher-term entries.
    split = data.draw(st.integers(min_value=1, max_value=len(terms)))
    new_term = terms[-1] + 1
    new_entries = [
        LogEntry(new_term, i, f"new-{i}")
        for i in range(split, len(terms) + 2)
    ]
    assert log.match_and_append(split - 1, log.term_at(split - 1), new_entries)
    # Prefix intact, suffix replaced.
    for index in range(1, split):
        assert log.entry_at(index).command == f"old-{terms[index - 1]}"
    for index in range(split, len(terms) + 2):
        assert log.term_at(index) == new_term


# ----------------------------------------------------------------------
# swim: update application is idempotent and monotone in incarnation
# ----------------------------------------------------------------------
update_strategy = st.tuples(
    st.sampled_from(["alive", "suspect", "dead"]),
    st.sampled_from(["m1", "m2", "m3"]),
    st.integers(min_value=0, max_value=4),
).map(lambda t: Update(*t))


@settings(max_examples=80, deadline=None)
@given(st.lists(update_strategy, max_size=25))
def test_swim_apply_idempotent(updates):
    config = SwimConfig()
    state = SwimState("self", config)
    for update in updates:
        state.apply(update, now=1.0)
        before = {
            a: (r.status, r.incarnation) for a, r in state._members.items()
        }
        # Re-applying the same update must not change membership state.
        state.apply(Update(update.kind, update.address, update.incarnation), now=2.0)
        after = {a: (r.status, r.incarnation) for a, r in state._members.items()}
        assert after == before


@settings(max_examples=60, deadline=None)
@given(st.lists(update_strategy, max_size=25))
def test_swim_dead_members_never_in_view(updates):
    state = SwimState("self", SwimConfig())
    for update in updates:
        state.apply(update, now=1.0)
    from repro.ssg import MemberStatus

    for address in state.view_members():
        assert state.status_of(address) != MemberStatus.DEAD
    assert "self" in state.view_members()


# ----------------------------------------------------------------------
# margo config roundtrip
# ----------------------------------------------------------------------
pool_names = st.lists(
    st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=8),
    min_size=1,
    max_size=5,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(pool_names, st.data())
def test_margo_config_roundtrip(names, data):
    pools = [{"name": n} for n in names]
    xstreams = []
    for i, name in enumerate(names):
        served = data.draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
        )
        if name not in served:
            served.append(name)  # ensure every pool is served
        xstreams.append({"name": f"es{i}", "scheduler": {"pools": served}})
    doc = {
        "argobots": {"pools": pools, "xstreams": xstreams},
        "progress_pool": names[0],
        "rpc_pool": names[-1],
    }
    config = MargoConfig.from_json(doc)
    roundtripped = MargoConfig.from_json(config.to_json())
    assert roundtripped.to_json() == config.to_json()
    assert [p.name for p in roundtripped.pools] == names
