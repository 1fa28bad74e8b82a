"""Unit + property tests for Yokan backends and the record codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Network, SimKernel
from repro.storage import LocalStore
from repro.yokan import (
    MapBackend,
    NoSuchKeyError,
    OrderedBackend,
    PersistentBackend,
    UnknownBackendError,
    YokanError,
    backend_types,
    create_backend,
    decode_records,
    encode_records,
)


def make_store():
    kernel = SimKernel()
    network = Network(kernel)
    node = network.add_node("n0")
    return LocalStore(node)


BACKEND_FACTORIES = {
    "map": lambda: MapBackend(),
    "ordered": lambda: OrderedBackend(),
    "persistent": lambda: PersistentBackend({"store": make_store(), "path": "db"}),
}


@pytest.fixture(params=sorted(BACKEND_FACTORIES))
def backend(request):
    return BACKEND_FACTORIES[request.param]()


# ----------------------------------------------------------------------
# generic behaviour across all backends
# ----------------------------------------------------------------------
def test_put_get_overwrite(backend):
    backend.put(b"k", b"v1")
    assert backend.get(b"k") == b"v1"
    backend.put(b"k", b"v2")
    assert backend.get(b"k") == b"v2"
    assert backend.count() == 1


def test_erase_and_missing(backend):
    backend.put(b"k", b"v")
    backend.erase(b"k")
    assert not backend.exists(b"k")
    with pytest.raises(NoSuchKeyError):
        backend.get(b"k")
    with pytest.raises(NoSuchKeyError):
        backend.erase(b"k")


def test_size_bytes_accounting(backend):
    backend.put(b"ab", b"xyz")  # 5
    backend.put(b"cd", b"1234")  # 6
    assert backend.size_bytes() == 11
    backend.put(b"ab", b"z")  # 3: overwrite shrinks
    assert backend.size_bytes() == 9
    backend.erase(b"cd")
    assert backend.size_bytes() == 3
    backend.clear()
    assert backend.size_bytes() == 0
    assert backend.count() == 0


def test_list_keys_prefix_and_pagination(backend):
    for key in [b"a1", b"a2", b"a3", b"b1"]:
        backend.put(key, b"v")
    assert backend.list_keys(prefix=b"a") == [b"a1", b"a2", b"a3"]
    assert backend.list_keys(prefix=b"a", max_keys=2) == [b"a1", b"a2"]
    assert backend.list_keys(prefix=b"a", start_after=b"a1") == [b"a2", b"a3"]
    assert backend.list_keys(prefix=b"zz") == []
    assert backend.list_keys() == [b"a1", b"a2", b"a3", b"b1"]


def test_dump_load_roundtrip(backend):
    for i in range(20):
        backend.put(f"key{i:03d}".encode(), f"value{i}".encode())
    image = backend.dump()
    other = MapBackend()
    other.replace(decode_records(image))
    assert other.count() == 20
    assert other.get(b"key007") == b"value7"


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def test_codec_roundtrip_simple():
    pairs = [(b"a", b"1"), (b"", b""), (b"k", b"x" * 1000)]
    assert decode_records(encode_records(pairs)) == pairs


def test_codec_truncation_detected():
    data = encode_records([(b"key", b"value")])
    for cut in (1, 3, 5, 8, len(data) - 1):
        with pytest.raises(YokanError):
            decode_records(data[:cut])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.binary(max_size=64), st.binary(max_size=256)),
        max_size=30,
    )
)
def test_codec_roundtrip_property(pairs):
    assert decode_records(encode_records(pairs)) == pairs


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.binary(min_size=1, max_size=32), st.binary(max_size=64), max_size=40)
)
def test_backends_agree_property(mapping):
    """Map and ordered backends expose identical contents."""
    a, b = MapBackend(), OrderedBackend()
    for key, value in mapping.items():
        a.put(key, value)
        b.put(key, value)
    assert a.count() == b.count() == len(mapping)
    assert a.list_keys() == b.list_keys() == sorted(mapping)
    assert a.dump() == b.dump()
    assert a.size_bytes() == b.size_bytes()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=16), unique=True, min_size=1, max_size=20),
    st.data(),
)
def test_ordered_list_keys_matches_sorted_model(keys, data):
    backend = OrderedBackend()
    for key in keys:
        backend.put(key, b"v")
    all_sorted = sorted(keys)
    prefix = data.draw(st.sampled_from(all_sorted))[:1]
    expected = [k for k in all_sorted if k.startswith(prefix)]
    assert backend.list_keys(prefix=prefix) == expected


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------
def test_factory_known_types():
    assert {"map", "ordered", "persistent"} <= set(backend_types())
    assert isinstance(create_backend("map"), MapBackend)
    with pytest.raises(UnknownBackendError):
        create_backend("rocksdb")


# ----------------------------------------------------------------------
# persistent backend specifics
# ----------------------------------------------------------------------
def test_persistent_requires_store_and_path():
    with pytest.raises(YokanError):
        PersistentBackend({"path": "db"})
    with pytest.raises(YokanError):
        PersistentBackend({"store": make_store()})


def test_persistent_flush_and_reload():
    store = make_store()
    backend = PersistentBackend({"store": store, "path": "db"})
    backend.put(b"k", b"v")
    assert backend.files() == []  # nothing on disk yet
    assert backend.flush() > 0 and backend.flush() == 0  # then clean: no write
    backend.put(b"k2", b"v2")  # in memory only
    assert dict(PersistentBackend({"store": store, "path": "db"}).items()) == {b"k": b"v"}


def test_persistent_survives_reopen():
    """A new backend over the same segment log sees the flushed data
    (process crash + restart on the same node)."""
    store = make_store()
    first = PersistentBackend({"store": store, "path": "db"})
    first.put(b"k", b"v")
    first.flush()
    second = PersistentBackend({"store": store, "path": "db"})
    assert second.get(b"k") == b"v"


# ----------------------------------------------------------------------
# batch operations (put_multi / get_multi fast paths)
# ----------------------------------------------------------------------
def test_put_multi_matches_sequential_puts(backend):
    pairs = [(f"k{i}".encode(), (b"v" * (i + 1))) for i in range(20)]
    backend.put_multi(pairs)
    for key, value in pairs:
        assert backend.get(key) == value
    assert backend.count() == 20
    reference = BACKEND_FACTORIES["map"]()
    for key, value in pairs:
        reference.put(key, value)
    assert backend.size_bytes() == reference.size_bytes()


def test_put_multi_overwrites_and_tracks_bytes(backend):
    backend.put(b"k", b"long-old-value")
    backend.put_multi([(b"k", b"v"), (b"k2", b"vv")])
    assert backend.get(b"k") == b"v"
    assert backend.size_bytes() == len(b"k") + len(b"v") + len(b"k2") + len(b"vv")


def test_put_multi_keeps_ordered_listing():
    backend = OrderedBackend()
    backend.put(b"m", b"1")
    backend.put_multi([(b"z", b"1"), (b"a", b"1"), (b"m", b"2")])
    assert backend.list_keys() == [b"a", b"m", b"z"]


@pytest.mark.parametrize("name", ["ordered", "persistent"])
def test_failed_put_multi_keeps_the_key_array(name):
    """A batch that a malformed pair stops partway keeps what it stored
    before that pair, and the sorted key array (and the persistent
    backend's log) agree with the map."""
    store = make_store()
    backend = (OrderedBackend() if name == "ordered"
               else PersistentBackend({"store": store, "path": "db"}))
    backend.put_multi([(b"c", b"3")])
    with pytest.raises(ValueError):
        backend.put_multi([(b"a", b"1"), (b"b",)])
    assert backend.count() == 2
    assert backend.list_keys() == [b"a", b"c"]
    assert backend.size_bytes() == 4
    backend.erase(b"a")
    assert backend.list_keys() == [b"c"] and backend.get(b"c") == b"3"
    with pytest.raises(ValueError):
        backend.put_multi([(b"d", b"4"), (b"e", b"5", b"6")])
    assert list(backend.items()) == [(b"c", b"3"), (b"d", b"4")]
    if name == "persistent":
        backend.flush()
        reopened = PersistentBackend({"store": store, "path": "db"})
        assert list(reopened.items()) == [(b"c", b"3"), (b"d", b"4")]


def test_get_multi_missing_key_raises(backend):
    """One key or many, the error names the first missing key."""
    backend.put(b"k", b"v")
    for keys, missing in (([b"ghost"], b"ghost"), ([b"k", b"ghost", b"gone"], b"ghost"),
                          ([b"gone", b"k", b"ghost"], b"gone")):
        with pytest.raises(NoSuchKeyError) as caught:
            backend.get_multi(keys)
        assert caught.value.key == missing


def test_get_multi_returns_values_in_key_order(backend):
    backend.put_multi([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
    assert backend.get_multi([]) == []
    assert backend.get_multi([b"b"]) == [b"2"]
    assert backend.get_multi([b"c", b"a"]) == [b"3", b"1"]
    assert backend.get_multi([b"a", b"c", b"a", b"b"]) == [b"1", b"3", b"1", b"2"]


# ----------------------------------------------------------------------
# model-based: op sequences against a plain dict on every backend
# ----------------------------------------------------------------------
def model_list_keys(model, prefix, start_after, max_keys):
    keys = [
        key
        for key in sorted(model)
        if key.startswith(prefix) and (start_after is None or key > start_after)
    ]
    return keys[:max_keys] if max_keys else keys


def apply_op(backend, model, op):
    """Apply ``op`` to both; the backend's reply (or error) must be the
    model's."""
    kind = op[0]
    if kind == "put":
        _kind, key, value = op
        backend.put(key, value)
        model[key] = value
    elif kind == "put_multi":
        _kind, pairs, one_shot = op
        backend.put_multi(iter(pairs) if one_shot else pairs)
        model.update(pairs)
    elif kind == "put_multi_malformed":
        # The batch stops at its 1-tuple: like a dict update, the
        # backend keeps the pairs before it.
        _kind, pairs = op
        batch = pairs + [(b"m",)]
        with pytest.raises(ValueError):
            backend.put_multi(batch)
        with pytest.raises(ValueError):
            model.update(batch)
    elif kind == "clear":
        backend.clear()
        model.clear()
    elif kind == "erase":
        _kind, key = op
        if key in model:
            backend.erase(key)
            del model[key]
        else:
            with pytest.raises(NoSuchKeyError) as caught:
                backend.erase(key)
            assert caught.value.key == key
    elif kind == "get_multi":
        _kind, keys = op
        missing = [key for key in keys if key not in model]
        if missing:
            with pytest.raises(NoSuchKeyError) as caught:
                backend.get_multi(keys)
            assert caught.value.key == missing[0]
        else:
            assert backend.get_multi(keys) == [model[key] for key in keys]
    else:
        _kind, prefix, start_after, max_keys = op
        assert backend.list_keys(prefix, start_after, max_keys) == model_list_keys(
            model, prefix, start_after, max_keys
        )


def check_against_model(name, backend, model):
    assert dict(backend.items()) == model
    assert backend.count() == len(model)
    assert backend.size_bytes() == sum(len(k) + len(v) for k, v in model.items())
    assert backend.list_keys() == sorted(model)
    ordered = getattr(backend, "_mem", backend)
    if isinstance(ordered, OrderedBackend):
        assert ordered._keys == sorted(ordered._data)
    image = backend.dump()
    assert decode_records(image) == sorted(model.items())
    reloaded = BACKEND_FACTORIES[name]()
    reloaded.put(b"stale", b"gone after replace")
    reloaded.replace(decode_records(image))
    assert dict(reloaded.items()) == model
    assert reloaded.dump() == image
    assert reloaded.size_bytes() == backend.size_bytes()


#: a three-letter alphabet with 0xff in it: collisions, overwrites, gaps
#: and prefixes that end in 0xff all come up within a few steps.
model_keys = st.lists(st.sampled_from([b"a", b"m", b"\xff"]), max_size=3).map(b"".join)
model_values = st.binary(max_size=6)
model_ops = st.one_of(
    st.tuples(st.just("put"), model_keys, model_values),
    st.tuples(
        st.just("put_multi"),
        st.lists(st.tuples(model_keys, model_values), max_size=8),
        st.booleans(),
    ),
    st.tuples(st.just("put_multi_malformed"), st.lists(st.tuples(model_keys, model_values), max_size=4)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("erase"), model_keys),
    st.tuples(st.just("get_multi"), st.lists(model_keys, max_size=4)),
    st.tuples(
        st.just("list_keys"),
        model_keys,
        st.none() | model_keys,
        st.integers(min_value=0, max_value=5),
    ),
)


@pytest.mark.parametrize("name", sorted(BACKEND_FACTORIES))
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(model_ops, max_size=12))
def test_backend_matches_dict_model(name, ops):
    backend, model = BACKEND_FACTORIES[name](), {}
    for op in ops:
        apply_op(backend, model, op)
        check_against_model(name, backend, model)


def test_put_multi_merge_shapes_match_dict_model(backend):
    """Every way a batch's new keys can fall into the sorted key array."""
    name = backend.type_name
    model = {}
    batches = [
        [],  # empty batch into an empty database
        [(b"m2", b"1"), (b"m0", b"2"), (b"m4", b"3")],  # unsorted, into an empty database
        [(b"a1", b"4"), (b"a0", b"5")],  # all before the first key
        [(b"m11", b"6"), (b"m10", b"7")],  # inside one gap
        [(b"a5", b"8"), (b"m3", b"9"), (b"z", b"10")],  # spread over several gaps
        [(b"zz1", b"11"), (b"zz0", b"12")],  # all after the last key
        [(b"m0", b"13"), (b"z", b"")],  # overwrite only
        [(b"q", b"14"), (b"q", b"15"), (b"m0", b"16"), (b"q", b"17")],  # in-batch duplicates
        [(b"m10", b"18"), (b"m12", b"19")],  # one overwrite, one new key
        [],  # empty batch into a full database
    ]
    for index, batch in enumerate(batches):
        apply_op(backend, model, ("put_multi", batch, index % 2 == 1))
        check_against_model(name, backend, model)
    assert model[b"q"] == b"17"


def test_list_keys_bounds_match_dict_model(backend):
    keys = [b"a", b"a\xfe", b"a\xff", b"a\xff\x00", b"a\xff\xff", b"b", b"b0", b"b1", b"b2",
            b"c", b"\xff", b"\xff\x01", b"\xff\xff", b"\xff\xff\xff"]
    model = {key: b"v" for key in keys}
    backend.put_multi(list(model.items()))
    prefixes = [b"", b"b", b"a\xff", b"a\xff\xff", b"\xff", b"\xff\xff", b"absent", b"b3", b"\xfe"]
    starts = [None, b"", b"a", b"b", b"b0", b"b1x", b"b2", b"b9", b"c", b"\xff\xff", b"\xff" * 4]
    for prefix in prefixes:
        for start_after in starts:
            for max_keys in (0, 1, 2, len(keys) + 1):
                apply_op(backend, model, ("list_keys", prefix, start_after, max_keys))
