"""Tests for the HEPnOS-like event store and the Colza-like pipeline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.colza import ColzaClient, ColzaError, ColzaProvider
from repro.hepnos import (
    EventKey,
    HEPnOSService,
    decode_event_key,
    encode_event_key,
    event_prefix,
    nova_like_workflow,
    run_step,
)
from repro.ssg import SwimConfig, create_group

SWIM = SwimConfig(period=0.5, ping_timeout=0.15, suspicion_timeout=2.0)


# ----------------------------------------------------------------------
# data model
# ----------------------------------------------------------------------
def test_event_key_encoding_roundtrip():
    key = EventKey("nova", 12, 3, 456)
    raw = encode_event_key(key, "raw")
    decoded, product = decode_event_key(raw)
    assert decoded == key
    assert product == "raw"
    no_product, product2 = decode_event_key(encode_event_key(key))
    assert no_product == key and product2 == ""


def test_event_key_order_preserved():
    keys = [
        EventKey("ds", 1, 1, 2),
        EventKey("ds", 1, 2, 1),
        EventKey("ds", 2, 0, 0),
        EventKey("ds", 1, 1, 10),
    ]
    encoded = sorted(encode_event_key(k) for k in keys)
    decoded = [decode_event_key(e)[0] for e in encoded]
    assert decoded == sorted(keys)


def test_event_key_validation():
    with pytest.raises(ValueError):
        EventKey("bad|name", 0, 0, 0)
    with pytest.raises(ValueError):
        EventKey("ds", -1, 0, 0)
    with pytest.raises(ValueError):
        encode_event_key(EventKey("ds", 0, 0, 0), "bad|product")
    with pytest.raises(ValueError):
        decode_event_key(b"onlyonepart")
    with pytest.raises(ValueError):
        event_prefix("ds", run=None, subrun=3)


def test_event_prefix_scoping():
    assert event_prefix("ds") == b"ds|"
    assert event_prefix("ds", 5) == b"ds|00000005|"
    assert event_prefix("ds", 5, 7) == b"ds|00000005|00000007|"


# ----------------------------------------------------------------------
# HEPnOS service
# ----------------------------------------------------------------------
@pytest.fixture()
def hepnos():
    cluster = Cluster(seed=61)
    service = HEPnOSService.deploy(
        cluster, nodes=["n0", "n1"], databases_per_process=2
    )
    client_margo = cluster.add_margo("app", node="napp")
    client = service.client(client_margo)
    return cluster, service, client_margo, client


def test_store_load_roundtrip(hepnos):
    cluster, _, cm, client = hepnos
    key = EventKey("nova", 1, 2, 3)

    def driver():
        yield from client.store_event(key, "raw", b"payload")
        exists = yield from client.event_exists(key, "raw")
        data = yield from client.load_event(key, "raw")
        return exists, data

    assert cluster.run_ult(cm, driver()) == (True, b"payload")


def test_events_shard_across_databases(hepnos):
    cluster, service, cm, client = hepnos

    def driver():
        items = [
            (EventKey("nova", 0, 0, i), "raw", b"x") for i in range(64)
        ]
        yield from client.store_batch(items)

    cluster.run_ult(cm, driver())
    counts = []
    for name, process in service.service.processes.items():
        for record in process.bedrock.records.values():
            if record.type_name == "yokan":
                counts.append(record.instance.backend.count())
    assert len(counts) == 4
    assert sum(counts) == 64
    assert all(c > 0 for c in counts)  # every shard got a share


def test_list_events_merges_all_shards(hepnos):
    cluster, _, cm, client = hepnos

    def driver():
        items = [(EventKey("nova", 1, 0, i), "raw", b"x") for i in range(20)]
        items += [(EventKey("nova", 2, 0, i), "raw", b"x") for i in range(5)]
        yield from client.store_batch(items)
        run1 = yield from client.list_events("nova", run=1)
        everything = yield from client.list_events("nova")
        return run1, everything

    run1, everything = cluster.run_ult(cm, driver())
    assert len(run1) == 20
    assert len(everything) == 25
    assert everything == sorted(everything)


def test_reshard_preserves_data(hepnos):
    cluster, service, cm, client = hepnos

    def fill():
        items = [(EventKey("nova", 0, 0, i), "raw", f"v{i}".encode()) for i in range(40)]
        yield from client.store_batch(items)

    cluster.run_ult(cm, fill())

    def reshard():
        count = yield from service.reshard(databases_per_process=1)
        return count

    new_count = service.service.run_control(reshard())
    assert new_count == 2
    client.refresh(service.shards)

    def verify():
        data = yield from client.load_event(EventKey("nova", 0, 0, 17), "raw")
        keys = yield from client.list_events("nova")
        return data, len(keys)

    data, total = cluster.run_ult(cm, verify())
    assert data == b"v17"
    assert total == 40


def test_workflow_steps_run(hepnos):
    cluster, _, cm, client = hepnos
    rng = random.Random(5)
    reports = []

    def driver():
        for step in nova_like_workflow(scale=1):
            report = yield from run_step(client, step, rng)
            reports.append(report)

    cluster.run_ult(cm, driver())
    assert [r.kind for r in reports] == ["ingest", "filter", "analysis"]
    assert all(r.duration > 0 for r in reports)
    assert all(r.operations > 0 for r in reports)


def test_workflow_step_validation():
    from repro.hepnos import WorkflowStep

    with pytest.raises(ValueError):
        WorkflowStep("x", "explode", 1, 1)
    with pytest.raises(ValueError):
        WorkflowStep("x", "ingest", -1, 1)


def test_client_requires_shards():
    cluster = Cluster(seed=1)
    margo = cluster.add_margo("app", node="n")
    from repro.hepnos import HEPnOSClient

    with pytest.raises(ValueError):
        HEPnOSClient(margo, [])


# ----------------------------------------------------------------------
# Colza
# ----------------------------------------------------------------------
def make_colza(n=3, seed=62):
    cluster = Cluster(seed=seed)
    margos = [cluster.add_margo(f"c{i}", node=f"n{i}") for i in range(n)]
    groups = create_group("colza-g", margos, cluster.randomness, swim=SWIM)
    providers = [
        ColzaProvider(margo, f"colza{i}", provider_id=1, group=group)
        for i, (margo, group) in enumerate(zip(margos, groups))
    ]
    app = cluster.add_margo("app", node="napp")
    pipeline = ColzaClient(app).make_pipeline_handle(
        [m.address for m in margos], provider_id=1
    )
    return cluster, margos, groups, providers, app, pipeline


def test_stage_and_execute():
    cluster, margos, _, providers, app, pipeline = make_colza()
    chunks = [bytes([i]) * 1000 for i in range(6)]

    def driver():
        yield from pipeline.stage(iteration=1, chunks=chunks)
        result = yield from pipeline.execute(iteration=1)
        return result

    result = cluster.run_ult(app, driver())
    assert result["chunks"] == 6
    assert result["bytes"] == 6000
    assert result["members"] == 3


def test_stale_view_detected_and_recovered():
    """The paper's protocol: a member dies; the client's stamped hash no
    longer matches; providers reject; the client refreshes and retries."""
    cluster, margos, groups, providers, app, pipeline = make_colza(n=4)
    cluster.run(until=2.0)
    old_hash = pipeline.view_hash
    # Kill one member; wait until survivors converge on the new view.
    cluster.faults.kill_process(margos[3].process)
    cluster.run(until=40.0)
    assert groups[0].view.size == 3

    def driver():
        yield from pipeline.stage(iteration=2, chunks=[b"z" * 100] * 4)
        result = yield from pipeline.execute(iteration=2)
        return result

    result = cluster.run_ult(app, driver())
    assert result["members"] == 3
    assert pipeline.view_hash != old_hash
    assert pipeline.view_refreshes >= 1
    # At least one provider rejected a stale RPC.
    assert sum(p.stale_rejections for p in providers[:3]) >= 1


def test_execute_empty_iteration():
    cluster, _, _, _, app, pipeline = make_colza()

    def driver():
        result = yield from pipeline.execute(iteration=99)
        return result

    result = cluster.run_ult(app, driver())
    assert result["chunks"] == 0
    assert result["bytes"] == 0


def test_pipeline_requires_members():
    cluster = Cluster(seed=1)
    app = cluster.add_margo("app", node="n")
    with pytest.raises(ColzaError):
        ColzaClient(app).make_pipeline_handle([], provider_id=1)


# ----------------------------------------------------------------------
# HEPnOS: paged iteration must agree with the parallel bulk scan
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),   # run
            st.integers(min_value=0, max_value=2),   # subrun
            st.integers(min_value=0, max_value=30),  # event
        ),
        min_size=1,
        max_size=40,
        unique=True,
    ),
    st.integers(min_value=1, max_value=16),  # page size
)
def test_hepnos_iterate_matches_list(events, page_size):
    cluster = Cluster(seed=97)
    service = HEPnOSService.deploy(cluster, ["n0", "n1"], databases_per_process=2)
    app = cluster.add_margo("app", node="na")
    client = service.client(app)

    def driver():
        items = [
            (EventKey("ds", run, subrun, event), "raw", b"x")
            for run, subrun, event in events
        ]
        yield from client.store_batch(items)
        listed = yield from client.list_events("ds")
        iterated = yield from client.iterate_events("ds", page_size=page_size)
        return listed, iterated

    listed, iterated = cluster.run_ult(app, driver())
    assert listed == iterated
    assert len(listed) == len(events)
