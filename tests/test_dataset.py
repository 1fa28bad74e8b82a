"""Tests for the dataset component (paper section 3.2's composition
example): Yokan metadata + Warabi blobs + Poesie scripting, wired by
Bedrock dependency injection."""

import pytest

from repro import Cluster
from repro.bedrock import BedrockClient, boot_process
from repro.dataset import DatasetClient, DatasetError, DatasetProvider
from repro.margo import RpcFailedError
from repro.poesie import PoesieClient, PoesieProvider
from repro.warabi import WarabiClient, WarabiProvider
from repro.yokan import YokanClient, YokanProvider


@pytest.fixture()
def rig():
    """Manual composition across three processes (no Bedrock)."""
    cluster = Cluster(seed=71)
    meta_margo = cluster.add_margo("meta", node="n0")
    data_margo = cluster.add_margo("data", node="n1")
    front_margo = cluster.add_margo("front", node="n2")
    YokanProvider(meta_margo, "metadb", provider_id=1)
    WarabiProvider(data_margo, "blobs", provider_id=1)
    PoesieProvider(front_margo, "scripts", provider_id=2)
    provider = DatasetProvider(
        front_margo,
        "datasets",
        provider_id=1,
        dependencies={
            "metadata": YokanClient(front_margo).make_handle(meta_margo.address, 1),
            "data": WarabiClient(front_margo).make_handle(data_margo.address, 1),
            "interpreter": PoesieClient(front_margo).make_handle(
                front_margo.address, 2
            ),
        },
    )
    app = cluster.add_margo("app", node="na")
    handle = DatasetClient(app).make_handle(front_margo.address, 1)
    return cluster, app, handle, provider


def test_create_write_read(rig):
    cluster, app, ds, _ = rig

    def driver():
        meta = yield from ds.create("sim-output", attributes={"owner": "nova"})
        yield from ds.write("sim-output", b"timestep-data" * 100)
        payload = yield from ds.read("sim-output")
        described = yield from ds.describe("sim-output")
        return meta, payload, described

    meta, payload, described = cluster.run_ult(app, driver())
    assert meta["attributes"] == {"owner": "nova"}
    assert payload == b"timestep-data" * 100
    assert described["size"] == 1300


def test_partial_write_and_read(rig):
    cluster, app, ds, _ = rig

    def driver():
        yield from ds.create("d")
        first = yield from ds.write("d", b"AAAA")
        second = yield from ds.write("d", b"BB", offset=2)
        part = yield from ds.read("d", offset=1, size=3)
        return first, second, part

    assert cluster.run_ult(app, driver()) == (4, 2, b"ABB")


def test_large_payload_uses_bulk(rig):
    cluster, app, ds, _ = rig
    big = bytes(range(256)) * 2048  # 512 KiB

    def driver():
        yield from ds.create("big")
        yield from ds.write("big", big)
        return (yield from ds.read("big"))

    assert cluster.run_ult(app, driver()) == big


def test_list_and_drop(rig):
    cluster, app, ds, _ = rig

    def driver():
        yield from ds.create("b-set")
        yield from ds.create("a-set")
        names = yield from ds.list()
        yield from ds.drop("b-set")
        after = yield from ds.list()
        return names, after

    names, after = cluster.run_ult(app, driver())
    assert names == ["a-set", "b-set"]
    assert after == ["a-set"]


def test_duplicate_create_rejected(rig):
    cluster, app, ds, _ = rig

    def driver():
        yield from ds.create("dup")
        yield from ds.create("dup")

    with pytest.raises(RpcFailedError, match="already exists"):
        cluster.run_ult(app, driver())


def test_missing_dataset_errors(rig):
    cluster, app, ds, _ = rig

    def driver():
        yield from ds.read("ghost")

    with pytest.raises(RpcFailedError):
        cluster.run_ult(app, driver())


def test_compute_runs_poesie_on_metadata(rig):
    """The M + Poesie composition: server-side script over metadata."""
    cluster, app, ds, _ = rig

    def driver():
        yield from ds.create("physics", attributes={"events": 42})
        result = yield from ds.compute(
            "physics", "return meta['attributes']['events'] * 2"
        )
        return result

    assert cluster.run_ult(app, driver()) == 84


def test_dependency_validation():
    cluster = Cluster(seed=71)
    margo = cluster.add_margo("front", node="n0")
    with pytest.raises(DatasetError, match="metadata"):
        DatasetProvider(margo, "d", provider_id=1, dependencies={})


def test_get_config_reports_composition(rig):
    _, _, _, provider = rig
    doc = provider.get_config()
    assert doc["composed_of"]["metadata"]["provider_id"] == 1
    assert doc["composed_of"]["interpreter"] is not None


def test_bedrock_boot_composes_dataset_service():
    """The whole composition from one Listing-3 document: Bedrock wires
    local providers into the dataset provider's dependencies."""
    import repro.dataset  # noqa: F401 - registers libdataset.so

    cluster = Cluster(seed=72)
    config = {
        "libraries": {
            "yokan": "libyokan.so",
            "warabi": "libwarabi.so",
            "poesie": "libpoesie.so",
            "dataset": "libdataset.so",
        },
        "providers": [
            {"name": "metadb", "type": "yokan", "provider_id": 1},
            {"name": "blobs", "type": "warabi", "provider_id": 1},
            {"name": "scripts", "type": "poesie", "provider_id": 1},
            {
                "name": "datasets",
                "type": "dataset",
                "provider_id": 1,
                "dependencies": {
                    "metadata": "metadb",
                    "data": "blobs",
                    "interpreter": "scripts",
                },
            },
        ],
    }
    margo, bedrock = boot_process(cluster, "svc", "n0", config)
    assert bedrock.dependents["metadb"] == {"local:datasets"}
    app = cluster.add_margo("app", node="na")
    ds = DatasetClient(app).make_handle(margo.address, 1)

    def driver():
        yield from ds.create("composed", attributes={"n": 3})
        yield from ds.write("composed", b"xyz")
        value = yield from ds.read("composed")
        result = yield from ds.compute("composed", "return meta['size'] + 1")
        return value, result

    value, result = cluster.run_ult(app, driver())
    assert value == b"xyz"
    assert result == 4

    # Bedrock protects the composition: metadb cannot be stopped while
    # the dataset provider depends on it.
    handle = BedrockClient(app).make_service_handle(margo.address)

    def try_stop():
        yield from handle.stop_provider("metadb")

    with pytest.raises(RpcFailedError, match="depended on"):
        cluster.run_ult(app, try_stop())
