"""Config sharing: a process's composition can be exported and re-booted
identically (paper section 5: configurations are shareable artifacts for
reproducing experiments), plus the README quickstart verbatim."""

import json

from repro import Cluster
from repro.bedrock import boot_process
from repro.yokan import YokanClient


def test_boot_document_clones_a_process():
    cluster = Cluster(seed=85)
    original_config = {
        "margo": {
            "argobots": {
                "pools": [{"name": "fast"}, {"name": "slow"}],
                "xstreams": [
                    {"name": "es0", "scheduler": {"pools": ["fast", "slow"]}}
                ],
            },
            "rpc_pool": "fast",
            "progress_pool": "slow",
        },
        "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
        "providers": [
            {"name": "remi0", "type": "remi", "provider_id": 0, "pool": "slow"},
            {"name": "db0", "type": "yokan", "provider_id": 1, "pool": "fast",
             "config": {"database": {"type": "ordered"}},
             "dependencies": {"mover": "remi0"}},
        ],
    }
    _, bedrock = boot_process(cluster, "original", "n0", original_config)
    document = bedrock.boot_document()
    # The document is pure JSON (shareable as text).
    json.dumps(document)

    clone_margo, clone_bedrock = boot_process(cluster, "clone", "n1", document)
    assert sorted(clone_bedrock.records) == sorted(bedrock.records)
    assert set(clone_margo.pools) == {"fast", "slow"}
    clone_record = clone_bedrock.records["db0"]
    assert clone_record.pool == "fast"
    assert clone_record.dependencies == {"mover": "remi0"}
    # The clone serves traffic.
    app = cluster.add_margo("app", node="na")
    db = YokanClient(app).make_handle(clone_margo.address, 1)

    def driver():
        yield from db.put("k", "v")
        return (yield from db.get("k"))

    assert cluster.run_ult(app, driver()) == b"v"


def test_boot_document_reflects_runtime_changes():
    cluster = Cluster(seed=86)
    _, bedrock = boot_process(
        cluster, "p", "n0", {"libraries": {"yokan": "libyokan.so"}}
    )
    # Reconfigure at run time, then export.
    bedrock.margo.add_pool({"name": "late"})
    bedrock.margo.add_xstream({"name": "late-es", "scheduler": {"pools": ["late"]}})
    bedrock._validate_start(
        {"name": "latedb", "type": "yokan", "provider_id": 3, "pool": "late"}
    )
    bedrock._execute_start(
        {"name": "latedb", "type": "yokan", "provider_id": 3, "pool": "late"}
    )
    document = bedrock.boot_document()
    _, clone = boot_process(cluster, "clone", "n1", document)
    assert "latedb" in clone.records
    assert clone.records["latedb"].pool == "late"


def test_readme_quickstart_verbatim():
    """The README's quickstart code must actually work."""
    from repro import Cluster
    from repro.bedrock import boot_process
    from repro.yokan import YokanClient

    cluster = Cluster(seed=7)

    server, bedrock = boot_process(cluster, "server", "node0", {
        "margo": {"argobots": {"pools": [{"name": "p"}], "xstreams": [
            {"name": "es", "scheduler": {"pools": ["p"]}}]}},
        "libraries": {"yokan": "libyokan.so"},
        "providers": [{"name": "db", "type": "yokan", "provider_id": 1,
                       "config": {"database": {"type": "ordered"}}}],
    })
    client = cluster.add_margo("client", node="node1")
    db = YokanClient(client).make_handle(server.address, 1)

    def workload():
        yield from db.put("hello", "world")
        return (yield from db.get("hello"))

    assert cluster.run_ult(client, workload()) == b"world"

    names = bedrock.query("""
        $result = [];
        foreach ($__config__.providers as $p) { array_push($result, $p.name); }
        return $result;
    """)
    assert names == ["db"]
