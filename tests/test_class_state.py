"""No class attribute of the program is written while a deployment runs.

On CPython 3.11 a store to a class attribute (``Cls.counter += 1``)
resets that type's version tag, which throws away every specialised
attribute load, store and method call on its instances.  A counter kept
on a class therefore costs every hot site that touches its instances a
re-specialisation each time it ticks -- a cost no call count shows.  The
guard snapshots the namespace of every class in the loaded ``repro``
modules, runs a short composed deployment and asserts none changed.
"""

import sys

from repro import Cluster
from repro.bedrock import BedrockClient, boot_process
from repro.raft import RaftClient
from repro.yokan import YokanClient

OBSERVED = {"tracing": True, "metrics": True, "profiling": True, "profile_window": 0.005}


def _classes():
    """Every class defined in a loaded ``repro`` module, nested ones too."""
    found = {}

    def visit(cls, module):
        key = f"{module}.{cls.__qualname__}"
        if cls.__module__ != module or key in found:
            return
        found[key] = cls
        for value in vars(cls).values():
            if isinstance(value, type):
                visit(value, module)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                if isinstance(value, type):
                    visit(value, name)
    return found


def _snapshot(classes):
    return {name: dict(vars(cls)) for name, cls in classes.items()}


def _changed(before, classes):
    changed = []
    for name, cls in classes.items():
        now = vars(cls)
        old = before[name]
        for key in sorted(set(old) | set(now), key=str):
            if key not in old or key not in now or now[key] is not old[key]:
                changed.append(f"{name}.{key}")
    return changed


def _deployment():
    cluster = Cluster(seed=5)
    src_doc = {
        "margo": {"observability": OBSERVED},
        "libraries": {"yokan": "libyokan.so"},
        "providers": [
            {"name": "db", "type": "yokan", "provider_id": 1,
             "config": {"database": {"type": "persistent"}}},
        ],
    }
    dst_doc = {
        "margo": {"observability": OBSERVED},
        "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
        "providers": [{"name": "remi0", "type": "remi", "provider_id": 0}],
    }
    src, _ = boot_process(cluster, "src", "ns", src_doc)
    dst, _ = boot_process(cluster, "dst", "nd", dst_doc)
    client = cluster.add_margo("client", node="nc", config={"observability": OBSERVED})
    admin = BedrockClient(client).make_service_handle(src.address)
    before_move = YokanClient(client).make_handle(src.address, 1)
    after_move = YokanClient(client).make_handle(dst.address, 1)

    def driver():
        for i in range(20):
            yield from before_move.put(f"k{i}", f"v{i}")
        yield from admin.add_pool({"name": "extra"})
        yield from admin.add_xstream(
            {"name": "es-extra", "scheduler": {"type": "basic", "pools": ["extra"]}}
        )
        yield from admin.migrate_provider("db", dst.address, remi_provider_id=0)
        return (yield from after_move.get("k7"))

    assert cluster.run_ult(client, driver()) == b"v7"
    RaftClient(client).make_group_handle([src.address, dst.address], provider_id=1)


def test_a_deployment_writes_no_class_attribute():
    _deployment()  # load every module the run touches before the snapshot
    classes = _classes()
    before = _snapshot(classes)
    _deployment()
    assert _changed(before, classes) == []
