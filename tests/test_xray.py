"""mochi-xray: causal edges, critical paths, tail attribution, what-if.

Covers the attribution math and what-if engine on synthetic inputs, the
three known-bottleneck scenarios (the injected bottleneck must be the
top attributed segment AND the top-ranked action's target, byte-
identically across seeded runs), the recording plane's gating and
bounds, the Bedrock RPCs, the exporters, and the manual-span API.
"""

import json

import pytest

from repro import Cluster
from repro.bedrock import BedrockClient, boot_process
from repro.margo.ult import Compute
from repro.observability import ObservabilitySpec
from repro.observability.xray import plane as plane_module
from repro.observability.xray import (
    XrayPlane,
    attribute_paths,
    candidate_for,
    nearest_rank,
    segment_key,
    what_if,
)
from repro.scenarios import SCENARIOS

XRAY_OBS = {
    "tracing": True,
    "profiling": True,
    "profile_window": 0.005,
    "xray": True,
}


def _path(total, slow=0.0, trace="t0", span="s0"):
    """A synthetic path record: fixed overheads + ``slow`` extra sched."""
    segments = [
        {"process": "cli", "pool": "", "phase": "client_queue", "duration": 1e-6},
        {"process": "cli->srv", "pool": "wire", "phase": "network", "duration": 5e-6},
        {"process": "srv", "pool": "p0", "phase": "sched", "duration": 1e-6 + slow},
        {"process": "srv", "pool": "p0", "phase": "handler", "duration": total - 7e-6 - slow},
    ]
    return {
        "trace_id": trace,
        "span_id": span,
        "rpc": "work",
        "provider": 1,
        "weight": 1,
        "client": "cli",
        "server": "srv",
        "start": 0.0,
        "end": total,
        "total": total,
        "segments": segments,
    }


# ----------------------------------------------------------------------
# attribution math
# ----------------------------------------------------------------------
def test_nearest_rank_quantiles():
    values = [1.0, 2.0, 3.0, 4.0]
    assert nearest_rank(values, 0.5) == 2.0
    assert nearest_rank(values, 0.99) == 4.0
    assert nearest_rank(values, 0.25) == 1.0
    assert nearest_rank([7.0], 0.99) == 7.0


def test_attribute_paths_empty():
    doc = attribute_paths([])
    assert doc["requests"] == 0
    assert doc["segments"] == []


def test_attribution_blames_the_slow_segment():
    # 98 fast requests, 2 slow ones whose entire excess is sched wait
    # (two, so the slow cohort spans the nearest-rank p99).
    paths = [_path(20e-6, trace=f"t{i}", span=f"s{i}") for i in range(98)]
    for i in (98, 99):
        paths.append(_path(120e-6, slow=100e-6, trace=f"t{i}", span=f"s{i}"))
    doc = attribute_paths(paths)
    assert doc["requests"] == 100
    assert doc["p99"] == pytest.approx(120e-6)
    top = doc["segments"][0]
    assert (top["process"], top["pool"], top["phase"]) == ("srv", "p0", "sched")
    assert top["excess"] == pytest.approx(100e-6)
    # segment_key round-trips the grouping key.
    assert segment_key(paths[0]["segments"][2]) == ("srv", "p0", "sched")


def test_what_if_shrinks_the_dominant_segment():
    paths = [_path(20e-6, trace=f"t{i}", span=f"s{i}") for i in range(98)]
    for i in (98, 99):
        paths.append(_path(120e-6, slow=100e-6, trace=f"t{i}", span=f"s{i}"))
    attribution = attribute_paths(paths)
    ranking = what_if(paths, attribution)
    top = ranking["actions"][0]
    assert top["action"] == "add_xstream"  # sched phase -> more xstreams
    assert top["target"] == "p0"
    # Halving the slow requests' 101us sched wait: 120us -> 69.5us p99.
    assert top["predicted_p99"] == pytest.approx(69.5e-6)
    assert top["predicted_improvement"] == pytest.approx(50.5e-6 / 120e-6)


def test_candidate_action_mapping():
    paths = [_path(20e-6)]
    sched = {"process": "srv", "pool": "p0", "phase": "sched"}
    lock = {"process": "srv", "pool": "mutex:m", "phase": "lock"}
    wire = {"process": "cli->srv", "pool": "wire", "phase": "network"}
    assert candidate_for(sched, paths)["action"] == "add_xstream"
    assert candidate_for(lock, paths)["action"] == "migrate_provider"
    assert candidate_for(wire, paths)["action"] == "add_node"


# ----------------------------------------------------------------------
# known-bottleneck scenarios (satellite 4 / acceptance)
# ----------------------------------------------------------------------
_EXPECTED_ACTION = {"pool": "add_xstream", "lock": "migrate_provider", "network": "add_node"}


@pytest.mark.parametrize("name,scenario", SCENARIOS["xray"].items())
def test_scenario_blames_injected_bottleneck(name, scenario):
    doc = scenario(seed=7)
    assert doc["requests"] > 0
    assert doc["windows"] >= 1
    injected = doc["injected_bottleneck"]
    top = doc["top_segment"]
    assert {k: top[k] for k in ("process", "pool", "phase")} == injected
    action = doc["top_action"]
    assert action["action"] == _EXPECTED_ACTION[name]
    assert action["predicted_improvement"] > 0.05
    # The action targets the injected bottleneck's location.
    assert injected["process"].startswith(str(action["segment"]["process"]))


@pytest.mark.parametrize("name,scenario", SCENARIOS["xray"].items())
def test_scenario_attribution_determinism(name, scenario):
    """Byte-identical across two seeded runs (CI repeats this under
    REPRO_SANITIZE=race)."""
    first = json.dumps(scenario(seed=11), indent=2, sort_keys=True)
    second = json.dumps(scenario(seed=11), indent=2, sort_keys=True)
    assert first == second


# ----------------------------------------------------------------------
# plane + recorder mechanics
# ----------------------------------------------------------------------
def test_plane_window_close_is_idempotent(monkeypatch):
    monkeypatch.setattr(plane_module, "MAX_PATHS", 2)
    plane = XrayPlane(kernel=None)
    plane.add_path(_path(20e-6, span="a"))
    plane.add_path(_path(20e-6, span="b"))
    plane.add_path(_path(20e-6, span="c"))  # over max_paths: counted, dropped
    doc = plane.close_window(0, 0.0, 1.0)
    assert doc["requests"] == 2
    assert doc["dropped_paths"] == 1
    assert plane.close_window(0, 0.0, 1.0) is None  # second endpoint no-ops
    assert len(plane.windows) == 1
    # recent survives window close.
    assert [r["span_id"] for r in plane.recent] == ["b", "c"]


def test_spec_xray_requires_profiling():
    with pytest.raises(ValueError):
        ObservabilitySpec.from_json({"xray": True})
    spec = ObservabilitySpec.from_json({"profiling": True, "xray": True})
    assert spec.xray
    assert ObservabilitySpec.from_json(spec.to_json()).xray


def _echo_cluster(seed=7, obs=None, n_rpcs=40):
    cluster = Cluster(seed=seed)
    obs = dict(obs or XRAY_OBS)
    server = cluster.add_margo("srv", node="n0", config={"observability": obs})
    client = cluster.add_margo("cli", node="n1", config={"observability": obs})

    def handler(ctx):
        yield Compute(5e-6)
        return ctx.args

    server.register("echo", handler)

    def driver():
        for i in range(n_rpcs):
            yield from client.forward(server.address, "echo", i)

    cluster.run_ult(client, driver())
    cluster.run(until=cluster.now + 0.02)
    return cluster, server, client


def test_sampling_gates_recording():
    obs = dict(XRAY_OBS, profile_sample_every=4)
    cluster, _server, _client = _echo_cluster(obs=obs, n_rpcs=40)
    plane = cluster.xray_plane()
    records = list(plane.recent)
    assert len(records) == 10  # every 4th of 40
    assert all(r["weight"] == 4 for r in records)


def test_record_segments_sum_to_total():
    cluster, _server, _client = _echo_cluster()
    records = list(cluster.xray_plane().recent)
    assert records
    for record in records:
        phases = [s["phase"] for s in record["segments"]]
        assert phases[:3] == ["client_queue", "network", "sched"]
        assert phases[-1] == "respond"
        total = sum(s["duration"] for s in record["segments"])
        assert total == pytest.approx(record["total"], abs=1e-12)


def test_no_xray_attr_when_disabled():
    obs = {"tracing": False, "profiling": True, "profile_window": 0.005}
    cluster, _server, _client = _echo_cluster(obs=obs)
    assert cluster.xray_plane() is None


# ----------------------------------------------------------------------
# Bedrock RPCs
# ----------------------------------------------------------------------
def test_bedrock_xray_rpcs():
    cluster = Cluster(seed=13)
    margo, _bedrock = boot_process(
        cluster, "srv", "n0", {"margo": {"observability": dict(XRAY_OBS)}}
    )
    client = cluster.add_margo("cli", node="n1", config={"observability": dict(XRAY_OBS)})

    def handler(ctx):
        yield Compute(5e-6)
        return ctx.args

    margo.register("echo", handler)

    def driver():
        for i in range(30):
            yield from client.forward(margo.address, "echo", i)

    cluster.run_ult(client, driver())
    cluster.run(until=cluster.now + 0.02)

    handle = BedrockClient(client).make_service_handle(margo.address)
    xray = cluster.run_ult(client, handle.query("return $__xray__;"))
    assert xray["paths"]
    one = json.dumps(xray["paths"][0]["trace_id"])
    filtered = cluster.run_ult(client, handle.query(
        f"$out = []; foreach ($__xray__.paths as $p) {{ if ($p.trace_id == {one}) "
        "{ array_push($out, $p); } } return $out;"
    ))
    assert filtered and all(json.dumps(r["trace_id"]) == one for r in filtered)
    limited = cluster.run_ult(client, handle.query("return array_slice($__xray__.paths, -3);"))
    assert len(limited) <= 3

    attribution = cluster.run_ult(
        client, handle.query("return array_slice($__xray__.windows, -2);")
    )
    assert attribution
    window = attribution[-1]
    assert {"attribution", "whatif", "requests", "index"} <= set(window)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv", [["xray", "pool"], ["health", "slo"]], ids="-".join)
def test_cli_smoke(argv, capsys):
    from repro.cli import main

    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"mochi-{argv[0]}")
    runs = []
    for _ in range(2):
        assert main([*argv, "--format", "json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
