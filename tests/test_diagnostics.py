"""Tests for the diagnostic report tooling."""

import json
import textwrap

import pytest

from repro import Cluster
from repro.bedrock import boot_process
from repro.cli import main
from repro.monitoring import StatisticsMonitor
from repro.margo.ult import Compute, UltSleep
from repro.tools import (
    cluster_report,
    monitoring_report,
    process_report,
    profile_report,
    trace_report,
    xray_report,
)
from repro.yokan import YokanClient


@pytest.fixture()
def rig():
    cluster = Cluster(seed=81)
    monitor = StatisticsMonitor()
    margo, bedrock = boot_process(
        cluster, "svc", "n0",
        {
            "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
            "providers": [
                {"name": "remi0", "type": "remi", "provider_id": 0},
                {"name": "db0", "type": "yokan", "provider_id": 1,
                 "dependencies": {"mover": "remi0"}},
            ],
        },
        monitors=(monitor,),
    )
    app = cluster.add_margo("app", node="na")
    db = YokanClient(app).make_handle(margo.address, 1)

    def driver():
        yield from db.put("k", "v" * 100)
        yield from db.get("k")
        yield from db.count()

    cluster.run_ult(app, driver())
    return cluster, bedrock, monitor


def test_cluster_report_contents(rig):
    cluster, _, _ = rig
    report = cluster_report(cluster)
    assert "node n0" in report
    assert "process svc [up]" in report
    assert "messages:" in report


def test_cluster_report_shows_faults(rig):
    cluster, bedrock, _ = rig
    cluster.faults.kill_process(bedrock.margo.process)
    report = cluster_report(cluster)
    assert "process svc [DEAD]" in report
    assert "fault history:" in report
    assert "process: svc" in report


def test_process_report_contents(rig):
    _, bedrock, _ = rig
    report = process_report(bedrock)
    assert "pool __primary__" in report
    assert "db0 (type=yokan id=1" in report
    assert "depends on mover: remi0" in report
    assert "depended on by: ['local:db0']" in report
    assert "libraries:" in report


def test_monitoring_report_contents(rig):
    _, _, monitor = rig
    report = monitoring_report(monitor)
    assert "yokan_put" in report
    assert "yokan_get" in report
    assert "calls=1" in report
    # Sorted by total time: header first, then entries.
    lines = report.splitlines()
    assert lines[0].startswith("top ")
    assert len(lines) >= 4


def test_monitoring_report_empty():
    report = monitoring_report(StatisticsMonitor())
    assert "top 0" in report


def test_lint_report_clean_tree(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("def f(kernel):\n    return kernel.now\n")
    assert main(["lint", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "mochi-lint: clean\n"


def test_lint_report_renders_findings(tmp_path, capsys):
    (tmp_path / "dirty.py").write_text(
        textwrap.dedent(
            """
            import time
            def worker():
                yield UltSleep(1.0)
                time.sleep(1.0)
            """
        )
    )
    assert main(["lint", str(tmp_path)]) == 1
    report = capsys.readouterr().out
    assert "2 finding(s)" in report  # wall clock + blocking call in ULT
    assert "MCH001" in report
    assert "MCH014" in report
    assert "dirty.py:5" in report


def test_profile_report_contents():
    cluster = Cluster(seed=82)
    profiled = {"observability": {"profiling": True, "profile_window": 0.05}}
    a = cluster.add_margo("a", "n0", config=profiled)
    b = cluster.add_margo("b", "n1", config=profiled)
    plain = cluster.add_margo("plain", "n2")

    def echo(ctx):
        yield Compute(1e-6)
        return {"ok": True}

    b.register("echo_ping", echo, provider_id=3)

    def client():
        for _ in range(10):
            yield from a.forward(b.address, "echo_ping", {"x": 1}, provider_id=3)
            yield UltSleep(0.01)

    cluster.run_ult(a, client())
    cluster.kernel.run(until=0.4)

    report = profile_report(a, b, plain)
    assert "process a: window=0.05s" in report
    assert "process plain: profiling disabled" in report
    assert "% busy" in report
    assert "echo:3" in report  # server-side provider rates
    assert "latency decomposition" in report
    assert "echo_ping/3:" in report
    assert "waterfall" in report
    assert "client_queue" in report and "handler" in report


def _xray_cluster():
    cluster = Cluster(seed=88)
    obs = {
        "tracing": True,
        "profiling": True,
        "profile_window": 0.005,
        "xray": True,
    }
    srv = cluster.add_margo("srv", "n0", config={"observability": dict(obs)})
    cli = cluster.add_margo("cli", "n1", config={"observability": dict(obs)})

    def echo(ctx):
        # A slow tail every 10th request, so differential attribution
        # has a positive-excess handler segment to render.
        yield Compute(200e-6 if ctx.args["i"] % 10 == 0 else 5e-6)
        return ctx.args

    srv.register("echo", echo)

    def driver():
        for i in range(30):
            yield from cli.forward(srv.address, "echo", {"i": i})
            yield UltSleep(0.0005)  # spread requests across profiler windows

    cluster.run_ult(cli, driver())
    cluster.run(until=cluster.now + 0.005)
    return cluster, srv, cli


def test_xray_report_disabled():
    cluster = Cluster(seed=88)
    cluster.add_margo("plain", "n0")
    report = xray_report(cluster)
    assert report.startswith("mochi-xray: disabled")
    assert '"xray": true' in report


def test_xray_report_contents():
    cluster, _srv, _cli = _xray_cluster()
    report = xray_report(cluster, last=2, actions=2, paths=1)
    lines = report.splitlines()
    assert lines[0].startswith("mochi-xray: ")
    assert "closed window(s)" in lines[0]
    assert "recent path(s)" in lines[0]
    assert any(l.strip().startswith("window ") and "p99=" in l for l in lines)
    assert any("excess" in l and "us" in l for l in lines)
    assert any(l.strip().startswith("what-if") for l in lines)
    # One rendered path record: the echo RPC, client and server named.
    assert any("echo" in l for l in lines)
    # Accepts a plane directly too, and renders identically.
    assert xray_report(cluster.kernel.xray_plane, last=2, actions=2, paths=1) == report


def test_trace_report_includes_critical_path():
    cluster, srv, cli = _xray_cluster()
    report = trace_report(*cluster.tracers(), limit=2)
    critical = [l for l in report.splitlines() if "critical path:" in l]
    assert critical  # one summary per rendered trace tree
    for line in critical:
        # "critical path: K/N spans, X.XXus gated -- cat:name > ..."
        assert "spans," in line
        assert "us gated -- " in line
        assert " > " in line or "rpc:" in line


def test_config_report_on_documents_and_files(tmp_path, capsys):
    good = {
        "argobots": {
            "pools": [{"name": "p"}],
            "xstreams": [{"name": "x", "scheduler": {"pools": ["p"]}}],
        }
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(good))
    assert main(["lint", str(path)]) == 0
    assert capsys.readouterr().out == "mochi-lint: clean\n"

    path.write_text(json.dumps(dict(good, progress_pool="ghost")))
    assert main(["lint", str(path)]) == 1
    report = capsys.readouterr().out
    assert "1 finding(s)" in report
    assert "MCH020" in report
