"""RPC contract checking: MCH050-MCH052 positives and negatives."""

from repro.analysis.interproc.callgraph import build_project
from repro.analysis.interproc.contracts import build_contracts

from .lint_util import fixture_path, line_of, lint_fixture, parse_fixture

_CONTRACT_IDS = {"MCH050", "MCH051", "MCH052"}


def _contract_findings(*packages):
    result = lint_fixture(*packages)
    return [f for f in result.findings if f.rule_id in _CONTRACT_IDS], result.stats


def test_matched_contract_is_clean():
    findings, stats = _contract_findings("rpcgood")
    assert findings == []
    assert stats["rpc_registrations"] == 2
    assert stats["rpc_forwards"] == 2


def test_orphaned_call_flagged():
    findings, _ = _contract_findings("rpcbad")
    client = fixture_path("rpcbad", "client.py")
    orphans = [f for f in findings if f.rule_id == "MCH050"]
    assert len(orphans) == 1
    assert orphans[0].path == client
    assert orphans[0].line == line_of(client, 'self._forward("lookup"')
    assert "lookup" in orphans[0].message


def test_handler_shape_flagged():
    findings, _ = _contract_findings("rpcbad")
    shapes = [f for f in findings if f.rule_id == "MCH051"]
    messages = " | ".join(f.message for f in shapes)
    # one missing handler + two shape problems on _on_scan
    assert len(shapes) == 3
    assert "stat" in messages and "does not define" in messages
    assert "not a generator" in messages
    assert "positional parameter" in messages


def test_response_shape_flagged():
    findings, _ = _contract_findings("rpcbad")
    client = fixture_path("rpcbad", "client.py")
    responses = [f for f in findings if f.rule_id == "MCH052"]
    assert [f.line for f in responses] == [
        line_of(client, 'self._forward("get"')
    ]
    assert "None" in responses[0].message


def test_dynamic_registration_opens_component():
    findings, stats = _contract_findings("dyn")
    assert findings == []  # "poke" is not an orphan: "dyn" is open
    assert stats["dynamic_registrations"] == 1
    assert stats["dynamic_getattr_calls"] == 1


def test_contract_index_pairs_both_ends():
    index = build_project(parse_fixture("rpcgood"))
    contracts = build_contracts(index)
    assert contracts.registered_ops("echo") == {"ping", "put"}
    assert contracts.forwarded_ops("echo") == {"ping", "put"}
    handlers = {r.op: r.handler.name for r in contracts.registrations}
    assert handlers == {"ping": "_on_ping", "put": "_on_put"}
