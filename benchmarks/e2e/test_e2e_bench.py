"""Smoke tests of the end-to-end benchmark (``pytest benchmarks/e2e``).

Small enough to finish in seconds; the tier-1 suite (``testpaths =
tests``) does not collect this file.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "benchmarks"), os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import measure  # noqa: E402
import run as entry  # noqa: E402
import wl_kv_batch_scan  # noqa: E402
import wl_objstore_mixed  # noqa: E402
from objstore import ObjectStore  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


_make_workload = entry.make_workload


def smoke_workload(name: str):
    """The workload with its set-up shrunk to smoke size."""
    workload = _make_workload(name)
    if name == "rpc_echo":
        workload.warmup_rpcs = 200
    elif name == "kv_batch_scan":
        workload.initial_keys, workload.warmup_batches = 256, 4
    else:
        workload.live_per_ult = 120
    return workload


def one_repetition(name: str, seed: int):
    workload = smoke_workload(name)
    inputs = workload.generate(seed, workload.min_ops)
    return inputs, measure.run_repetition(workload, inputs)


@pytest.mark.parametrize("name", entry.WORKLOADS)
def test_same_seed_is_byte_identical_and_correct(name):
    _inputs, first = one_repetition(name, seed=3)
    _inputs, second = one_repetition(name, seed=3)
    assert first.failed == 0, first.failures
    assert first.attempted >= 1
    assert json.dumps(first.exact, sort_keys=True) == json.dumps(second.exact, sort_keys=True)


@pytest.mark.parametrize("name", entry.WORKLOADS)
def test_other_seed_gives_other_inputs_and_the_same_names(name):
    inputs_a, first = one_repetition(name, seed=3)
    inputs_b, second = one_repetition(name, seed=4)
    assert repr(inputs_a) != repr(inputs_b)
    assert set(first.exact) == set(second.exact)
    assert second.failed == 0, second.failures


def test_reconfig_churn_reconfigures_while_serving():
    _inputs, repetition = one_repetition("reconfig_churn", seed=5)
    exact = repetition.exact
    assert exact["bedrock.reconfigs_done"] >= 10
    assert exact["harness.migrations"] >= 2 and exact["harness.checkpoints"] >= 2
    assert exact["remi.bytes_moved"] > 0
    assert exact["harness.ops_failed_share"] == 0


def test_the_model_catches_a_corrupted_reply(monkeypatch):
    token, size = b"abcdefgh", 64
    good = wl_objstore_mixed.payload(token, size)
    assert wl_objstore_mixed.check_reply("get", good, token, size, True)
    assert not wl_objstore_mixed.check_reply("get", good[:-1] + b"X", token, size, True)
    assert not wl_objstore_mixed.check_reply("exists", False, b"", 0, True)
    assert wl_kv_batch_scan.check_reply("get_multi", [b"v1", b"v2"], [b"v1", b"v2"])
    assert not wl_kv_batch_scan.check_reply("get_multi", [b"v1", b"vX"], [b"v1", b"v2"])
    assert not wl_kv_batch_scan.check_reply("list_keys", [b"k1"], [b"k1", b"k2"])

    # End to end: flip one byte of the tenth get's reply on its way back.
    real_get = ObjectStore.get
    seen = {"gets": 0}

    def corrupting_get(store, key):
        data = yield from real_get(store, key)
        seen["gets"] += 1
        if seen["gets"] == 10:
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    monkeypatch.setattr(ObjectStore, "get", corrupting_get)
    _inputs, repetition = one_repetition("objstore_mixed", seed=3)
    assert repetition.failed == 1
    assert "wrong reply" in repetition.failures[0]


def test_names_units_and_counts_fit_the_contract():
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    end_to_end, per_layer = CONTRACT["end_to_end"], CONTRACT["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert [w["name"] for w in CONTRACT["workloads"]] == list(entry.WORKLOADS)
    names = [e["name"] for e in end_to_end + per_layer + CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    for item in end_to_end + per_layer:
        assert name_ok.match(item["name"]), item
        assert unit_ok.match(item["unit"]), item
        assert item["better"] in ("higher", "lower")
    assert all(0 < e["bound"] <= 0.25 for e in end_to_end)
    assert any(e["name"] == "setup_s" and e["unit"] == "s" for e in end_to_end)
    assert [e["name"] for e in end_to_end] == list(measure.END_TO_END)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def test_result_lines_carry_exactly_the_declared_metrics(monkeypatch):
    monkeypatch.setattr(measure, "REPETITIONS", 2)
    monkeypatch.setattr(measure, "TRACE_REPETITIONS", 1)
    monkeypatch.setattr(entry, "make_workload", smoke_workload)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        document = entry.run_one("rpc_echo", 1, 0.1, trace, CONTRACT, import_s=0.1)
        line = json.loads(entry.result_line(document))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [e["name"] for e in CONTRACT[section]]
        for spec in CONTRACT[section]:
            assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert document["per_layer"]["ledger.named_share"]["value"] >= 0.8
    assert document["per_layer"]["yokan.self_us_per_op"]["value"] == 0


def test_self_checks_refuse_a_bad_run():
    _inputs, repetition = one_repetition("rpc_echo", seed=3)
    other = measure.Repetition(**{**repetition.__dict__, "exact": dict(repetition.exact)})
    other.exact["sim_op_p50_us"] += 1e-9
    with pytest.raises(measure.BenchmarkError, match="not identical"):
        measure.summarise([repetition, other], {})
    grown = [
        measure.Repetition(**{**repetition.__dict__, "rss_mb": rss})
        for rss in (250.0, 480.0, 710.0)
    ]
    with pytest.raises(measure.BenchmarkError, match="peak resident memory grew"):
        measure.summarise(grown, {})
    noisy = [
        measure.Repetition(**{**repetition.__dict__, "norm_s_per_op": cost})
        for cost in (1.0e-4, 1.5e-4, 2.0e-4)
    ]
    summary = measure.summarise(noisy, {"wall_ops_per_s": 0.05, "wall_us_per_rpc": 0.05})
    assert summary["end_to_end"]["wall_ops_per_s"]["unresolved"]


def test_compare_verdicts():
    spec = {"better": "lower", "bound": 0.05}
    steady = {"value": 100.0, "q1": 99.0, "q3": 101.0}
    assert compare.verdict("m", spec, steady, {"value": 103.0})[1] == "pass"
    assert compare.verdict("m", spec, steady, {"value": 107.0})[1] == "regress"
    assert compare.verdict("m", spec, steady, {"value": 90.0, "unresolved": True})[1] == "unresolved"
    exact = {"value": 10.0, "exact": True}
    assert compare.verdict("m", spec, exact, {"value": 10.0, "exact": True})[1] == "pass"
    assert compare.verdict("m", spec, exact, {"value": 10.2, "exact": True})[1] == "changed"
    assert compare.verdict("m", spec, exact, {"value": 12.0, "exact": True})[1] == "regress"
    higher = {"better": "higher", "bound": 0.05}
    assert compare.verdict("m", higher, steady, {"value": 90.0})[1] == "regress"


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no program to measure: no result, a non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "results", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rpc_echo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
