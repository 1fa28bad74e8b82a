"""MCH020: the linter runs Bedrock's own boot checks on config documents."""

import glob
import json
import os

import pytest

from repro import Cluster
from repro.analysis.config_check import validate_config_doc, validate_config_file
from repro.bedrock import boot_process, check_boot_config
from repro.bedrock.errors import (
    BedrockConfigError,
    DependencyError,
    ProviderConflictError,
)
from repro.bedrock.module import ModuleError
from repro.margo.errors import ConfigError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ids(findings):
    return [f.rule_id for f in findings]


def margo_doc(pools=("p0",), xstreams=None, **extra):
    if xstreams is None:
        xstreams = [
            {"name": "es0", "scheduler": {"type": "basic", "pools": list(pools)}}
        ]
    doc = {
        "argobots": {
            "pools": [{"name": p} for p in pools],
            "xstreams": xstreams,
        }
    }
    doc.update(extra)
    return doc


# ----------------------------------------------------------------------
# Margo documents
# ----------------------------------------------------------------------
def test_valid_margo_doc_is_clean():
    assert validate_config_doc(margo_doc()) == []


def test_empty_doc_uses_defaults_and_is_clean():
    assert validate_config_doc({}) == []
    assert validate_config_doc(None) == []


def test_duplicate_pool_name():
    doc = {"argobots": {"pools": [{"name": "p"}, {"name": "p"}]}}
    assert ids(validate_config_doc(doc)) == ["MCH020"]


def test_duplicate_xstream_name():
    doc = margo_doc(
        pools=("p0",),
        xstreams=[
            {"name": "es", "scheduler": {"pools": ["p0"]}},
            {"name": "es", "scheduler": {"pools": ["p0"]}},
        ],
    )
    assert ids(validate_config_doc(doc)) == ["MCH020"]


def test_xstream_referencing_undefined_pool():
    doc = margo_doc(
        pools=("p0",),
        xstreams=[{"name": "es0", "scheduler": {"pools": ["ghost"]}}],
    )
    findings = validate_config_doc(doc)
    assert "MCH020" in ids(findings)
    assert any("ghost" in f.message for f in findings)


def test_unserved_pool_is_dangling():
    doc = margo_doc(
        pools=("p0", "orphan"),
        xstreams=[{"name": "es0", "scheduler": {"pools": ["p0"]}}],
    )
    findings = validate_config_doc(doc)
    assert ids(findings) == ["MCH020"]
    assert "never" in findings[0].message or "orphan" in findings[0].message


def test_dangling_progress_and_rpc_pool():
    findings = validate_config_doc(margo_doc(progress_pool="nope"))
    assert ids(findings) == ["MCH020"]
    findings = validate_config_doc(margo_doc(rpc_pool="nope"))
    assert ids(findings) == ["MCH020"]


def test_malformed_margo_doc():
    assert ids(validate_config_doc([1, 2])) == ["MCH020"]
    assert ids(validate_config_doc("{not json")) == ["MCH020"]
    assert ids(validate_config_doc({"bogus_key": 1})) == ["MCH020"]


# ----------------------------------------------------------------------
# Bedrock documents
# ----------------------------------------------------------------------
def bedrock_doc(providers, libraries=None):
    return {
        "margo": margo_doc(pools=("p0",)),
        "libraries": libraries
        if libraries is not None
        else {"yokan": "libyokan.so", "remi": "libremi.so"},
        "providers": providers,
    }


def test_valid_bedrock_doc_is_clean():
    doc = bedrock_doc(
        [
            {"name": "mover", "type": "remi", "provider_id": 0},
            {
                "name": "db",
                "type": "yokan",
                "provider_id": 1,
                "pool": "p0",
                "dependencies": {"mover": "mover"},
            },
        ]
    )
    assert validate_config_doc(doc) == []


def test_unknown_top_level_key():
    findings = validate_config_doc({"margo": {}, "oops": 1})
    assert ids(findings) == ["MCH020"]


def test_unknown_library():
    findings = validate_config_doc(bedrock_doc([], libraries={"a": "libnope.so"}))
    assert ids(findings) == ["MCH020"]
    assert "unknown library" in findings[0].message


def test_library_type_mismatch():
    findings = validate_config_doc(
        bedrock_doc([], libraries={"warabi": "libyokan.so"})
    )
    assert ids(findings) == ["MCH020"]
    assert "provides type" in findings[0].message


def test_duplicate_provider_name_and_id():
    findings = validate_config_doc(
        bedrock_doc(
            [
                {"name": "db", "type": "yokan", "provider_id": 1},
                {"name": "db", "type": "yokan", "provider_id": 1},
            ]
        )
    )
    assert ids(findings) == ["MCH020"]  # the boot stops at the name clash


def test_provider_dangling_pool():
    findings = validate_config_doc(
        bedrock_doc([{"name": "db", "type": "yokan", "pool": "ghost"}])
    )
    assert ids(findings) == ["MCH020"]


def test_dependency_on_unknown_provider():
    findings = validate_config_doc(
        bedrock_doc(
            [{"name": "db", "type": "yokan", "dependencies": {"mover": "ghost"}}]
        )
    )
    assert ids(findings) == ["MCH020"]
    assert "unknown local" in findings[0].message


def test_dependency_declared_later_is_boot_order_error():
    findings = validate_config_doc(
        bedrock_doc(
            [
                {"name": "db", "type": "yokan", "dependencies": {"mover": "mover"}},
                {"name": "mover", "type": "remi"},
            ]
        )
    )
    # Bedrock starts providers in list order: "mover" is not booted yet.
    assert ids(findings) == ["MCH020"]
    assert "unknown local provider" in findings[0].message


def test_dependency_cycle_detected():
    findings = validate_config_doc(
        bedrock_doc(
            [
                {"name": "a", "type": "yokan", "provider_id": 1,
                 "dependencies": {"peer": "b"}},
                {"name": "b", "type": "yokan", "provider_id": 2,
                 "dependencies": {"peer": "a"}},
            ]
        )
    )
    # Every cycle has an edge to a provider not booted yet.
    assert ids(findings) == ["MCH020"]
    assert "unknown local provider" in findings[0].message


def test_remote_dependency_shape():
    findings = validate_config_doc(
        bedrock_doc(
            [{"name": "db", "type": "yokan",
              "dependencies": {"peer": {"type": "yokan"}}}]
        )
    )
    assert ids(findings) == ["MCH020"]
    assert "missing" in findings[0].message


# ----------------------------------------------------------------------
# Files and shape dispatch
# ----------------------------------------------------------------------
def test_validate_config_doc_dispatches_by_shape():
    assert validate_config_doc(margo_doc()) == []
    assert validate_config_doc(bedrock_doc([])) == []
    assert "MCH020" in ids(validate_config_doc({"margo": margo_doc(rpc_pool="x")}))


def test_validate_config_file_and_skip_non_configs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(margo_doc(progress_pool="nope")))
    assert ids(validate_config_file(str(bad))) == ["MCH020"]

    results = tmp_path / "results.json"
    results.write_text(json.dumps({"bench": "E1", "rate": 100.0}))
    assert validate_config_file(str(results), only_configs=True) == []

    invalid = tmp_path / "invalid.json"
    invalid.write_text("{broken")
    assert ids(validate_config_file(str(invalid))) == ["MCH020"]


def test_example_configs_are_clean():
    paths = sorted(
        glob.glob(os.path.join(REPO_ROOT, "examples", "**", "*.json"), recursive=True)
    )
    assert paths, "examples/configs/*.json must exist"
    for path in paths:
        assert validate_config_file(path) == [], path


# ----------------------------------------------------------------------
# check_boot_config: same exception types as the runtime boot path
# ----------------------------------------------------------------------
def test_boot_check_passes_valid_doc():
    check_boot_config(bedrock_doc([{"name": "db", "type": "yokan"}]))
    check_boot_config(None)


@pytest.mark.parametrize(
    "doc, exc",
    [
        ({"margo": {}, "oops": 1}, BedrockConfigError),
        ({"libraries": {"a": "libnope.so"}}, ModuleError),
        ({"libraries": {"warabi": "libyokan.so"}}, BedrockConfigError),
        (
            bedrock_doc(
                [
                    {"name": "db", "type": "yokan", "provider_id": 1},
                    {"name": "db", "type": "yokan", "provider_id": 1},
                ]
            ),
            ProviderConflictError,
        ),
        (
            bedrock_doc(
                [{"name": "db", "type": "yokan",
                  "dependencies": {"mover": "ghost"}}]
            ),
            DependencyError,
        ),
        ({"margo": {"argobots": {"pools": [{"name": "p"}, {"name": "p"}]}}},
         ConfigError),
        # Malformed values raise a config error, never a bare Python one.
        (bedrock_doc([{"name": "db", "type": "yokan", "dependencies": ["mover"]}]),
         DependencyError),
        (bedrock_doc([{"name": "db", "type": "yokan", "provider_id": "x"}]),
         BedrockConfigError),
        ({"margo": margo_doc(progress_pool=["p0"])}, ConfigError),
        ({"margo": {"argobots": {"pools": [{"name": ["a"]}]}}}, ConfigError),
        ({"margo": {"dispatch_cost": "fast"}}, ConfigError),
        ({"margo": margo_doc(xstreams=[{"name": "es", "scheduler": {"pools": "p0"}}])},
         ConfigError),
    ],
)
def test_boot_check_raises_runtime_exception_types(doc, exc):
    with pytest.raises(exc):
        check_boot_config(doc)


def test_boot_process_fails_before_creating_any_process():
    cluster = Cluster(seed=5)
    with pytest.raises(DependencyError):
        boot_process(
            cluster, "svc", "n0",
            bedrock_doc(
                [{"name": "db", "type": "yokan",
                  "dependencies": {"mover": "ghost"}}]
            ),
        )
    assert cluster.network.processes == {}
