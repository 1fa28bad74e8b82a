"""MargoConfig parse-time rejection paths (duplicates, dangling refs, costs)."""

import json

import pytest

from repro.bedrock import check_boot_config
from repro.margo import MargoConfig
from repro.margo.errors import ConfigError


def doc(pools, xstreams=None, **extra):
    body = {
        "argobots": {
            "pools": [{"name": p} for p in pools],
        }
    }
    if xstreams is not None:
        body["argobots"]["xstreams"] = xstreams
    body.update(extra)
    return body


def test_duplicate_pool_names_rejected_with_names():
    with pytest.raises(ConfigError, match=r"duplicate pool names.*\['p'\]"):
        MargoConfig.from_json(doc(["p", "p", "q"],
                                  xstreams=[{"name": "x", "scheduler": {"pools": ["p", "q"]}}]))


def test_duplicate_xstream_names_rejected_with_names():
    with pytest.raises(ConfigError, match=r"duplicate xstream names.*\['x'\]"):
        MargoConfig.from_json(
            doc(
                ["p"],
                xstreams=[
                    {"name": "x", "scheduler": {"pools": ["p"]}},
                    {"name": "x", "scheduler": {"pools": ["p"]}},
                ],
            )
        )


def test_xstream_dangling_pool_ref_names_both_sides():
    with pytest.raises(ConfigError, match=r"'x' references unknown pools \['ghost'\]"):
        MargoConfig.from_json(
            doc(["p"], xstreams=[{"name": "x", "scheduler": {"pools": ["p", "ghost"]}}])
        )


def test_unserved_pool_rejected():
    with pytest.raises(ConfigError, match=r"not served by any xstream.*orphan"):
        MargoConfig.from_json(
            doc(["p", "orphan"], xstreams=[{"name": "x", "scheduler": {"pools": ["p"]}}])
        )


def test_dangling_progress_and_rpc_pool():
    with pytest.raises(ConfigError, match="progress_pool 'nope'"):
        MargoConfig.from_json(doc(["p"], progress_pool="nope"))
    with pytest.raises(ConfigError, match="rpc_pool 'nope'"):
        MargoConfig.from_json(doc(["p"], rpc_pool="nope"))


def test_xstream_requires_at_least_one_pool():
    with pytest.raises(ConfigError, match="at least one pool"):
        MargoConfig.from_json(doc(["p"], xstreams=[{"name": "x"}]))


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError, match="unknown margo config keys"):
        MargoConfig.from_json({"bogus": 1})
    with pytest.raises(ConfigError, match="unknown pool spec keys"):
        MargoConfig.from_json({"argobots": {"pools": [{"name": "p", "size": 4}]}})
    with pytest.raises(ConfigError, match="unknown xstream spec keys"):
        MargoConfig.from_json(
            {
                "argobots": {
                    "pools": [{"name": "p"}],
                    "xstreams": [
                        {"name": "x", "scheduler": {"pools": ["p"]}, "prio": 1}
                    ],
                }
            }
        )


@pytest.mark.parametrize("key", ["dispatch_cost", "monitoring_cost_per_event"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-1e-9"])
def test_non_finite_or_negative_cost_rejected_naming_the_key(key, value):
    text = f'{{"{key}": {value}}}'
    with pytest.raises(ConfigError, match=key):
        MargoConfig.from_json(text)
    with pytest.raises(ConfigError, match=key):
        check_boot_config({"margo": json.loads(text)})


def test_invalid_json_text_rejected():
    with pytest.raises(ConfigError, match="invalid JSON"):
        MargoConfig.from_json("{not json")


def test_valid_config_roundtrips():
    config = MargoConfig.from_json(
        doc(
            ["p", "q"],
            xstreams=[{"name": "x", "scheduler": {"pools": ["p", "q"]}}],
            progress_pool="q",
            rpc_pool="p",
        )
    )
    assert [p.name for p in config.pools] == ["p", "q"]
    assert MargoConfig.from_json(config.to_json()).to_json() == config.to_json()
