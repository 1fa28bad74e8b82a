"""The reach short list names live code, each entry with its reason.

``make reach`` (``benchmarks/reach.py``) checks the list against a run of
every artifact; this check only parses the source with ``ast``.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reach():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "benchmarks", "reach.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_short_list_entry_names_live_code_with_a_reason():
    reach = _reach()
    with open(reach.OUT) as handle:
        entries = json.load(handle)["short_list"]
    functions, classes = reach.inventory()
    keys = [(entry["file"], entry["name"]) for entry in entries]
    assert entries and len(set(keys)) == len(keys)
    for entry, key in zip(entries, keys):
        assert key in functions or key in classes, entry
        assert entry["reason"].strip(), entry
