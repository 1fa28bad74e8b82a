"""Tests for the diagnostic report tooling."""

import json
import textwrap

from repro.cli import main


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
    assert "1 finding(s)" in report  # MCH001; blocking in a ULT is checked by running
    assert "MCH001" in report
    assert "dirty.py:5" in report


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
