"""Test-suite conftest: the one lint run the acceptance tests share."""

import pytest


@pytest.fixture(scope="session")
def repo_lint():
    """``run_lint`` over the gate's roots, run once per session; each
    acceptance test filters the rules and paths it is about."""
    from .lint_util import LINT_ROOTS, run_lint

    return run_lint(LINT_ROOTS)
