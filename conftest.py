"""Repo-level pytest configuration.

Puts ``src/`` on ``sys.path`` so the test and benchmark suites run even
without installing the package (useful on offline machines where
``pip install -e .`` cannot bootstrap its PEP 517 build environment;
``python setup.py develop`` also works there).

It also installs the blocking-call guard when it loads.  The simulated
cluster runs on one real thread, so a real ``time.sleep``, shell-out,
socket connect or ``input`` inside a ULT freezes every simulated process
at once.  While a ULT runs (``repro.margo.ult._CURRENT`` is set) each of
those calls raises :class:`BlockingCallError` instead, whatever name it
was imported under and however deep below the ULT body it sits; the
refusal is also kept, so a caller that swallows the error still fails
the test that reached it.
"""

import builtins
import functools
import os
import socket
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))

from repro.margo import ult as _ult  # noqa: E402


class BlockingCallError(AssertionError):
    """A call that blocks the real thread, made while a ULT runs."""


#: Blocking calls refused inside a ULT since the running test began.
REFUSED: list[str] = []


def _refuse_in_ult(name, real):
    @functools.wraps(real)
    def guarded(*args, **kwargs):
        if _ult._CURRENT is not None:
            REFUSED.append(f"{name}() in {_ult._CURRENT!r}")
            raise BlockingCallError(
                f"{name}() blocks the one real thread every simulated "
                "process runs on; a ULT must yield UltSleep/Park instead"
            )
        return real(*args, **kwargs)

    return guarded


for _module, _name in (
    (time, "sleep"),
    (os, "system"),
    (subprocess, "run"),
    (subprocess, "call"),
    (subprocess, "check_call"),
    (subprocess, "check_output"),
    (socket, "create_connection"),
    (builtins, "input"),
):
    _shown = _name if _module is builtins else f"{_module.__name__}.{_name}"
    setattr(_module, _name, _refuse_in_ult(_shown, getattr(_module, _name)))
# A class stays a class (isinstance and subclasses keep working).
subprocess.Popen.__init__ = _refuse_in_ult("subprocess.Popen", subprocess.Popen.__init__)


@pytest.fixture(autouse=True)
def _no_blocking_call_in_a_ult():
    REFUSED.clear()
    yield
    refused = list(REFUSED)
    REFUSED.clear()
    if refused:
        pytest.fail("blocking call inside a ULT: " + "; ".join(refused))
