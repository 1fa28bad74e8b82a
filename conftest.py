"""Repo-level pytest configuration.

Puts ``src/`` on ``sys.path`` so the test and benchmark suites run even
without installing the package (useful on offline machines where
``pip install -e .`` cannot bootstrap its PEP 517 build environment;
``python setup.py develop`` also works there).

It also installs two guards when it loads, before ``repro`` is
imported, so that a ``from random import ...`` binds the guarded
function.  Each refused call raises :class:`RefusedCallError`, whatever
name it was imported under and however deep it sits, and the refusal is
kept, so a caller that swallows the error still fails the test that
reached it.

* Blocking calls.  The simulated cluster runs on one real thread, so a
  real ``time.sleep``, shell-out, socket connect or ``input`` inside a
  ULT freezes every simulated process at once.  They are refused while
  a ULT runs (``repro.margo.ult._CURRENT`` is set).
* Entropy.  Equal seeds must give equal runs, so every stochastic
  decision draws from a seeded ``repro.sim.random.RandomSource``
  stream.  A module-level ``random`` draw, an unseeded
  ``random.Random()`` or ``random.seed()``, ``uuid.uuid1``/``uuid4``,
  ``secrets`` and ``os.urandom``/``getrandom`` are refused when the
  caller's code lies under ``src/repro``; pytest, Hypothesis and the
  tests themselves still draw freely.

Under ``REPRO_SANITIZE``, the race checker's state is also reset before
each test, so one test's contexts and clocks never reach the next.
"""

import builtins
import functools
import os
import random
import secrets
import socket
import subprocess
import sys
import time
import uuid

import pytest

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
sys.path.insert(0, _SRC)
_REPRO = os.path.join(_SRC, "repro") + os.sep


class RefusedCallError(AssertionError):
    """A call the running test may not make where it made it."""


#: Calls refused since the running test began.
REFUSED: list[str] = []


def _refuse(name, real, when, why):
    """``real`` made to raise where ``when(caller_frame, args, kwargs)``
    names the offending place."""

    @functools.wraps(real)
    def guarded(*args, **kwargs):
        where = when(sys._getframe(1), args, kwargs)
        if where:
            REFUSED.append(f"{name}() {where}")
            raise RefusedCallError(f"{name}() {why}")
        return real(*args, **kwargs)

    return guarded


def _in_ult(frame, args, kwargs):
    return _ult._CURRENT is not None and f"in {_ult._CURRENT!r}"


def _from_repro(frame, args, kwargs):
    path = frame.f_code.co_filename
    return path.startswith(_REPRO) and f"from {path[len(_SRC) + 1:]}:{frame.f_lineno}"


def _unseeded(at, key):
    """The seed is positional argument ``at`` or keyword ``key``."""

    def when(frame, args, kwargs):
        seed = args[at] if len(args) > at else kwargs.get(key)
        return seed is None and _from_repro(frame, args, kwargs)

    return when


_BLOCKS = (
    "blocks the one real thread every simulated process runs on; a ULT "
    "must yield UltSleep/Park instead"
)
_ENTROPY = (
    "draws entropy no simulation seed controls; draw from a "
    "RandomSource stream instead"
)

# Module-level draws are bound methods of the hidden global generator.
_DRAWS = tuple(
    name
    for name in random.__all__
    if getattr(getattr(random, name), "__self__", None) is random._inst
    and name not in ("seed", "getstate", "setstate")
)
for _module, _names, _when, _why in (
    (random, _DRAWS, _from_repro, _ENTROPY),
    (random, ("seed",), _unseeded(0, "a"), _ENTROPY),
    (secrets, ("choice", "randbelow", "randbits", "token_bytes", "token_hex",
               "token_urlsafe"), _from_repro, _ENTROPY),
    (uuid, ("uuid1", "uuid4"), _from_repro, _ENTROPY),
    (os, ("urandom", "getrandom"), _from_repro, _ENTROPY),
    (time, ("sleep",), _in_ult, _BLOCKS),
    (os, ("system",), _in_ult, _BLOCKS),
    (subprocess, ("run", "call", "check_call", "check_output"), _in_ult, _BLOCKS),
    (socket, ("create_connection",), _in_ult, _BLOCKS),
    (builtins, ("input",), _in_ult, _BLOCKS),
):
    for _name in _names:
        if hasattr(_module, _name):  # os.getrandom is Linux-only
            _shown = _name if _module is builtins else f"{_module.__name__}.{_name}"
            setattr(_module, _name, _refuse(_shown, getattr(_module, _name), _when, _why))
# A class stays a class (isinstance and subclasses keep working), and
# SystemRandom() is an unseeded Random() too.
random.Random.__init__ = _refuse(
    "random.Random", random.Random.__init__, _unseeded(1, "x"), _ENTROPY
)
subprocess.Popen.__init__ = _refuse(
    "subprocess.Popen", subprocess.Popen.__init__, _in_ult, _BLOCKS
)

from repro.analysis.race import hooks as _race  # noqa: E402
from repro.margo import ult as _ult  # noqa: E402


@pytest.fixture(autouse=True)
def _one_race_session_per_test():
    """Under ``REPRO_SANITIZE``, each test starts the race checker from
    empty state: contexts, clocks and tracked objects would otherwise
    pile up over the whole session."""
    if _race.ENABLED:
        _race.reset()


@pytest.fixture(autouse=True)
def _no_refused_call():
    REFUSED.clear()
    yield
    refused = list(REFUSED)
    REFUSED.clear()
    if refused:
        pytest.fail("refused call: " + "; ".join(refused))
