"""MCH014 fixture: depth 0, one hop, deep chains, recursion.

Parsed by the lint tests, never imported: ``UltSleep``/``Compute``
stand in for the ULT command constructors the linter recognizes.
"""

import time

from . import helpers


def deep_handler(ctx):
    """Positive: blocks three calls down, in another module."""
    yield Compute(0.1)  # noqa: F821
    helpers.level_one()
    return ctx


def clean_handler(ctx):
    """Negative: the helper chain never blocks."""
    yield Compute(0.1)  # noqa: F821
    helpers.pure()
    return ctx


def direct_handler(ctx):
    """Positive at depth 0: the blocking call is in the ULT body."""
    yield UltSleep(0.5)  # noqa: F821
    time.sleep(0.25)
    return ctx


def one_hop_handler(ctx):
    """Positive one hop down, in a same-file helper."""
    yield UltSleep(0.5)  # noqa: F821
    local_block()
    return ctx


def local_block():
    time.sleep(0.5)


def spinning_handler(ctx):
    """Positive through a call cycle: ping <-> pong, pong blocks."""
    yield Compute(0.5)  # noqa: F821
    ping(3)


def ping(n):
    if n:
        pong(n - 1)


def pong(n):
    time.sleep(0.01)
    ping(n)
