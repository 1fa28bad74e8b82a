"""Determinism rules (MCH00x).

Code running under the simulated Margo runtime must produce bit-identical
schedules for equal seeds.  Anything that reads the real world -- the
wall clock, the process RNG -- silently breaks that contract without
failing a single functional test, which is exactly why these are lint
rules and not assertions.  Iteration order that follows the hash seed
is checked by running instead: ``make contract`` regenerates every
table under two ``PYTHONHASHSEED`` values and diffs them.
"""

from __future__ import annotations

import ast

from ..findings import Finding, Severity
from ..registry import GROUP_DETERMINISM, RuleInfo, rule
from . import FileContext, call_name

__all__ = ["WALL_CLOCK_CALLS", "UNSEEDED_RANDOM_CALLS"]

#: Callables that read (or block on) the host's wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``random`` module-level functions (they draw from the shared,
#: process-global generator, whose state no simulation seed controls).
UNSEEDED_RANDOM_CALLS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.triangular",
        "random.betavariate",
        "random.expovariate",
        "random.gammavariate",
        "random.gauss",
        "random.lognormvariate",
        "random.normalvariate",
        "random.vonmisesvariate",
        "random.paretovariate",
        "random.weibullvariate",
        "random.getrandbits",
        "random.randbytes",
    }
)

#: Other nondeterministic entropy sources.
ENTROPY_CALLS = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4", "os.getrandom"}
)

@rule(
    RuleInfo(
        id="MCH001",
        name="wall-clock-access",
        group=GROUP_DETERMINISM,
        severity=Severity.ERROR,
        summary="call reads or blocks on the host wall clock",
        rationale=(
            "simulated components must take time only from SimKernel.now "
            "and pass time only via UltSleep/Compute; a wall-clock "
            "read makes two runs with the same seed diverge, and a real "
            "sleep stalls the single-threaded event loop"
        ),
    )
)
def check_wall_clock(ctx: FileContext) -> list[Finding]:
    findings = []
    for node in ctx.nodes:
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in WALL_CLOCK_CALLS:
                findings.append(
                    Finding(
                        "MCH001",
                        Severity.ERROR,
                        ctx.path,
                        node.lineno,
                        f"wall-clock call {name}(); use SimKernel.now / "
                        "UltSleep for simulated time",
                    )
                )
    return findings


@rule(
    RuleInfo(
        id="MCH002",
        name="unseeded-randomness",
        group=GROUP_DETERMINISM,
        severity=Severity.ERROR,
        summary="randomness drawn from an unseeded / process-global source",
        rationale=(
            "every stochastic decision must draw from a named "
            "repro.sim.random.RandomSource stream so that adding "
            "randomness to one subsystem never perturbs another; the "
            "global `random` module and OS entropy are seeded by the host"
        ),
    )
)
def check_unseeded_random(ctx: FileContext) -> list[Finding]:
    findings = []
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None:
            continue
        offender = None
        if name in UNSEEDED_RANDOM_CALLS or name in ENTROPY_CALLS:
            offender = f"{name}()"
        elif name == "random.Random" and not node.args and not node.keywords:
            offender = "random.Random() with no seed"
        elif name == "random.seed" and not node.args and not node.keywords:
            offender = "random.seed() with no argument (reseeds from the OS)"
        elif name.startswith("secrets."):
            offender = f"{name}() (OS entropy)"
        elif name.startswith(("numpy.random.", "np.random.")):
            offender = f"{name}() (global numpy generator)"
        if offender is not None:
            findings.append(
                Finding(
                    "MCH002",
                    Severity.ERROR,
                    ctx.path,
                    node.lineno,
                    f"unseeded randomness: {offender}; draw from a "
                    "RandomSource stream instead",
                )
            )
    return findings
