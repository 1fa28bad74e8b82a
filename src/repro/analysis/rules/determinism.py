"""Determinism rules (MCH00x).

Code running under the simulated Margo runtime must produce bit-identical
schedules for equal seeds.  Anything that reads the real world -- the
wall clock, the process RNG, the environment -- silently breaks that
contract without failing a single functional test, which is exactly why
these are lint rules and not assertions.
"""

from __future__ import annotations

import ast

from ..findings import Finding, Severity
from ..registry import GROUP_DETERMINISM, RuleInfo, rule
from . import FileContext, call_name, dotted_name

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

_UNORDERED_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
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
            "and pass time only via Sleep/UltSleep/Compute; a wall-clock "
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
                        "Sleep for simulated time",
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


def _is_unordered_iterable(node: ast.AST) -> str | None:
    """Describe ``node`` if iterating it is environment-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set (iteration order follows PYTHONHASHSEED)"
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return f"{name}() (iteration order follows PYTHONHASHSEED)"
        if name in _UNORDERED_LISTING_CALLS:
            return f"{name}() (directory order is filesystem-dependent)"
    if dotted_name(node) == "os.environ":
        return "os.environ (order and content are host-dependent)"
    return None


@rule(
    RuleInfo(
        id="MCH003",
        name="env-dependent-iteration",
        group=GROUP_DETERMINISM,
        severity=Severity.ERROR,
        summary="iteration order depends on the environment, not the seed",
        rationale=(
            "set iteration order changes with PYTHONHASHSEED and "
            "os.listdir order with the filesystem; if such an order ever "
            "decides which event is scheduled first, two identical runs "
            "produce different schedules -- wrap the iterable in sorted()"
        ),
    )
)
def check_env_iteration(ctx: FileContext) -> list[Finding]:
    findings = []

    def flag(node: ast.AST, where: str) -> None:
        why = _is_unordered_iterable(node)
        if why is not None:
            findings.append(
                Finding(
                    "MCH003",
                    Severity.ERROR,
                    ctx.path,
                    node.lineno,
                    f"{where} iterates {why}; wrap it in sorted(...)",
                )
            )

    for node in ctx.nodes:
        if isinstance(node, ast.For):
            flag(node.iter, "for loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for comp in node.generators:
                flag(comp.iter, "comprehension")
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("list", "tuple") and len(node.args) == 1:
                flag(node.args[0], f"{name}()")
    return findings
