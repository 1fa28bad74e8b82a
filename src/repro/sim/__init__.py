"""Deterministic discrete-event substrate for the Mochi reproduction.

Public surface:

* :class:`~repro.sim.kernel.SimKernel` -- the event queue;
* :class:`~repro.sim.network.Network` / ``Node`` / ``Process`` -- topology;
* :class:`~repro.sim.faults.FaultInjector` -- crash/partition injection;
* :class:`~repro.sim.random.RandomSource` -- named deterministic RNG streams.
"""

from .kernel import DeadlockError, SimKernel, SimulationError, Timer
from .network import (
    AddressError,
    LinkModel,
    Network,
    NetworkConfig,
    Node,
    Process,
    Transport,
)
from .faults import FaultInjector, FaultRecord
from .random import RandomSource

__all__ = [
    "SimKernel",
    "Timer",
    "SimulationError",
    "DeadlockError",
    "Network",
    "NetworkConfig",
    "LinkModel",
    "Node",
    "Process",
    "Transport",
    "AddressError",
    "FaultInjector",
    "FaultRecord",
    "RandomSource",
]
