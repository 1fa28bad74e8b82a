"""mochi-race: concurrency correctness for the simulated Mochi runtime.

Three detectors, one reporting pipeline:

* :mod:`.hb` + :mod:`.hooks` -- vector-clock happens-before engine
  flagging unordered accesses to tracked shared state (MCH030/MCH031);
* :mod:`.lockgraph` -- lock-order cycles and wait-while-holding
  deadlock potential (MCH040/MCH041), reported without the deadlock
  ever firing;
* :mod:`.explore` -- deterministic schedule explorer re-running a
  scenario under seeded ready-queue perturbations and pinning
  order-dependent outcomes (MCH032) to the first diverging event.

Only :mod:`.hooks` is imported here: it registers the rules and is safe
to import from anywhere (stdlib + analysis core only).  The explorer
imports the runtime lazily; the example-service scenarios live in
:mod:`repro.scenarios` and ``repro race`` runs them.
"""

from . import hooks

__all__ = ["hooks"]
