"""mochi-race: the runtime checker for the simulated Mochi runtime.

One switch (``REPRO_SANITIZE``, or :func:`.hooks.enable`), one list of
findings, every check:

* :mod:`.hooks` -- the gated entry points margo, Yokan, Warabi and REMI
  call, and the checks that only read what the runtime already keeps:
  MCH011 (suspending or finishing while holding a mutex) and MCH012 (a
  handler that never answers);
* :mod:`.hb` -- vector-clock happens-before engine flagging unordered
  accesses to tracked shared state (MCH030/MCH031);
* :mod:`.lockgraph` -- lock-order cycles (MCH040), reported without the
  deadlock ever firing, and the held table MCH011 reads;
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
