"""mochi-lint: Mochi-aware static analysis + runtime checking.

The reproduction rests on invariants no off-the-shelf tool checks: code
under the simulated Margo runtime must never touch wall-clock time,
unseeded randomness, or real blocking I/O; RPC handlers must always
respond; ULTs must not suspend while holding a mutex; and configuration
documents must cross-reference consistently.  This package enforces all
of that three ways:

* a static pass (:mod:`repro.analysis.engine`, ``repro lint``):
  file-scope and whole-program rules in one pipeline;
* a configuration check (:mod:`repro.analysis.config_check`) that runs
  Bedrock's own boot checks on config files, so files and boots agree;
* one runtime checker (:mod:`repro.analysis.race`; ``REPRO_SANITIZE=1``
  raises, ``REPRO_SANITIZE=race`` records) asserting the invariants the
  AST cannot prove, under the same ``MCH0xx`` rule ids.

This module exports nothing: the runtime (``margo/*``) imports
:mod:`.race.hooks` through here on every ``import repro``, and must not
pay for the lint engine.  Import the static API from :mod:`.engine`.
"""
