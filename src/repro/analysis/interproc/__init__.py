"""Whole-program analysis: the project-scope rules of mochi-lint.

The file-scope rules see one file at a time; everything here sees the
program, through the project index (:mod:`callgraph`) the engine builds
once per run: partition safety (:mod:`partition`, MCH060) and migration
coverage (:mod:`migration`, MCH061).  Importing this package registers
those rules.
"""

from . import migration, partition  # noqa: F401
