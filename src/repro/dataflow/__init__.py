"""Generic dataflow analysis over the IR control-flow graph.

A single worklist solver (:func:`solve`) runs any :class:`Analysis` —
forward or backward, any join — over a :class:`repro.ir.Function`.  The
canned analyses cover what the rest of the toolchain needs:

* :func:`liveness` — backward may-analysis; the one liveness
  implementation in the repo (the register allocators and
  ``localize_temps`` call it directly);
* :func:`definite_assignment` — forward must-analysis; the strict IR
  verifier's def-before-use check and ``repro lint``'s
  uninitialized-variable detection;
* :func:`reaching_definitions` — forward may-analysis over definition
  sites;
* :func:`dominators` — forward must-analysis over block labels;
* :func:`constness` — forward constant propagation facts
  (vreg -> known :class:`Const` or ``VARYING``).
"""

from .analyses import (
    ConstLattice, VARYING, constness, definite_assignment, dominators,
    liveness, reaching_definitions,
)
from .framework import Analysis, DataflowResult, solve

__all__ = [
    "Analysis", "DataflowResult", "solve",
    "liveness", "definite_assignment", "reaching_definitions",
    "dominators", "constness", "ConstLattice", "VARYING",
]
