"""Circuit-level optimization and hardware mapping.

This sub-package stands in for the Qiskit transpiler used by the paper:

* :mod:`repro.transpile.peephole` — local rewriting passes (inverse-pair
  cancellation, rotation merging, commutation-aware CNOT cancellation) that
  play the role of "Qiskit optimization level 3" in the evaluation.  The
  iterated-sweep engine here is the unoptimized ground truth; the production
  path is the streaming engine below.
* :mod:`repro.transpile.wire_optimizer` — the streaming wire-indexed
  peephole engine: per-qubit frontier stacks reach the same rewrite fixpoint
  in one amortized-linear pass, eagerly at gate-append time; the level-1
  ``Peephole`` pass streams each circuit through it once.
* :mod:`repro.transpile.coupling` — coupling-map models of the two
  limited-connectivity backends of Fig. 11 (IBM Manhattan's 65-qubit
  heavy-hex lattice and Google Sycamore's 64-qubit 2-D grid).
* :mod:`repro.transpile.routing` — a SABRE-style SWAP-insertion router.
"""

from repro.transpile.peephole import peephole_optimize
from repro.transpile.wire_optimizer import GateStreamOptimizer, streaming_peephole_optimize
from repro.transpile.coupling import CouplingMap
from repro.transpile.routing import route_circuit, RoutingResult

__all__ = [
    "peephole_optimize",
    "GateStreamOptimizer",
    "streaming_peephole_optimize",
    "CouplingMap",
    "route_circuit",
    "RoutingResult",
]
