"""Baseline compilers re-implementing the ideas of the paper's comparison points.

The original evaluation compares QuCLEAR against Qiskit, T|ket>, Paulihedral,
Rustiq and Tetris binaries.  Those tools are not available offline, so each
baseline here re-implements the published core idea of the corresponding
method:

* :func:`compile_naive` — direct V-shaped synthesis, no optimization (the
  "native" gate counts of Table II).
* :func:`compile_qiskit_like` — direct synthesis followed by peephole local
  rewriting (inverse cancellation, rotation merging) — the Qiskit O3 stand-in.
* :func:`compile_paulihedral_like` — block-wise gate cancellation: Pauli
  strings are reordered inside commuting blocks to maximise shared structure
  between adjacent V-blocks before local rewriting (Paulihedral's idea).
* :func:`compile_tket_like` — phase-gadget style synthesis with balanced
  parity trees plus local rewriting (T|ket>'s pairwise gadget approach).
* :func:`compile_rustiq_like` — greedy Pauli-network synthesis: a persistent
  Clifford frame, no uncomputation per gadget, with the final Clifford frame
  emitted explicitly at the end of the circuit (Rustiq's idea, without
  QuCLEAR's absorption step).

Every baseline is also registered by name in the unified
:class:`~repro.compiler.registry.CompilerRegistry`:
``repro.get_registry().compile("qiskit-like", terms)``.
"""

from repro.baselines.naive import compile_naive, compile_qiskit_like
from repro.baselines.paulihedral import compile_paulihedral_like
from repro.baselines.tket import compile_tket_like
from repro.baselines.rustiq import compile_rustiq_like

__all__ = [
    "compile_naive",
    "compile_qiskit_like",
    "compile_paulihedral_like",
    "compile_tket_like",
    "compile_rustiq_like",
]
