"""The paper's primary contribution: Clifford Extraction and Absorption.

* :mod:`repro.core.commuting` — partitioning a Pauli sequence into blocks of
  mutually commuting strings (the reordering scope of Algorithm 2).
* :mod:`repro.core.tree_synthesis` — the recursive CNOT-tree synthesis
  heuristic (Algorithm 1).
* :mod:`repro.core.extraction` — the table-native Clifford Extraction pass
  (Algorithm 2 on the bit-packed Pauli store).
* :mod:`repro.core.extraction_legacy` — the original per-term extraction
  loop, kept as the bit-for-bit ground truth of the equivalence tests.
* :mod:`repro.core.absorption` — Clifford Absorption for observable and
  probability measurements (CA-Pre / CA-Post).

The end-to-end flow (paper Fig. 6) is the :mod:`repro.compiler` pass
pipeline: :func:`repro.compile` or
:func:`repro.compiler.quclear_pipeline`.
"""

from repro.core.commuting import commuting_block_bounds, convert_commute_sets
from repro.core.extraction import CliffordExtractor, ExtractionResult
from repro.core.extraction_legacy import LegacyCliffordExtractor
from repro.core.absorption import (
    AbsorbedObservable,
    ObservableAbsorber,
    ProbabilityAbsorber,
    absorb_observables,
    absorb_probabilities,
)
from repro.core.measurement_grouping import (
    MeasurementGroup,
    group_observables,
    measurement_savings,
)

__all__ = [
    "MeasurementGroup",
    "group_observables",
    "measurement_savings",
    "commuting_block_bounds",
    "convert_commute_sets",
    "CliffordExtractor",
    "LegacyCliffordExtractor",
    "ExtractionResult",
    "AbsorbedObservable",
    "ObservableAbsorber",
    "ProbabilityAbsorber",
    "absorb_observables",
    "absorb_probabilities",
]
