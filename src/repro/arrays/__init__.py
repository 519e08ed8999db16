"""Pluggable array backends for the packed conjugation engine.

The engine (:mod:`repro.paulis.packed`, :mod:`repro.clifford.engine`) routes
every array operation through an :class:`ArrayBackend`; this package holds
the backend implementations and the name registry:

* :class:`NumpyBackend` — the default host backend;
* :class:`CupyBackend` — optional GPU backend (import-guarded; resolving
  ``"cupy"`` without the package raises a clear error);
* :class:`ReferenceBackend` — pure-Python ground truth for equivalence tests;
* :func:`resolve_backend` — names/instances/env override to singletons;
  selection precedence: explicit argument > ``Target.array_backend`` >
  ``REPRO_ARRAY_BACKEND`` > ``"numpy"``.

The compile passes themselves (commuting-block scan, Clifford extraction)
transpose their input to host bit columns once
(:mod:`repro.paulis.columns`) and do not run on the backend.
"""

from repro.arrays.backend import ArrayBackend, NumpyBackend, ReferenceBackend
from repro.arrays.cupy_backend import CupyBackend, cupy_available
from repro.arrays.registry import (
    ENV_VAR,
    NUMPY,
    available_backends,
    default_backend,
    register_backend,
    resolve_backend,
)

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "ReferenceBackend",
    "CupyBackend",
    "cupy_available",
    "ENV_VAR",
    "NUMPY",
    "available_backends",
    "default_backend",
    "register_backend",
    "resolve_backend",
]
