"""Compiler comparison on fully connected devices (the paper's Table III).

Every compiler is looked up in the unified
:class:`~repro.compiler.registry.CompilerRegistry` (lookups are
case-insensitive, so the display name ``"QuCLEAR"`` resolves to the
``"quclear"`` pipeline) and all of them return the same
:class:`~repro.compiler.result.CompilationResult`, so the harness never
branches on the compiler kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.compiler.presets import quclear_preset
from repro.compiler.registry import get_registry
from repro.paulis.term import PauliTerm
from repro.workloads.registry import Benchmark, get_benchmark

#: the compiler line-up of Table III (QuCLEAR plus the four baselines)
DEFAULT_COMPILERS = ("QuCLEAR", "qiskit-like", "rustiq-like", "paulihedral-like", "tket-like")


@dataclass
class CompilerComparison:
    """Per-compiler metrics for one workload."""

    workload: str
    num_qubits: int
    num_paulis: int
    results: dict[str, dict[str, float]] = field(default_factory=dict)
    #: per-compiler pass-level wall-clock breakdown (pass name -> seconds)
    pass_timings: dict[str, dict[str, float]] = field(default_factory=dict)

    def cx_counts(self) -> dict[str, int]:
        return {name: int(metrics["cx_count"]) for name, metrics in self.results.items()}

    def best_compiler(self, metric: str = "cx_count") -> str:
        return min(self.results, key=lambda name: self.results[name][metric])

    def _result_key(self, name: str) -> str:
        """Resolve ``name`` against the results case-insensitively, matching
        the registry's lookup semantics."""
        for key in self.results:
            if key.lower() == name.lower():
                return key
        raise KeyError(name)

    def reduction_vs(self, baseline: str, metric: str = "cx_count") -> float:
        """Relative reduction of QuCLEAR versus ``baseline`` (1.0 = 100 %)."""
        quclear = self.results[self._result_key("QuCLEAR")][metric]
        other = self.results[self._result_key(baseline)][metric]
        if other == 0:
            return 0.0
        return 1.0 - quclear / other


def compare_compilers(
    terms: Sequence[PauliTerm],
    workload: str = "custom",
    compilers: Sequence[str] = DEFAULT_COMPILERS,
    quclear_kwargs: dict | None = None,
) -> CompilerComparison:
    """Compile ``terms`` with every requested compiler and collect the metrics."""
    term_list = list(terms)
    registry = get_registry()
    comparison = CompilerComparison(
        workload=workload,
        num_qubits=term_list[0].num_qubits,
        num_paulis=len(term_list),
    )
    for name in compilers:
        if quclear_kwargs is not None and name.lower() == "quclear":
            # same preset shape as the registry's "quclear" pipeline, so the
            # compile-time measurement stays comparable across both branches
            result = quclear_preset(**quclear_kwargs).run(term_list)
        else:
            result = registry.compile(name, term_list)
        comparison.results[name] = result.metrics()
        comparison.pass_timings[name] = result.pass_timings
    return comparison


def compare_on_benchmark(
    benchmark: str | Benchmark,
    compilers: Sequence[str] = DEFAULT_COMPILERS,
    quclear_kwargs: dict | None = None,
) -> CompilerComparison:
    """Run the Table III comparison on one named benchmark."""
    if isinstance(benchmark, str):
        benchmark = get_benchmark(benchmark)
    return compare_compilers(
        benchmark.terms(),
        workload=benchmark.name,
        compilers=compilers,
        quclear_kwargs=quclear_kwargs,
    )
