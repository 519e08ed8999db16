"""QAOA workload generators: MaxCut on graphs and the LABS problem.

Both workloads follow the structure evaluated in the paper: one QAOA layer
consisting of the problem Hamiltonian (``Z``/``I`` Pauli strings) followed by
the transverse-field mixer (one ``X`` rotation per qubit).
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.exceptions import WorkloadError
from repro.paulis.pauli import PauliString
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm


# ---------------------------------------------------------------------- #
# Graph helpers
# ---------------------------------------------------------------------- #
def regular_graph(num_nodes: int, degree: int, seed: int = 11) -> nx.Graph:
    """A random ``degree``-regular graph on ``num_nodes`` nodes."""
    if degree >= num_nodes:
        raise WorkloadError("the degree must be smaller than the node count")
    if (num_nodes * degree) % 2 != 0:
        raise WorkloadError("num_nodes * degree must be even for a regular graph")
    return nx.random_regular_graph(degree, num_nodes, seed=seed)


def random_graph(num_nodes: int, num_edges: int, seed: int = 11) -> nx.Graph:
    """A random graph with exactly ``num_edges`` edges (Erdos-Renyi G(n, m))."""
    max_edges = num_nodes * (num_nodes - 1) // 2
    if num_edges > max_edges:
        raise WorkloadError(f"at most {max_edges} edges fit on {num_nodes} nodes")
    return nx.gnm_random_graph(num_nodes, num_edges, seed=seed)


# ---------------------------------------------------------------------- #
# MaxCut
# ---------------------------------------------------------------------- #
def maxcut_hamiltonian(graph: nx.Graph) -> SparsePauliSum:
    """The MaxCut problem Hamiltonian ``sum_(i,j) 0.5 (1 - Z_i Z_j)`` minus constants."""
    num_qubits = graph.number_of_nodes()
    if num_qubits < 2:
        raise WorkloadError("MaxCut needs at least two nodes")
    terms = [
        PauliTerm(
            PauliString.from_sparse(num_qubits, [(int(first), "Z"), (int(second), "Z")]),
            0.5,
        )
        for first, second in graph.edges
    ]
    if not terms:
        raise WorkloadError("the graph has no edges")
    return SparsePauliSum(terms)


def maxcut_qaoa_terms(
    graph: nx.Graph, gamma: float = 0.8, beta: float = 0.4, layers: int = 1
) -> list[PauliTerm]:
    """One or more QAOA layers for MaxCut on ``graph``."""
    num_qubits = graph.number_of_nodes()
    problem = [
        PauliTerm(
            PauliString.from_sparse(num_qubits, [(int(first), "Z"), (int(second), "Z")]),
            gamma,
        )
        for first, second in graph.edges
    ]
    mixer = [
        PauliTerm(PauliString.single(num_qubits, qubit, "X"), beta)
        for qubit in range(num_qubits)
    ]
    terms: list[PauliTerm] = []
    for _ in range(max(1, layers)):
        terms.extend(problem)
        terms.extend(mixer)
    return terms


def cut_value(graph: nx.Graph, bitstring: str) -> int:
    """Number of cut edges for an assignment given as a bitstring (qubit 0 rightmost)."""
    num_qubits = graph.number_of_nodes()
    if len(bitstring) != num_qubits:
        raise WorkloadError("bitstring length must equal the node count")
    assignment = {qubit: bitstring[num_qubits - 1 - qubit] for qubit in range(num_qubits)}
    return sum(1 for first, second in graph.edges if assignment[first] != assignment[second])


# ---------------------------------------------------------------------- #
# LABS (Low Autocorrelation Binary Sequences)
# ---------------------------------------------------------------------- #
def labs_hamiltonian(num_qubits: int) -> SparsePauliSum:
    """The LABS sidelobe-energy Hamiltonian ``sum_k C_k(s)^2`` as Pauli ``Z`` strings.

    ``C_k = sum_i s_i s_{i+k}`` with ``s_i = +/-1``; squaring produces two- and
    four-body ``Z`` terms (plus an additive constant that is dropped).
    """
    if num_qubits < 3:
        raise WorkloadError("LABS needs at least three qubits")
    accumulator: dict[tuple[int, ...], float] = {}

    def add(indices: tuple[int, ...], weight: float) -> None:
        # s_i^2 = 1: keep only indices that appear an odd number of times.
        counts: dict[int, int] = {}
        for index in indices:
            counts[index] = counts.get(index, 0) + 1
        support = tuple(sorted(index for index, count in counts.items() if count % 2 == 1))
        if not support:
            return
        accumulator[support] = accumulator.get(support, 0.0) + weight

    for offset in range(1, num_qubits):
        pairs = [(i, i + offset) for i in range(num_qubits - offset)]
        for first_index, first_pair in enumerate(pairs):
            for second_pair in pairs[first_index:]:
                weight = 1.0 if first_pair == second_pair else 2.0
                add(first_pair + second_pair, weight)

    terms = [
        PauliTerm(
            PauliString.from_sparse(num_qubits, [(index, "Z") for index in support]), weight
        )
        for support, weight in sorted(accumulator.items())
        if abs(weight) > 1e-12
    ]
    if not terms:
        raise WorkloadError("LABS Hamiltonian collapsed to a constant")
    return SparsePauliSum(terms)


def labs_qaoa_terms(
    num_qubits: int, gamma: float = 0.3, beta: float = 0.5, layers: int = 1
) -> list[PauliTerm]:
    """One or more QAOA layers for the LABS problem."""
    problem_hamiltonian = labs_hamiltonian(num_qubits)
    problem = [
        PauliTerm(term.pauli.copy(), gamma * term.coefficient)
        for term in problem_hamiltonian
    ]
    mixer = [
        PauliTerm(PauliString.single(num_qubits, qubit, "X"), beta)
        for qubit in range(num_qubits)
    ]
    terms: list[PauliTerm] = []
    for _ in range(max(1, layers)):
        terms.extend(problem)
        terms.extend(mixer)
    return terms


def labs_energy(bitstring: str) -> int:
    """Exact LABS sidelobe energy of a bitstring (qubit 0 rightmost)."""
    spins = [1 if bit == "0" else -1 for bit in reversed(bitstring)]
    length = len(spins)
    return sum(
        sum(spins[i] * spins[i + offset] for i in range(length - offset)) ** 2
        for offset in range(1, length)
    )
