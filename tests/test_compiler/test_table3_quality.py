"""Per-row quality table: Table III at level 3, pinned row by row.

Every row's exact CNOT count and entangling depth, plus a SHA-256 over the
gate lists of the optimized circuit and of the extracted Clifford tail (the
digest of ``perfbench/oracle.py``).  A speed-up must leave all three
unchanged; a deliberate change to circuit quality edits this table and says
why.  The paper's own counts sit beside ours in ``perfbench/common.py``.
"""

from __future__ import annotations

import hashlib

import pytest

import repro
from repro.workloads.registry import get_benchmark

#: (row, CX count, entangling depth, SHA-256 of circuit and tail gates)
TABLE3 = [
    ("UCC-(2,4)", 26, 20, "bd39fc27804053c6fc43042245fe5a655323fbc065577599c29f9c1763eaa0fb"),
    ("UCC-(2,6)", 107, 79, "556c912b5383c4eb539e8045c31e2dd0f0bacc30fd527ed4efe84b9fb447b0b5"),
    ("LiH", 106, 78, "29835e456fa1d6224716480d186aafcce9f617288134b66cc173506c01c32018"),
    ("H2O", 526, 354, "3123ee46b956f238625b855e01377e5e3236afe0c154b029bc0304ad86bcdf0d"),
    ("LABS-(n10)", 94, 65, "dd7ac6de618401a90871130c0041fc4095ae0ad81b528503ddc161501854d1ac"),
    ("MaxCut-(n15, r4)", 60, 41, "727d47a33723db626820851797ef91f1b9301c2877345893a28a899aa6058e90"),
    ("MaxCut-(n10, e12)", 22, 12, "7a13331b48e1edfd15fc26bee173db02197bbebfeeb2e008e0c2b76218a2d36b"),
    ("MaxCut-(n15, e63)", 85, 43, "30ad1b417bc0ac0c8fe5980645d0ed2f9e396e8c262f2dbad8f571ce5bbc541f"),
    ("UCC-(4,8)", 477, 358, "84b496d906c9d1b2891a10c17b6d468470f65204b7e6f39008a96bf013c0be92"),
    ("LABS-(n15)", 360, 230, "14c1a7038a3df765a8166086d6229c247ae741e4b0886793c61e71687a0c6c49"),
    ("MaxCut-(n20, r4)", 88, 38, "6b94d41ac1e09f414443fb7a8b2f49b8488059f5c47434f2e71992f01cfb2db6"),
    ("MaxCut-(n20, r8)", 125, 51, "a30efd0924c5df5fbf057d51819e5e6ab6b0271f4be9a09177b1f1be4b574aff"),
    ("MaxCut-(n20, r12)", 161, 65, "499e2c2399a77a24f711f498c85c9d78d80cdc47bacee3f9d7affdc59aa18af5"),
    ("MaxCut-(n20, e117)", 154, 68, "03a203749cd3f050fabd6194a92ad695e81eaf0a40f607c2f5e28555e97213a6"),
    ("UCC-(6,12)", 2811, 2050, "cae110f5444140af8add1193534cc77180f2c6ab40a77876a907796fb10b51e4"),
    ("benzene", 6258, 3507, "6fa292ae37a5d328405f571ae019dcacd4c7a2513bc84e87152a27875f6dc02a"),
    ("LABS-(n20)", 1032, 669, "b4f4657e7d114f855a12a8cddebd73d588fdd53bec89f0c2f8188d6b49f340d1"),
]


def _gate_digest(result) -> str:
    digest = hashlib.sha256()
    for circuit in (result.circuit, result.extracted_clifford):
        digest.update(repr([(g.name, g.qubits, g.params) for g in circuit.gates]).encode())
        digest.update(b"|")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "row, cx_count, entangling_depth, digest", TABLE3, ids=[entry[0] for entry in TABLE3]
)
def test_row_quality_is_pinned(row, cx_count, entangling_depth, digest):
    result = repro.compile(get_benchmark(row).terms(), level=3)
    assert (result.cx_count(), result.entangling_depth()) == (cx_count, entangling_depth), (
        f"{row}: CX/entangling depth {result.cx_count()}/{result.entangling_depth()}, "
        f"table says {cx_count}/{entangling_depth}"
    )
    assert _gate_digest(result) == digest, f"{row}: same counts, different gates"


def test_table_sums_match_the_benchmark_totals():
    assert sum(entry[1] for entry in TABLE3) == 12492
    assert sum(entry[2] for entry in TABLE3) == 7728
