"""Preset pipelines: ``optimization_level`` 0 to 3.

* **0** — naive direct synthesis, no optimization (the "native" column of
  Table II);
* **1** — naive synthesis plus local peephole rewriting (the Qiskit-O3
  stand-in), routed to the target when one is given;
* **2** — Clifford Extraction with the recursive tree but without the greedy
  in-block reordering or cross-block lookahead (a cheaper QuCLEAR);
* **3** — the full QuCLEAR flow of the paper's Fig. 6: commuting-block
  grouping, full-featured Clifford Extraction (which merges rotations too),
  and routing to the target (the absorbers are built lazily by the result).

When no target is supplied the routing pass is a no-op, so a level-3 run on
an all-to-all device produces exactly the circuit of
``quclear_pipeline().run(...)``.
"""

from __future__ import annotations

from repro.compiler.passes import (
    CliffordExtraction,
    GroupCommuting,
    NaiveSynthesis,
    Peephole,
    PostRoutingPeephole,
    SabreRouting,
)
from repro.compiler.pipeline import Pipeline
from repro.exceptions import CompilerError

#: highest supported optimization level
MAX_OPTIMIZATION_LEVEL = 3


def quclear_passes(
    reorder_within_blocks: bool = True,
    recursive_tree: bool = True,
    cross_block_lookahead: bool = True,
    local_optimize: bool = False,
    max_lookahead: int | None = None,
) -> list:
    """The logical-circuit portion of the QuCLEAR flow as a pass list.

    Grouping, extraction with the requested feature flags, and (when
    ``local_optimize``, the switch of the paper's Fig. 9 ablation) the
    :class:`Peephole` pass, which the presets leave out: extraction merges
    rotations itself.  No routing, no absorption preparation.
    """
    passes: list = [
        GroupCommuting(),
        CliffordExtraction(
            reorder_within_blocks=reorder_within_blocks,
            recursive_tree=recursive_tree,
            cross_block_lookahead=cross_block_lookahead,
            max_lookahead=max_lookahead,
        ),
    ]
    if local_optimize:
        passes.append(Peephole())
    return passes


def quclear_pipeline(name: str = "quclear", **flags) -> Pipeline:
    """A logical-only QuCLEAR pipeline with the :func:`quclear_passes`
    feature flags."""
    return Pipeline(quclear_passes(**flags), name=name)


def _device_tail() -> list:
    """The device stages shared by the full presets.

    Absorption preparation is deliberately *not* part of the presets: the
    result builds (and caches) the absorbers lazily on first use, so eagerly
    constructing them would only inflate the compile-time measurement that
    Table III compares against the baselines (the paper reports absorption
    runtime separately, in Table IV).
    """
    return [SabreRouting(), PostRoutingPeephole()]


def quclear_preset(name: str = "quclear", **flags) -> Pipeline:
    """The full QuCLEAR preset (grouping, extraction, routing) with custom
    feature flags — what level 3 runs."""
    return Pipeline(quclear_passes(**flags) + _device_tail(), name=name)


def preset_pipeline(level: int = MAX_OPTIMIZATION_LEVEL) -> Pipeline:
    """The preset pipeline for ``optimization_level = level`` (0..3)."""
    if level == 0:
        return Pipeline([NaiveSynthesis()], name="level0")
    if level == 1:
        return Pipeline(
            [NaiveSynthesis(), Peephole(), SabreRouting(), PostRoutingPeephole()],
            name="level1",
        )
    if level == 2:
        return quclear_preset(
            name="level2",
            reorder_within_blocks=False,
            cross_block_lookahead=False,
        )
    if level == 3:
        return quclear_preset(name="level3")
    raise CompilerError(
        f"optimization level must be 0..{MAX_OPTIMIZATION_LEVEL}, got {level!r}"
    )
