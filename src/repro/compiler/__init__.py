"""Composable pass-pipeline compiler API.

The subsystem decomposes compilation into small passes chained by a
:class:`Pipeline`, compiling for a :class:`Target` and producing one unified
:class:`CompilationResult` whatever the pipeline:

* :class:`Pass` — the pass protocol (``run(program, context)``), with the
  QuCLEAR stages wrapped as :class:`GroupCommuting`,
  :class:`CliffordExtraction`, :class:`Peephole`, :class:`SabreRouting` and
  :class:`AbsorptionPrep`;
* :class:`PassContext` / :class:`PropertySet` — per-run state: analysis
  properties, per-pass timings, the target;
* :class:`Pipeline` — an ordered pass chain with per-pass wall-clock timing
  (surfaced as ``result.metadata["pass_timings"]``);
* :func:`preset_pipeline` — optimization levels 0..3 (3 = full QuCLEAR);
* :class:`CompilerRegistry` / :func:`get_registry` — the unified catalogue of
  QuCLEAR and every baseline compiler;
* :func:`compile` — the one-call entry point, re-exported as
  :func:`repro.compile`;
* :func:`compile_many` / :func:`plan_batch` — batch compilation, serial or
  on a :class:`CompilePool`.
"""

from repro.compiler.result import CompilationResult
from repro.compiler.context import PassContext, Program, PropertySet
from repro.compiler.target import DEFAULT_BASIS_GATES, Target, as_target
from repro.compiler.passes import (
    AbsorptionPrep,
    CliffordExtraction,
    FunctionCompilerPass,
    GroupCommuting,
    NaiveSynthesis,
    Pass,
    Peephole,
    PostRoutingPeephole,
    SabreRouting,
)
from repro.compiler.pipeline import Pipeline, with_routing
from repro.compiler.presets import (
    MAX_OPTIMIZATION_LEVEL,
    preset_pipeline,
    quclear_passes,
    quclear_pipeline,
    quclear_preset,
)
from repro.compiler.registry import DEFAULT_REGISTRY, CompilerRegistry, get_registry
from repro.compiler.api import (
    BatchPlan,
    compile,
    compile_many,
    plan_batch,
    validate_program,
)
from repro.compiler.pool import CompilePool, CompilePoolBrokenError

__all__ = [
    "CompilationResult",
    "PassContext",
    "Program",
    "PropertySet",
    "Target",
    "DEFAULT_BASIS_GATES",
    "as_target",
    "Pass",
    "GroupCommuting",
    "CliffordExtraction",
    "NaiveSynthesis",
    "Peephole",
    "PostRoutingPeephole",
    "SabreRouting",
    "AbsorptionPrep",
    "FunctionCompilerPass",
    "Pipeline",
    "MAX_OPTIMIZATION_LEVEL",
    "preset_pipeline",
    "quclear_passes",
    "quclear_pipeline",
    "quclear_preset",
    "CompilerRegistry",
    "DEFAULT_REGISTRY",
    "get_registry",
    "compile",
    "compile_many",
    "BatchPlan",
    "CompilePool",
    "CompilePoolBrokenError",
    "plan_batch",
    "validate_program",
    "with_routing",
]
