"""HiveMind DSL: task graphs, directives, synthesis, codegen, compiler."""

from .ast import PLACEMENTS, Placement, Stream, Task, TaskGraph, TaskProfile
from .codegen import ApiArtifact, ApiBundle, generate_apis
from .compiler import CompilationResult, CompiledPlan, HiveMindCompiler
from .constraints import Constraint, ExecTimeConstraint, PlanEstimate
from .directives import (
    DirectiveSet,
    Learn,
    Parallel,
    Persist,
    Place,
    Serial,
    Synchronize,
)
from .synthesis import SynthesisError, enumerate_placements
from .validation import ValidationError, validate_graph

__all__ = [
    "Task",
    "Stream",
    "TaskGraph",
    "TaskProfile",
    "Placement",
    "PLACEMENTS",
    "Parallel",
    "Serial",
    "Synchronize",
    "DirectiveSet",
    "Place",
    "Learn",
    "Persist",
    "validate_graph",
    "ValidationError",
    "enumerate_placements",
    "SynthesisError",
    "generate_apis",
    "ApiBundle",
    "ApiArtifact",
    "HiveMindCompiler",
    "CompilationResult",
    "CompiledPlan",
    "PlanEstimate",
    "Constraint",
    "ExecTimeConstraint",
]
