"""Reliability/latency-aware task allocation for edge-hub-cloud workflows.

The package models a workflow DAG running on a three-tier device
topology, expands each task into redundancy candidates (single, dual, or
triple execution driven by per-device vulnerability), assembles an exact
binary integer linear program, and solves it with a deterministic
branch-and-bound that trades log-reliability against end-to-end latency
through a normalized weighted sum.
"""

from .bilp import (
    BilpModel,
    InfeasibleError,
    TimeLimitError,
    NormalizationBounds,
    ObjectiveWeights,
    VariableCatalog,
    build_model,
    model_stats,
    normalization_bounds,
    weighted_objective,
)
from .fixtures import default_policy, inspection_workflow, reference_topology
from .io import ConfigError, Scenario, dump_system, dump_workflow, load_scenario, load_system, load_workflow
from .model import (
    UNBOUNDED,
    Channel,
    CriticalityPolicy,
    Device,
    TaskSpec,
    Topology,
    ValidationReport,
    WorkflowGraph,
    validate_workflow,
)
from .oracle import OracleResult, brute_force, monte_carlo_reliability, oracle_bounds, raw_objectives
from .params import ExecMode, comm_latency, comp_energy, exec_mode
from .pipeline import (
    AllocationPlan,
    PipelineContext,
    SweepResult,
    assignment_from_picks,
    baselines,
    prepare,
    restrict_to_device,
    solve_allocation,
    sweep,
)
from .solver import (
    Solution,
    SolverOptions,
    SolverStatus,
    export_mps,
    read_mps,
    read_solution,
    solve_builtin,
    verify,
)
from .synthgen import GenSpec, generate, generate_structure
from .transform import (
    CandidateGraph,
    CandidateNode,
    EgArc,
    ExpandedGraph,
    build_eg,
    build_reg,
    eg_summary,
    reg_summary,
)

__version__ = "0.1.0"

__all__ = [
    "UNBOUNDED",
    "AllocationPlan",
    "BilpModel",
    "CandidateGraph",
    "CandidateNode",
    "Channel",
    "ConfigError",
    "CriticalityPolicy",
    "Device",
    "EgArc",
    "ExecMode",
    "ExpandedGraph",
    "GenSpec",
    "InfeasibleError",
    "TimeLimitError",
    "NormalizationBounds",
    "ObjectiveWeights",
    "OracleResult",
    "PipelineContext",
    "Scenario",
    "Solution",
    "SolverOptions",
    "SolverStatus",
    "SweepResult",
    "TaskSpec",
    "Topology",
    "ValidationReport",
    "VariableCatalog",
    "WorkflowGraph",
    "assignment_from_picks",
    "baselines",
    "brute_force",
    "build_eg",
    "build_model",
    "build_reg",
    "comm_latency",
    "comp_energy",
    "default_policy",
    "dump_system",
    "dump_workflow",
    "eg_summary",
    "exec_mode",
    "export_mps",
    "generate",
    "generate_structure",
    "inspection_workflow",
    "load_scenario",
    "load_system",
    "load_workflow",
    "model_stats",
    "monte_carlo_reliability",
    "normalization_bounds",
    "oracle_bounds",
    "prepare",
    "raw_objectives",
    "read_mps",
    "read_solution",
    "reference_topology",
    "reg_summary",
    "restrict_to_device",
    "solve_allocation",
    "solve_builtin",
    "sweep",
    "validate_workflow",
    "verify",
    "weighted_objective",
]
