"""Exact scheduling of films to screens with staggered showtimes.

Screens across a cluster of neighbouring theatre locations each get one
film in one showtime configuration for the day; no configuration repeats
within a cluster.  The optimizer maximizes forecast attendance and
certifies every result with a proof checked in exact integers: an LP
dual for an optimum, a pigeonhole count or Hall set for infeasibility.
"""

from .cluster import (
    ClusterSolveReport,
    DecompositionReport,
    solve_all,
    verify_decomposition,
)
from .confgen import cycle_length, generate_configurations
from .domain import (
    ClusterInstance,
    Film,
    ForecastMatrix,
    InstanceDataError,
    InstanceError,
    InstanceFormatError,
    Location,
    MultiClusterInstance,
    Screen,
    ShowtimeConfiguration,
    Violation,
    dumps_instance,
    dumps_json,
    load_instance,
    validate_instance,
)
from .formulation import (
    BilpModel,
    FeasibilityReport,
    VariableRef,
    build_joint_model,
    build_model,
    check_feasible,
    evaluate,
    export_lp_text,
)
from .solver import (
    CertificationError,
    OracleGuardError,
    Schedule,
    SolveReport,
    certify,
    solve_assignment,
    solve_branch_and_bound,
    solve_brute_force,
)

__version__ = "0.1.0"

__all__ = [
    "BilpModel",
    "CertificationError",
    "ClusterInstance",
    "ClusterSolveReport",
    "DecompositionReport",
    "FeasibilityReport",
    "Film",
    "ForecastMatrix",
    "InstanceDataError",
    "InstanceError",
    "InstanceFormatError",
    "Location",
    "MultiClusterInstance",
    "OracleGuardError",
    "Schedule",
    "Screen",
    "ShowtimeConfiguration",
    "SolveReport",
    "VariableRef",
    "Violation",
    "build_joint_model",
    "build_model",
    "certify",
    "check_feasible",
    "cycle_length",
    "dumps_instance",
    "dumps_json",
    "evaluate",
    "export_lp_text",
    "generate_configurations",
    "load_instance",
    "solve_all",
    "solve_assignment",
    "solve_branch_and_bound",
    "solve_brute_force",
    "validate_instance",
    "verify_decomposition",
]
