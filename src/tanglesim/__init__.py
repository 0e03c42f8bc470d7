"""Simulation and numerical analysis of DAG-ledger tip dynamics and
deposit-priced compliance control."""

from .arrivals import ArrivalProcess
from .agent import AgentTangle, AgentTangleSim, Site, new_tangle
from .reduced import (
    ExtinctLedgerError,
    Injection,
    ReducedTangleSim,
    expected_free_consumed,
    free_consumed_distribution,
    type_probabilities,
)
from .trajectory import TrajectoryFrame
from .fluid import (
    FluidTrajectory,
    StaticSolution,
    constant_history,
    fluid_rhs,
    integrate,
    selection_rates,
    static_solution,
    tip_shares,
)
from .stability import (
    ModeCheck,
    SpectralRegion,
    balanced_characteristic,
    check_sufficient_condition,
    compliance_matrix,
    count_roots,
    find_x0,
    mode_ratio,
    ring_eigenvalues,
    verify_unstable_mode,
)
from .compliance import ComplianceNetwork, windowed_average
from .junction import ControllerParams, JunctionConfig, controller_step, run_ensemble
from .seeding import seed_stream
from .harness import Scenario, parse_scenario, run_scenario, validate

__version__ = "0.1.0"

__all__ = [
    "AgentTangle",
    "AgentTangleSim",
    "ArrivalProcess",
    "ComplianceNetwork",
    "ControllerParams",
    "ExtinctLedgerError",
    "FluidTrajectory",
    "Injection",
    "JunctionConfig",
    "ModeCheck",
    "ReducedTangleSim",
    "Scenario",
    "Site",
    "SpectralRegion",
    "StaticSolution",
    "TrajectoryFrame",
    "balanced_characteristic",
    "check_sufficient_condition",
    "compliance_matrix",
    "constant_history",
    "controller_step",
    "count_roots",
    "expected_free_consumed",
    "find_x0",
    "fluid_rhs",
    "free_consumed_distribution",
    "integrate",
    "mode_ratio",
    "new_tangle",
    "parse_scenario",
    "ring_eigenvalues",
    "run_ensemble",
    "run_scenario",
    "seed_stream",
    "selection_rates",
    "static_solution",
    "tip_shares",
    "type_probabilities",
    "validate",
    "verify_unstable_mode",
    "windowed_average",
]
