"""Simulation and numerical analysis of DAG-ledger tip dynamics and
deposit-priced compliance control."""

from .arrivals import ArrivalProcess
from .agent import AgentTangleSim
from .reduced import ExtinctLedgerError, Injection, ReducedTangleSim
from .trajectory import TrajectoryFrame
from .fluid import (
    FluidTrajectory,
    StaticSolution,
    constant_history,
    integrate,
    static_solution,
)
from .stability import (
    SpectralRegion,
    balanced_characteristic,
    check_sufficient_condition,
    compliance_matrix,
    count_roots,
)
from .compliance import ComplianceNetwork
from .junction import ControllerParams, JunctionConfig, controller_step, run_ensemble
from .seeding import seed_stream
from .harness import Scenario, parse_scenario, run_scenario, validate

__version__ = "0.1.0"

__all__ = [
    "AgentTangleSim",
    "ArrivalProcess",
    "ComplianceNetwork",
    "ControllerParams",
    "ExtinctLedgerError",
    "FluidTrajectory",
    "Injection",
    "JunctionConfig",
    "ReducedTangleSim",
    "Scenario",
    "SpectralRegion",
    "StaticSolution",
    "TrajectoryFrame",
    "balanced_characteristic",
    "check_sufficient_condition",
    "compliance_matrix",
    "constant_history",
    "controller_step",
    "count_roots",
    "integrate",
    "parse_scenario",
    "run_ensemble",
    "run_scenario",
    "seed_stream",
    "static_solution",
    "validate",
]
