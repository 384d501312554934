"""Kinetic-energy-bounded safety filtering for torque-controlled arms.

The package combines a rigid-body dynamics layer, a dense active-set QP
solver, barrier-style constraint rows, a lexicographic QP cascade, a
Cartesian impedance controller with a per-step safety filter, and a
fixed-step simulator with CSV logging.
"""

from .control import (
    ControllerState,
    ImpedanceParams,
    StepInfo,
    UnsupportedConfigurationError,
    nominal_torque,
    nullspace_basis,
    step,
    wrench_deviation,
)
from .dynamics import (
    ModelError,
    RobotModel,
    RobotState,
    compute_state,
    dynamics_terms,
    forward_kinematics,
    jacobian,
    kinetic_energy,
    load_bundled_model,
    load_model,
    load_model_file,
)
from .hqp import (
    CascadeInfeasibleError,
    HqpResult,
    LevelRecord,
    LevelSpec,
    S0EmptyError,
    run_cascade,
)
from .qpcore import QpProblem, QpSolution, solve_qp
from .sim import (
    Scenario,
    ScenarioError,
    SimResult,
    SimulationFault,
    audit,
    load_scenario,
    load_scenario_file,
    run_scenario,
    write_csv,
)
from .tasks import (
    CbfParams,
    Task,
    collision_plane_rows,
    energy_cbf_row,
    torque_limit_rows,
)

__all__ = [
    "CascadeInfeasibleError",
    "CbfParams",
    "ControllerState",
    "HqpResult",
    "ImpedanceParams",
    "LevelRecord",
    "LevelSpec",
    "ModelError",
    "QpProblem",
    "QpSolution",
    "RobotModel",
    "RobotState",
    "S0EmptyError",
    "Scenario",
    "ScenarioError",
    "SimResult",
    "SimulationFault",
    "StepInfo",
    "Task",
    "UnsupportedConfigurationError",
    "audit",
    "collision_plane_rows",
    "compute_state",
    "dynamics_terms",
    "energy_cbf_row",
    "forward_kinematics",
    "jacobian",
    "kinetic_energy",
    "load_bundled_model",
    "load_model",
    "load_model_file",
    "load_scenario",
    "load_scenario_file",
    "nominal_torque",
    "nullspace_basis",
    "run_cascade",
    "run_scenario",
    "solve_qp",
    "step",
    "torque_limit_rows",
    "wrench_deviation",
    "write_csv",
]

__version__ = "0.1.0"
