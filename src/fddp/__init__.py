"""Trajectory optimization with gap-tolerant DDP over manifold-valued states.

The package bundles four layers:

* state manifolds with integrate/difference operators (:mod:`fddp.manifolds`),
* hand-derived mechanical systems plus contact and impulse dynamics solved
  through KKT systems (:mod:`fddp.systems`, :mod:`fddp.contact`),
* shooting-node action models whose analytic derivatives are evaluated as
  one stacked pass per run of consecutive nodes that share a model
  (:mod:`fddp.action`, :mod:`fddp.problem`),
* the classical and feasibility-tolerant DDP solvers (:mod:`fddp.solver`)
  and a scenario/CLI harness (:mod:`fddp.scenarios`,
  :mod:`fddp.cli`).
"""

from .action import (
    ActionData,
    ActionDataStack,
    ActionModelBase,
    ConstrainedMechanicalDynamics,
    FreeMechanicalDynamics,
    ImpulseActionModel,
    IntegratedActionModel,
    TerminalActionModel,
    quasi_static_control,
)
from .contact import (
    Contact,
    ContactSet,
    baumgarte_a0,
    contact_dynamics_derivatives,
    contact_forward_dynamics,
    impulse_dynamics,
    impulse_dynamics_derivatives,
)
from .costs import (
    ComTracking,
    ControlRegularization,
    CostTerm,
    FrameTranslationTracking,
    StateRegularization,
)
from .errors import (
    DimensionMismatch,
    FactorizationError,
    FddpError,
    NotPositiveDefinite,
    NumericalFailure,
    ParameterError,
    RankDeficientConstraint,
    ScenarioError,
)
from .manifolds import (
    CompositeManifold,
    Manifold,
    Rotation2D,
    VectorSpace,
)
from .problem import ShootingProblem, gap_l2_norm
from .scenarios import (
    BUNDLED_SCENARIOS,
    Scenario,
    build_problem,
    build_warm_start,
    bundled_scenario_path,
    load_and_build,
    load_scenario,
)
from .solver import (
    SolveReport,
    SolverWorkspace,
    TraceRow,
    backward_pass,
    expected_improvement,
    forward_pass_ddp,
    forward_pass_fddp,
    goldstein_accept,
    solve,
)
from .systems import build_system

__version__ = "0.1.0"

__all__ = [
    "ActionData",
    "ActionDataStack",
    "ActionModelBase",
    "BUNDLED_SCENARIOS",
    "ComTracking",
    "CompositeManifold",
    "ConstrainedMechanicalDynamics",
    "Contact",
    "ContactSet",
    "ControlRegularization",
    "CostTerm",
    "DimensionMismatch",
    "FactorizationError",
    "FddpError",
    "FrameTranslationTracking",
    "FreeMechanicalDynamics",
    "ImpulseActionModel",
    "IntegratedActionModel",
    "Manifold",
    "NotPositiveDefinite",
    "NumericalFailure",
    "ParameterError",
    "RankDeficientConstraint",
    "Rotation2D",
    "Scenario",
    "ScenarioError",
    "ShootingProblem",
    "SolveReport",
    "SolverWorkspace",
    "StateRegularization",
    "TerminalActionModel",
    "TraceRow",
    "VectorSpace",
    "backward_pass",
    "baumgarte_a0",
    "build_problem",
    "build_system",
    "build_warm_start",
    "bundled_scenario_path",
    "contact_dynamics_derivatives",
    "contact_forward_dynamics",
    "expected_improvement",
    "forward_pass_ddp",
    "forward_pass_fddp",
    "gap_l2_norm",
    "goldstein_accept",
    "impulse_dynamics",
    "impulse_dynamics_derivatives",
    "load_and_build",
    "load_scenario",
    "quasi_static_control",
    "solve",
]
