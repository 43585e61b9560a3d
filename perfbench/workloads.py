"""The benchmark's workloads, their seeded inputs and the correctness gate.

Each workload is a bundled scenario under one solver. Its input for a run is
the scenario's own warm start moved by one small seeded tangent perturbation,
drawn once per run. The gate checks every solve against the optimum recorded
for the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from fddp import scenarios

# Size of the seeded warm-start perturbation. One tangent vector, drawn with
# PERTURBATION * N(0, 1) in every coordinate, moves every state of the guess
# along the manifold; each control entry gets its own additive noise of the
# same size. Independent noise of size 1e-3 on every node's configuration makes
# monoped_hop diverge, so states share one draw. At 1e-3 a third of the seeds
# also change monoped_hop's iteration count by one, which puts the seed rather
# than the code into solve_s; at 1e-4 every seed tried takes the reference
# count (see README.md).
PERTURBATION = 1e-4

# A solve passes when its final cost lies within this share of the reference.
COST_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    solver: str
    reference_cost: float


# Why each workload is here: see README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("monoped_hop", "monoped_hop", "fddp", 2.6488651612e-01),
        Workload("monoped_infeasible", "monoped_hop_warmstart_infeasible", "fddp", 2.2207745124e-01),
        Workload("swingup_fddp", "pendulum_swingup", "fddp", 9.7764483385e-01),
        Workload("swingup_ddp", "pendulum_swingup", "ddp", 9.7764483377e-01),
    )
}


def set_up(workload: Workload, clock):
    """Load, assemble and warm-start the scenario; returns (timing, scenario, problem, X, U).

    `clock` is the run's `hostspeed.HostClock`.
    """
    with clock.timed() as timing:
        scenario = scenarios.load_scenario(scenarios.bundled_scenario_path(workload.scenario))
        problem = scenarios.build_problem(scenario)
        X, U = scenarios.build_warm_start(scenario, problem)
    return timing, scenario, problem, X, U


def perturb(problem, X, U, seed: int):
    """The run's input: the warm start moved by one draw of the seeded perturbation."""
    rng = np.random.default_rng(seed)
    state = problem.state
    dx = PERTURBATION * rng.standard_normal(state.ndx)
    X = [state.integrate(x, dx) for x in X]
    U = [u + PERTURBATION * rng.standard_normal(u.shape) for u in U]
    return X, U


def gate(workload: Workload, scenario, report) -> list[str]:
    """Reasons the solve fails the correctness gate; empty when it passes."""
    reasons = []
    if not report.converged:
        reasons.append(f"termination {report.termination!r}")
    tolerance = scenario.solver_options["tolerance"]
    gap = report.rows[-1].gap_l2 if report.rows else float("nan")
    if not gap < tolerance:
        reasons.append(f"final gap_l2 {gap:.3e} not below {tolerance:.1e}")
    cost, ref = report.final_cost, workload.reference_cost
    if not abs(cost - ref) <= COST_RTOL * abs(ref):
        reasons.append(f"final cost {cost:.10e} differs from {ref:.10e}")
    return reasons
