"""Tests for action models, cost terms, shooting problems, and rollouts.

Dynamics derivatives are checked against manifold-aware central differences;
the pendulum node is cross-checked against a from-scratch re-implementation
of the semi-implicit step, and shooting-problem gaps against a dense
evaluation of the linear dynamics.
"""

import inspect
import re

import numpy as np
import pytest

import fddp
from fddp import numdiff
from fddp.action import (
    ConstrainedMechanicalDynamics,
    FreeMechanicalDynamics,
    ImpulseActionModel,
    IntegratedActionModel,
    TerminalActionModel,
    quasi_static_control,
)
from fddp.contact import Contact, ContactSet, _cholesky, _cholesky_solve
from fddp.costs import (
    ComTracking,
    CostTerm,
    ControlRegularization,
    FrameTranslationTracking,
    StateRegularization,
)
from fddp.errors import (
    DimensionMismatch,
    FddpError,
    NumericalFailure,
    ParameterError,
    RankDeficientConstraint,
)
from fddp.manifolds import CompositeManifold, Rotation2D, VectorSpace
from fddp.problem import ShootingProblem
from fddp.scenarios import build_problem, build_warm_start, bundled_scenario_path, load_scenario
from fddp.solver import solve
from fddp.systems import (
    SYSTEM_BUILDERS,
    DoubleIntegrator,
    DoublePendulum,
    LinearDynamics,
    Pendulum,
    PlanarMonoped,
    build_system,
    lqr_chain_dynamics,
)
from sampling import node_data, random_tangent

GRAVITY = 9.81
BUNDLED_SCENARIOS = (
    "lqr_chain",
    "double_integrator",
    "pendulum_swingup",
    "monoped_hop",
    "monoped_hop_warmstart_infeasible",
)


def integrated(system, dt, costs=()):
    return IntegratedActionModel(FreeMechanicalDynamics(system), costs=costs, dt=dt)


def term_value(term, x, u):
    """A cost term's value at one point: 0.5 * weight * ||r||^2."""
    r = term.residual(x, u)
    return 0.5 * term.weight * float(r @ r)


def one_node(model):
    """A stack of one node and that node's container."""
    stack = model.create_stack(1)
    return stack, stack.nodes[0]


def calc_diff_one(model, stack, x, u=np.zeros(0)):
    """One node's derivatives: the stacked pass over its stack of one."""
    model.calc_diff(stack, x[None], np.asarray(u)[None])


def default_costs(state, nu):
    return (
        StateRegularization(state, np.zeros(state.nx), 2.0, nu),
        ControlRegularization(nu, 0.1, state.ndx),
    )


# ---------------------------------------------------------------------------
# frozen step examples
# ---------------------------------------------------------------------------


def test_pendulum_rest_is_a_fixed_point():
    model = integrated(Pendulum(), dt=0.05)
    data = model.calc(node_data(model), np.zeros(2), np.zeros(1))
    np.testing.assert_array_equal(data.xnext, [0.0, 0.0])


def test_pendulum_step_matches_reimplementation():
    m, length, damping = 1.3, 0.7, 0.15
    dt = 0.01
    model = integrated(Pendulum(mass=m, length=length, damping=damping), dt=dt)

    def step(x, u):
        q, v = x
        vdot = (u[0] - m * GRAVITY * length * np.sin(q) - damping * v) / (m * length**2)
        v_next = v + dt * vdot
        return np.array([q + dt * v_next, v_next])

    rng = np.random.default_rng(60)
    data = node_data(model)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, 2)
        u = rng.uniform(-5.0, 5.0, 1)
        model.calc(data, x, u)
        np.testing.assert_allclose(data.xnext, step(x, u), atol=1e-12)


@pytest.mark.parametrize("system", [Pendulum(1.3, 0.7, 0.15), DoubleIntegrator(3)], ids=type)
def test_a_constant_inertia_factored_once_gives_the_node_step_to_the_bit(system):
    # The free node step of a system with a constant inertia solves against
    # the factor its dynamics made once; at seeded points it must be the
    # per-node factor-and-solve of M to the bit.
    model = integrated(system, dt=0.01)
    assert model.dynamics._factor is not None
    M, S = system.mass_matrix(None), system.actuation()
    rng = np.random.default_rng(61)
    data = node_data(model)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, system.state.nx)
        u = rng.uniform(-5.0, 5.0, system.nu)
        q, v = x[: system.nq], x[system.nq :]
        expected = _cholesky_solve(_cholesky(M), S @ u - system.bias(q, v))
        model.calc(data, x, u)
        np.testing.assert_array_equal(data.dyn[0], expected)
    # A NaN control at node k still ends the rollout naming node k.
    running = [model] * 12
    problem = ShootingProblem(np.zeros(system.state.nx), running, TerminalActionModel(system.state))
    for k in (0, 5, 11):
        U = np.zeros((12, system.nu))
        U[k, -1] = np.nan
        with pytest.raises(NumericalFailure, match="non-finite dynamics terms") as excinfo:
            problem._sweep(None, U)
        assert excinfo.value.node == k


def test_linear_flow_jacobians_are_exact():
    dyn = lqr_chain_dynamics()
    dt = 0.05
    model = IntegratedActionModel(dyn, dt=dt)
    stack, data = one_node(model)
    rng = np.random.default_rng(61)
    x, u = rng.standard_normal(6), rng.standard_normal(3)
    model.calc(data, x, u)
    calc_diff_one(model, stack, x, u)
    np.testing.assert_array_equal(data.f_x, np.eye(6) + dt * dyn.A)
    np.testing.assert_array_equal(data.f_u, dt * dyn.B)
    np.testing.assert_allclose(data.xnext, x + dt * (dyn.A @ x + dyn.B @ u), atol=1e-15)


def test_one_step_error_is_second_order_in_dt():
    # One semi-implicit step on the double integrator against the exact
    # constant-acceleration solution: halving dt shrinks the error by ~4.
    system = DoubleIntegrator(dim=1)
    x0 = np.array([0.3, -0.2])
    u = np.array([1.7])

    def step_error(dt):
        model = integrated(system, dt)
        data = model.calc(node_data(model), x0, u)
        exact = np.array(
            [x0[0] + x0[1] * dt + 0.5 * u[0] * dt**2, x0[1] + u[0] * dt]
        )
        return np.linalg.norm(data.xnext - exact)

    for dt in (0.1, 0.05, 0.025):
        ratio = step_error(dt) / step_error(dt / 2.0)
        assert ratio >= 3.5


def test_integration_step_must_be_positive():
    for dt in (0.0, -0.01):
        with pytest.raises(DimensionMismatch, match="integration step must be positive"):
            integrated(DoubleIntegrator(dim=1), dt=dt)


# ---------------------------------------------------------------------------
# derivative sweep across every model family
# ---------------------------------------------------------------------------


def model_cases():
    monoped = PlanarMonoped()
    stance = ContactSet((Contact("foot", [0.0, 0.0], alpha=100.0, beta=20.0),))
    cases = []
    di = DoubleIntegrator(dim=2)
    cases.append(
        ("double_integrator", integrated(di, 0.05, default_costs(di.state, di.nu)))
    )
    pend = Pendulum(damping=0.1)
    cases.append(("pendulum", integrated(pend, 0.01, default_costs(pend.state, pend.nu))))
    dpend = DoublePendulum()
    cases.append(
        (
            "double_pendulum",
            integrated(
                dpend,
                0.01,
                default_costs(dpend.state, dpend.nu)
                + (FrameTranslationTracking(dpend, "tip", [0.2, -1.0], 3.0, 4, 2),),
            ),
        )
    )
    cases.append(("monoped_flight", integrated(monoped, 0.02)))
    cases.append(
        (
            "monoped_stance",
            IntegratedActionModel(
                ConstrainedMechanicalDynamics(monoped, stance),
                costs=(ComTracking(monoped, [0.0, 0.5], 1.0, 10, 2),),
                dt=0.02,
            ),
        )
    )
    chain = lqr_chain_dynamics()
    cases.append(
        (
            "lqr_chain",
            IntegratedActionModel(
                chain, costs=default_costs(chain.state, chain.nu), dt=0.05
            ),
        )
    )
    cases.append(
        ("terminal", TerminalActionModel(pend.state, default_costs(pend.state, 0)))
    )
    cases.append(("impulse_plastic", ImpulseActionModel(monoped, stance, 0.0)))
    cases.append(("impulse_bouncy", ImpulseActionModel(monoped, stance, 0.5)))
    pinned_tip = ContactSet((Contact("tip", [0.3, -1.8], alpha=50.0, beta=10.0),))
    cases.append(
        (
            "pinned_double_pendulum",
            IntegratedActionModel(
                ConstrainedMechanicalDynamics(dpend, pinned_tip),
                costs=default_costs(dpend.state, dpend.nu),
                dt=0.01,
            ),
        )
    )
    cases.append(("double_pendulum_impulse_plastic", ImpulseActionModel(dpend, pinned_tip, 0.0)))
    cases.append(("double_pendulum_impulse_bouncy", ImpulseActionModel(dpend, pinned_tip, 0.5)))
    return cases


@pytest.mark.parametrize(
    "model", [m for _, m in model_cases()], ids=[n for n, _ in model_cases()]
)
def test_calc_diff_matches_finite_differences(model):
    # Ten draws go through one stacked calc_diff, and each block's finite
    # differences through one stacked evaluation; every node's rows are checked.
    state = model.state
    rng = np.random.default_rng(62)
    points = []
    for _ in range(10):
        x = state.integrate(np.zeros(state.nx), random_tangent(state, rng, scale=0.4))
        points.append((x, rng.uniform(-2.0, 2.0, model.nu)))
    X = np.array([x for x, _ in points])
    U = np.array([u for _, u in points])
    stack = model.calc_stack(model.create_stack(len(points)), X, U)
    model.calc_diff(stack, X, U)
    steps = model.create_stack(len(points))

    def next_states(Xv, Uv):
        return model.calc_stack(steps, Xv, Uv).xnext.copy()

    blocks = [
        (stack.f_x, numdiff.jacobian(
            lambda Xv: next_states(Xv, U), X, input_manifold=state, output_manifold=state
        )),
        (stack.l_x, numdiff.jacobian(lambda Xv: model.cost(Xv, U)[:, None], X, input_manifold=state)[:, 0]),
    ]
    if model.nu:
        blocks += [
            (stack.f_u, numdiff.jacobian(lambda Uv: next_states(X, Uv), U, output_manifold=state)),
            (stack.l_u, numdiff.jacobian(lambda Uv: model.cost(X, Uv)[:, None], U)[:, 0]),
        ]
    for analytic, fd in blocks:
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-6)


def test_a_stacked_jacobian_equals_the_per_point_jacobians_to_the_bit():
    # Monoped states whose headings lie within a finite-difference step of
    # the wrap, so some central differences straddle it: one stacked
    # numdiff.jacobian of the forward step, in x and in u, holds each
    # point's own Jacobian to the bit.
    model = IntegratedActionModel(FreeMechanicalDynamics(PlanarMonoped()), dt=0.01)
    state = model.state
    rng = np.random.default_rng(30)
    headings = [np.pi - 5e-7, np.pi, -np.pi + 5e-7, 0.3]
    X = np.array([state.integrate(np.zeros(state.nx), random_tangent(state, rng)) for _ in headings])
    X[:, 2] = headings
    U = rng.standard_normal((len(X), model.nu))
    stack = model.create_stack(len(X))
    fd_x = numdiff.jacobian(
        lambda Xv: model.calc_stack(stack, Xv, U).xnext.copy(),
        X,
        input_manifold=state,
        output_manifold=state,
    )
    fd_u = numdiff.jacobian(
        lambda Uv: model.calc_stack(stack, X, Uv).xnext.copy(), U, output_manifold=state
    )
    assert fd_x.shape == (len(X), state.ndx, state.ndx)
    assert fd_u.shape == (len(X), state.ndx, model.nu)
    data = node_data(model)
    for x, u, stacked_x, stacked_u in zip(X, U, fd_x, fd_u):
        alone_x = numdiff.jacobian(
            lambda xv: model.calc(data, xv, u).xnext.copy(),
            x,
            input_manifold=state,
            output_manifold=state,
        )
        alone_u = numdiff.jacobian(
            lambda uv: model.calc(data, x, uv).xnext.copy(), u, output_manifold=state
        )
        assert stacked_x.tobytes() == alone_x.tobytes()
        assert stacked_u.tobytes() == alone_u.tobytes()


def hop_contact_models():
    """The bundled hop's two stance models and its impulse model."""
    problem = build_problem(load_scenario(bundled_scenario_path("monoped_hop")))
    return [
        model
        for model in problem.first_nodes()
        if isinstance(model, ImpulseActionModel)
        or isinstance(model.dynamics, ConstrainedMechanicalDynamics)
    ]


def test_derivative_blocks_are_views_written_in_place():
    # A node's named blocks are views of its row of the stack's
    # [0 | f_x | f_u] and [l_z | l_zz]; rebinding one raises, where it would
    # leave the stack unchanged.
    model = integrated(DoublePendulum(), 0.01)
    stack = model.create_stack(3)
    data = stack.nodes[1]
    data.f_u[:] = 1.0
    data.l_x[:] = 2.0
    data.l_uu[:] = 3.0
    np.testing.assert_array_equal(stack.Fz[1], np.hstack([np.zeros((4, 5)), np.ones((4, 2))]))
    np.testing.assert_array_equal(stack.Lz[1, :4, 0], np.full(4, 2.0))
    np.testing.assert_array_equal(stack.l_uu[1], np.full((2, 2), 3.0))
    assert not stack.Fz[[0, 2]].any() and not stack.Lz[[0, 2]].any()
    for name in ("f_x", "l_uu"):
        with pytest.raises(AttributeError):
            setattr(data, name, np.zeros_like(getattr(data, name)))
        with pytest.raises(AttributeError):
            setattr(stack, name, np.zeros_like(getattr(stack, name)))


class CrossTerm(CostTerm):
    """A cost term with a constant mixed block l_xu, which no bundled term has."""

    blocks = ("l_xu",)

    def __init__(self, l_xu):
        super().__init__(1.0, *l_xu.shape)
        self.l_xu = l_xu

    def residual(self, x, u):
        return np.zeros(x.shape[:-1] + (1,))

    def derivatives(self, x, u):
        return {"l_xu": self.l_xu}


def test_cost_derivatives_mirror_l_xu_into_l_ux():
    # The backward pass reads the u rows of [l_z | l_zz], so l_ux = l_xu^T.
    l_xu = np.random.default_rng(67).standard_normal((4, 2))
    model = integrated(DoublePendulum(), 0.5, (CrossTerm(l_xu),))
    X = np.zeros((3, 4))
    stack = model.create_stack(3)
    for data, x in zip(stack.nodes, X):
        model.calc(data, x, np.zeros(2))
    model.calc_diff(stack, X, np.zeros((3, 2)))
    np.testing.assert_array_equal(stack.l_xu, np.broadcast_to(0.5 * l_xu, (3, 4, 2)))
    np.testing.assert_array_equal(stack.l_ux, np.swapaxes(stack.l_xu, -1, -2))


@pytest.mark.parametrize("index", range(3), ids=["stance_0", "impulse", "stance_2"])
def test_stacked_contact_derivatives_equal_each_node_alone(index):
    # One stacked KKT elimination over n nodes gives each node the blocks of
    # that node's stack of one.
    model = hop_contact_models()[index]
    state, n = model.state, 7
    rng = np.random.default_rng(65 + index)
    X = np.array(
        [state.integrate(np.zeros(state.nx), random_tangent(state, rng, scale=0.3)) for _ in range(n)]
    )
    U = rng.uniform(-2.0, 2.0, (n, model.nu))
    stack = model.create_stack(n)
    for data, x, u in zip(stack.nodes, X, U):
        model.calc(data, x, u)
    model.calc_diff(stack, X, U)
    for data, x, u in zip(stack.nodes, X, U):
        alone, single = one_node(model)
        model.calc(single, x, u)
        calc_diff_one(model, alone, x, u)
        for block in ("f_x", "f_u", "l_x", "l_u", "l_xx", "l_xu", "l_uu"):
            expected = getattr(single, block)
            scale = np.max(np.abs(expected), initial=0.0)
            np.testing.assert_allclose(
                getattr(data, block), expected, rtol=1e-12, atol=1e-12 * scale
            )


@pytest.mark.parametrize(
    "model", [m for _, m in model_cases()], ids=[n for n, _ in model_cases()]
)
def test_cost_hessian_blocks_are_symmetric(model):
    state = model.state
    rng = np.random.default_rng(63)
    stack, data = one_node(model)
    x = state.integrate(np.zeros(state.nx), random_tangent(state, rng, scale=0.4))
    u = rng.uniform(-2.0, 2.0, model.nu)
    model.calc(data, x, u)
    calc_diff_one(model, stack, x, u)
    np.testing.assert_array_equal(data.l_xx, data.l_xx.T)
    np.testing.assert_array_equal(data.l_uu, data.l_uu.T)
    assert np.linalg.eigvalsh(data.l_xx).min() >= -1e-12
    if model.nu:
        assert np.linalg.eigvalsh(data.l_uu).min() >= -1e-12


def test_terminal_model_is_cost_only():
    pend = Pendulum()
    model = TerminalActionModel(pend.state, default_costs(pend.state, 0))
    stack, data = one_node(model)
    x = np.array([0.4, -0.3])
    model.calc(data, x)
    calc_diff_one(model, stack, x)
    np.testing.assert_array_equal(data.xnext, [0.4, -0.3])
    np.testing.assert_array_equal(data.f_x, np.eye(2))
    assert data.f_u.shape == (2, 0)


def test_impulse_model_freezes_configuration_and_absorbs_normal_speed():
    monoped = PlanarMonoped()
    stance = ContactSet((Contact("foot", [0.0, 0.0]),))
    model = ImpulseActionModel(monoped, stance, 0.0)
    rng = np.random.default_rng(64)
    x = np.concatenate([rng.uniform(-0.3, 0.3, 5), rng.uniform(-1.0, 1.0, 5)])
    data = model.calc(node_data(model), x)
    np.testing.assert_array_equal(data.xnext[:5], x[:5])
    q_plus, v_plus = monoped.split_state(data.xnext)
    jc = monoped.frame_jacobian(q_plus, "foot")
    np.testing.assert_allclose(jc @ v_plus, np.zeros(2), atol=1e-10)


def test_each_monoped_node_calc_evaluates_the_basis_once(monkeypatch):
    # Data sharing: every contact, free and impulse node of monoped_hop takes
    # its mass matrix, bias and frame terms from one basis evaluation.
    problem = build_problem(load_scenario(bundled_scenario_path("monoped_hop")))
    X, U = problem.constant_state_guess(), problem.zero_controls()
    calls = []
    basis = PlanarMonoped._basis
    monkeypatch.setattr(PlanarMonoped, "_basis", lambda self, q: calls.append(1) or basis(self, q))
    kinds = set()
    for k, model in enumerate(problem.running_models):
        kinds.add(type(getattr(model, "dynamics", model)).__name__)
        calls.clear()
        model.calc(problem.datas[k], X[k], U[k])
        assert len(calls) == 1, f"node {k}"
    assert kinds == {"ConstrainedMechanicalDynamics", "FreeMechanicalDynamics", "ImpulseActionModel"}


def test_impulse_model_rejects_unknown_frame():
    with pytest.raises(DimensionMismatch):
        ImpulseActionModel(PlanarMonoped(), ContactSet((Contact("wing", [0.0]),)))


def test_pinned_pendulum_tip_is_rank_deficient():
    # Two tip rows on one degree of freedom: neither a contact node nor an
    # impulse node can be built on it, which is why the derivative sweep pins
    # only the double pendulum's tip.
    pend = Pendulum()
    pinned_tip = ContactSet((Contact("tip", [0.0, -1.0], alpha=50.0, beta=10.0),))
    with pytest.raises(RankDeficientConstraint, match="2 constraint rows exceed the model's 1"):
        ConstrainedMechanicalDynamics(pend, pinned_tip)
    with pytest.raises(RankDeficientConstraint, match="2 constraint rows exceed the model's 1"):
        ImpulseActionModel(pend, pinned_tip, 0.0)


# A contact set no system can hold, as the scenario loader's faults name it
# (tests/test_scenarios_cli.py), and what a contact model's constructor
# raises for it.
UNHELD_CONTACTS = [
    (PlanarMonoped(), (Contact("wing", [0.0, 0.0]),), DimensionMismatch, "has no frame 'wing'"),
    (
        PlanarMonoped(),
        (Contact("foot", [0.0, 0.0]), Contact("hip", [0.0])),
        DimensionMismatch,
        "frame 'hip' has 2 coordinates, the reference 1",
    ),
    (
        DoublePendulum(),
        (Contact("tip", [0.3, -1.8]), Contact("tip", [0.3, -1.8])),
        RankDeficientConstraint,
        "4 constraint rows exceed the model's 2 velocity coordinates",
    ),
    (lqr_chain_dynamics(), (Contact("foot", [0.0, 0.0]),), DimensionMismatch, "mechanical model"),
]


@pytest.mark.parametrize(
    "system, contacts, error, message",
    UNHELD_CONTACTS,
    ids=["missing_frame", "reference_size", "rows_over_nv", "linear_flow"],
)
@pytest.mark.parametrize(
    "build", [ConstrainedMechanicalDynamics, ImpulseActionModel], ids=["contact", "impulse"]
)
def test_contact_models_reject_a_set_their_system_cannot_hold(
    system, contacts, error, message, build
):
    with pytest.raises(error, match=message):
        build(system, ContactSet(contacts))


# ---------------------------------------------------------------------------
# stacked forward steps
# ---------------------------------------------------------------------------


def random_points(model, n, rng):
    state = model.state
    X = np.array(
        [state.integrate(np.zeros(state.nx), random_tangent(state, rng, scale=0.4)) for _ in range(n)]
    )
    return X, rng.uniform(-2.0, 2.0, (n, model.nu))


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS + ("model_cases",))
def test_a_stack_stepped_node_by_node_equals_the_node_step_to_the_bit(name):
    # Every model's calc_stack is the node loop, so it leaves exactly the
    # bits of calc: on every run and the terminal node of each bundled
    # scenario, at the warm start and at seeded perturbations of the measured
    # state with random controls, and on every model of model_cases() at
    # seeded random points. Each stack holds one solution per dynamics size.
    if name == "model_cases":
        cases = [
            (model, *random_points(model, 12, np.random.default_rng(68))) for _, model in model_cases()
        ]
    else:
        scenario = load_scenario(bundled_scenario_path(name))
        problem = build_problem(scenario)
        X_warm, U_warm = build_warm_start(scenario, problem)
        X_warm, U_warm = np.array(X_warm), problem.stack_controls(U_warm)
        state, rng = problem.state, np.random.default_rng(73)
        warm = [(model, X_warm[lo:hi], U_warm[lo:hi, : model.nu]) for model, lo, hi in problem.runs]
        warm.append((problem.terminal_model, X_warm[problem.N :], np.zeros((1, 0))))
        kinds = {type(getattr(model, "dynamics", model)).__name__ for model, _, _ in warm}
        if name == "monoped_hop":
            assert {"ConstrainedMechanicalDynamics", "FreeMechanicalDynamics", "ImpulseActionModel"} <= kinds
        assert "LinearDynamics" in kinds or name != "lqr_chain"
        cases = []
        for model, X, U in warm:
            X_near = state.integrate(problem.x0_measured, 0.3 * rng.standard_normal((9, state.ndx)))
            cases += [(model, X, U), (model, X_near, rng.standard_normal((9, model.nu)))]
    for model, X, U in cases:
        stacked, node = model.create_stack(len(X)), model.create_stack(len(X))
        model.calc_stack(stacked, X, U)
        for data, x, u in zip(node.nodes, X, U):
            model.calc(data, x, u)
        assert len(stacked.dyn) == len(model.dyn_sizes)
        for actual, expected in zip((stacked.xnext, *stacked.dyn), (node.xnext, *node.dyn)):
            np.testing.assert_array_equal(actual, expected)


def assert_fails_as_the_node_steps(step, model, X, U):
    """`step()` raises what calc raises on the first failing node of X, U,
    with that node's row as the error's `row`, and passes where every node
    passes. Returns whether a node failed."""
    failure = None
    with np.errstate(over="ignore", invalid="ignore"):
        for row, (x, u) in enumerate(zip(X, U)):
            try:
                model.calc(node_data(model), x, u)
            except FddpError as exc:
                failure = row, exc
                break
        if failure is None:
            step()
            return False
        with pytest.raises(type(failure[1])) as raised:
            step()
    assert str(raised.value) == str(failure[1])
    assert raised.value.row == failure[0]
    return True


def assert_stack_fails_as_the_node_steps(model, X, U):
    return assert_fails_as_the_node_steps(
        lambda: model.calc_stack(model.create_stack(len(X)), X, U), model, X, U
    )


def assert_warm_start_fails_as_the_node_steps(model, X):
    # The warm start's nodes step at rest (v = 0) at zero control.
    system = model.dynamics.system
    at_rest = np.concatenate([X[:, : system.nq], np.zeros((len(X), system.nv))], 1)
    return assert_fails_as_the_node_steps(
        lambda: quasi_static_control(model, X), model, at_rest, np.zeros((len(X), model.nu))
    )


@pytest.mark.parametrize(
    "model",
    [m for n, m in model_cases() if n != "terminal"],
    ids=[n for n, _ in model_cases() if n != "terminal"],
)
def test_calc_stack_raises_what_the_first_failing_node_raises(model):
    # Rows 2 and 4 of six poisoned (a NaN control, or a NaN velocity on a
    # node without controls, then an overflowing one), which fails at row 2;
    # and row 3 alone overflowing, whose inputs are finite, so only a test
    # of the results can find it (where the node's calc does).
    rng = np.random.default_rng(70)
    for rows in (((2, np.nan), (4, 1e308)), ((3, 1e308),)):
        X, U = random_points(model, 6, rng)
        for row, value in rows:
            if model.nu:
                U[row] = value
            else:
                X[row, -1] = value
        failed = assert_stack_fails_as_the_node_steps(model, X, U)
        assert failed or len(rows) == 1


MECHANICAL_CASES = [
    (n, m) for n, m in model_cases() if m.nu and not getattr(m, "first_order", True)
]


@pytest.mark.parametrize(
    "model", [m for _, m in MECHANICAL_CASES], ids=[n for n, _ in MECHANICAL_CASES]
)
def test_warm_start_raises_what_the_first_failing_node_raises(model):
    # Rows 2 and 4 of six poisoned (a NaN in the last configuration
    # coordinate, an angle wherever the system has one, then an overflowing
    # first coordinate), which fails at row 2; and row 3 alone far out,
    # whose inputs stay finite, so on a contact run only a test of the
    # results can find it. The warm start zeroes the velocities and the
    # controls, so only the configuration can poison its nodes; the double
    # integrator's acceleration at rest reads none of it.
    rng = np.random.default_rng(70)
    nq = model.dynamics.system.nq
    for rows in (((2, nq - 1, np.nan), (4, 0, 1e308)), ((3, 0, 1e306),)):
        X = random_points(model, 6, rng)[0]
        for row, coordinate, value in rows:
            X[row, coordinate] = value
        failed = assert_warm_start_fails_as_the_node_steps(model, X)
        assert failed or len(rows) == 1 or isinstance(model.dynamics.system, DoubleIntegrator)


def test_warm_start_tests_the_rank_of_the_constraints():
    # The monoped's foot pinned twice, four rows of rank two: the operational-
    # space inertia is singular and its Cholesky fails. The double
    # pendulum's tip stretched to an elbow angle of 1e-6 factors, with a
    # pivot of 1.8e-12, below RANK_PIVOT_TOL. Either way the contact run's
    # warm start raises the node's rank failure at its row, and so does the
    # impulse node's calc_stack.
    foot = Contact("foot", [0.0, 0.0], alpha=50.0, beta=10.0)
    monoped_x = np.array([[0.0, 0.6, 0.1, 0.5, -1.0, 0.2, 0.0, 0.0, 0.0, 0.0]])
    for system, contacts, X in (
        (PlanarMonoped(), (foot, foot), monoped_x),
        (
            DoublePendulum(),
            (Contact("tip", [0.3, -1.8], alpha=50.0, beta=10.0),),
            [[0.2, 0.8, 0.0, 0.0], [0.4, 1e-6, 0.1, -0.2]],
        ),
    ):
        pinned = ContactSet(contacts)
        X = np.array(X)
        constrained = IntegratedActionModel(ConstrainedMechanicalDynamics(system, pinned), dt=0.01)
        impulse = ImpulseActionModel(system, pinned, 0.0)
        for model in (constrained, impulse):
            with pytest.raises(RankDeficientConstraint):
                model.calc(node_data(model), X[-1], np.ones(model.nu))
        assert assert_warm_start_fails_as_the_node_steps(constrained, X)
        assert assert_stack_fails_as_the_node_steps(impulse, X, np.zeros((len(X), 0)))


class IndefiniteMonoped(PlanarMonoped):
    """A monoped whose mass matrix has M[0, 0] negated: finite, and solvable
    by LU, but no Cholesky factor exists."""

    def forward_terms(self, q, v, frames=()):
        M, *rest = super().forward_terms(q, v, frames)
        M = M.copy()
        M[..., 0, 0] *= -1.0
        return (M, *rest)


def test_warm_start_tests_the_inertia_factorization():
    # The node solves factor M by Cholesky and fail on an indefinite one; the
    # warm start's LU solve would not, so its checked solve tests M itself,
    # on free and stance runs; the impulse node's calc_stack fails as its
    # calc does.
    system = IndefiniteMonoped()
    stance = ContactSet((Contact("foot", [0.0, 0.0]),))
    x = system.nominal_state()
    X = np.tile(x, (3, 1))
    # The premise: M is indefinite but LU solves it, and the foot's rows
    # still give a positive definite Mhat, so only the M test can fail.
    M, _, _, Jc, _ = system.forward_terms(x[: system.nq], x[system.nq :], stance.frames)
    assert np.linalg.eigvalsh(M)[0] < 0.0
    M_inv_Jt = np.linalg.solve(M, Jc.T)
    assert np.all(np.isfinite(M_inv_Jt))
    assert np.linalg.eigvalsh(Jc @ M_inv_Jt)[0] > 0.0
    for model in (
        integrated(system, 0.01),
        IntegratedActionModel(ConstrainedMechanicalDynamics(system, stance), dt=0.01),
    ):
        assert assert_warm_start_fails_as_the_node_steps(model, X)
    impulse = ImpulseActionModel(system, stance, 0.0)
    assert assert_stack_fails_as_the_node_steps(impulse, X, np.zeros((3, 0)))


def test_node_rows_are_views_of_the_stack():
    # calc writes its forward step and solution into the node's row of the
    # stack, where calc_diff and the gaps read them; rebinding either raises.
    model = IntegratedActionModel(
        ConstrainedMechanicalDynamics(PlanarMonoped(), ContactSet((Contact("foot", [0.0, 0.0]),))),
        dt=0.02,
    )
    stack = model.create_stack(3)
    x = np.concatenate([np.array([0.0, 0.6, 0.1, 0.4, -0.8]), np.zeros(5)])
    model.calc(stack.nodes[1], x, np.array([0.5, -0.5]))
    data = node_data(model)
    model.calc(data, x, np.array([0.5, -0.5]))
    np.testing.assert_array_equal(stack.xnext[1], data.xnext)
    for part, alone in zip(stack.dyn, data.dyn):
        np.testing.assert_array_equal(part[1], alone)
    assert not stack.xnext[[0, 2]].any()
    for name in ("xnext", "dyn"):
        with pytest.raises(AttributeError):
            setattr(stack.nodes[1], name, getattr(data, name))


# ---------------------------------------------------------------------------
# cost terms
# ---------------------------------------------------------------------------


def test_state_regularization_gradient_vanishes_at_reference():
    pend = Pendulum()
    ref = np.array([0.7, -0.2])
    model = integrated(pend, 0.05, (StateRegularization(pend.state, ref, 2.0, 1),))
    stack, data = one_node(model)
    u = np.array([0.3])
    model.calc(data, ref, u)
    calc_diff_one(model, stack, ref, u)
    np.testing.assert_array_equal(data.l_x, np.zeros(2))
    assert model.cost(ref[None], u[None])[0] == 0.0


@pytest.mark.parametrize("name", ["lqr_chain", "pendulum_swingup", "monoped_hop"])
def test_stacked_cost_equals_the_sum_of_term_values(name):
    # One stacked call gives each node of every distinct model (the terminal
    # one too) the sum of its terms' 0.5 w ||r||^2, times dt on integrated nodes.
    problem = build_problem(load_scenario(bundled_scenario_path(name)))
    state, n = problem.state, 9
    rng = np.random.default_rng(66)
    for model in [*problem.first_nodes(), problem.terminal_model]:
        X = np.array(
            [state.integrate(problem.x0_measured, 0.3 * rng.standard_normal(state.ndx)) for _ in range(n)]
        )
        U = rng.standard_normal((n, model.nu))
        expected = [
            getattr(model, "dt", 1.0) * sum(term_value(term, x, u) for term in model.costs)
            for x, u in zip(X, U)
        ]
        costs = model.cost(X, U)
        assert costs.shape == (n,)
        np.testing.assert_allclose(costs, expected, rtol=1e-14, atol=0.0)


def test_integrated_cost_value_is_scaled_by_dt():
    di = DoubleIntegrator(dim=1)
    model = integrated(di, 0.1, (ControlRegularization(1, 2.0, 2),))
    np.testing.assert_allclose(
        model.cost(np.zeros((1, 2)), np.array([[3.0]])), [0.1 * 0.5 * 2.0 * 9.0]
    )


def test_cost_values_are_nonnegative():
    dpend = DoublePendulum()
    terms = [
        StateRegularization(dpend.state, [0.3, -0.1, 0.0, 0.0], 2.0, 2),
        StateRegularization(
            dpend.state, np.zeros(dpend.state.nx), 1.0, 2, scales=[0.5, 2.0, 1.0, 0.1]
        ),
        ControlRegularization(2, 0.1, 4, reference=[1.0, -1.0]),
        FrameTranslationTracking(dpend, "tip", [0.5, -1.5], 3.0, 4, 2),
        ComTracking(dpend, [0.0, -0.8], 1.0, 4, 2),
    ]
    # A hundred draws as one stack, through a node model of each term alone.
    rng = np.random.default_rng(65)
    X = rng.uniform(-3.0, 3.0, (100, 4))
    U = rng.uniform(-5.0, 5.0, (100, 2))
    for term in terms:
        assert (integrated(dpend, 1.0, (term,)).cost(X, U) >= 0.0).all()


def test_cost_terms_return_only_the_blocks_of_their_argument():
    # Each residual depends on x alone or on u alone; the blocks a term leaves
    # out are exactly zero, and the ones it returns match the full product.
    dpend = DoublePendulum()
    x, u = np.array([0.4, -0.7, 1.1, 0.3]), np.array([0.8, -1.2])
    state_terms = [
        StateRegularization(dpend.state, [0.3, -0.1, 0.0, 0.0], 2.0, 2),
        FrameTranslationTracking(dpend, "tip", [0.5, -1.5], 3.0, 4, 2),
        ComTracking(dpend, [0.0, -0.8], 1.0, 4, 2),
    ]
    for term in state_terms:
        blocks = term.derivatives(x, u)
        assert set(blocks) == {"l_x", "l_xx"}
        j = numdiff.jacobian(lambda xv: np.atleast_1d(term_value(term, xv, u)), x)[0]
        np.testing.assert_allclose(blocks["l_x"], j, atol=1e-6)
    control = ControlRegularization(2, 0.1, 4, reference=[1.0, -1.0])
    blocks = control.derivatives(x, u)
    assert set(blocks) == {"l_u", "l_uu"}
    np.testing.assert_allclose(blocks["l_u"], 0.1 * (u - [1.0, -1.0]))
    np.testing.assert_allclose(blocks["l_uu"], 0.1 * np.eye(2))


def test_cost_constructors_check_weight_and_target_shape():
    pend, monoped = Pendulum(), PlanarMonoped()
    with pytest.raises(DimensionMismatch, match="cost weight must be >= 0"):
        StateRegularization(pend.state, [0.0, 0.0], -1.0, 1)
    with pytest.raises(DimensionMismatch, match="state cost scales must be >= 0"):
        StateRegularization(pend.state, [0.0, 0.0], 1.0, 1, scales=[1.0, -1.0])
    with pytest.raises(DimensionMismatch, match=r"placement has shape \(2,\), target \(3,\)"):
        FrameTranslationTracking(pend, "tip", [0.0, -1.0, 0.0], 1.0, 2, 1)
    # A center-of-mass target of the wrong size is rejected here, not by a
    # broadcast in the first cost evaluation.
    with pytest.raises(DimensionMismatch, match=r"center of mass has shape \(2,\), target \(3,\)"):
        ComTracking(monoped, [0.0, 0.5, 0.0], 1.0, 10, 2)
    with pytest.raises(DimensionMismatch, match="no center-of-mass model"):
        ComTracking(DoubleIntegrator(), [0.0, 0.0], 1.0, 4, 2)


# (argument, constructor from a value of that argument, a valid value): each
# argument must be finite, whichever entry carries the NaN or infinity.
FINITE_ARGUMENTS = [
    ("control reference", lambda v: ControlRegularization(1, 1.0, 2, reference=v), [0.0]),
    ("state reference", lambda v: StateRegularization(VectorSpace(2), v, 1.0, 1), [0.0, 0.0]),
    ("contact reference", lambda v: Contact("tip", v), [0.0]),
    ("A", lambda v: LinearDynamics(v, [[1.0]]), [[1.0]]),
    ("B", lambda v: LinearDynamics([[1.0]], v), [[1.0]]),
    ("c", lambda v: LinearDynamics([[1.0]], [[1.0]], c=v), [0.0]),
    ("target", lambda v: ComTracking(PlanarMonoped(), v, 1.0, 10, 2), [0.0, 0.7]),
    ("x0", lambda v: ShootingProblem(v, *pendulum_models()), [0.1, 0.0]),
]


def pendulum_models():
    problem = pendulum_problem(n=2)
    return problem.running_models, problem.terminal_model


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, build, valid", FINITE_ARGUMENTS, ids=[row[0] for row in FINITE_ARGUMENTS])
def test_constructors_reject_non_finite_arguments(name, build, valid, bad):
    build(valid)
    flat = np.array(valid, float)
    for i in range(flat.size):
        value = flat.copy()
        value.flat[i] = bad
        with pytest.raises((ParameterError, DimensionMismatch), match=f"^{name} must be finite, got "):
            build(value.tolist())


# Each public class that takes a number, as (constructor from keyword
# arguments, a valid argument set, {numeric argument: the name its error
# gives}): the argument's own name, or the group name the constructor uses.
NUMERIC_CONSTRUCTORS = {
    "ComTracking": (
        lambda **a: ComTracking(PlanarMonoped(), ndx=10, nu=2, **a),
        {"target": [0.0, 0.7], "weight": 1.0},
        {"target": "target", "weight": "cost weight"},
    ),
    "Contact": (
        lambda **a: Contact("foot", **a),
        {"reference": [0.0, 0.0], "alpha": 10.0, "beta": 1.0},
        {"reference": "contact reference", "alpha": "Baumgarte gains", "beta": "Baumgarte gains"},
    ),
    "ControlRegularization": (
        lambda **a: ControlRegularization(1, ndx=2, **a),
        {"weight": 1.0, "reference": [0.0]},
        {"weight": "cost weight", "reference": "control reference"},
    ),
    "CostTerm": (lambda **a: CostTerm(ndx=2, nu=1, **a), {"weight": 1.0}, {"weight": "cost weight"}),
    "FrameTranslationTracking": (
        lambda **a: FrameTranslationTracking(Pendulum(), "tip", ndx=2, nu=1, **a),
        {"target": [0.0, -1.0], "weight": 1.0},
        {"target": "target", "weight": "cost weight"},
    ),
    "ImpulseActionModel": (
        lambda **a: ImpulseActionModel(PlanarMonoped(), ContactSet((Contact("foot", [0.0, 0.0]),)), **a),
        {"restitution": 0.5},
        {"restitution": "restitution"},
    ),
    "IntegratedActionModel": (
        lambda **a: integrated(Pendulum(), **a), {"dt": 0.01}, {"dt": "integration step"}
    ),
    "ShootingProblem": (
        lambda **a: ShootingProblem(a["x0"], *pendulum_models()), {"x0": [0.1, 0.0]}, {"x0": "x0"}
    ),
    "StateRegularization": (
        lambda **a: StateRegularization(VectorSpace(2), nu=1, **a),
        {"reference": [0.0, 0.0], "weight": 1.0, "scales": [1.0, 2.0]},
        {"reference": "state reference", "weight": "cost weight", "scales": "state cost scales"},
    ),
}

# The public classes that take no number, or take only counts, and why.
NO_NUMERIC_ARGUMENT = {
    "ActionData": "views of a stack's rows",
    "ActionDataStack": "a model and a node count",
    "ActionModelBase": "a manifold, a control count and cost terms",
    "CompositeManifold": "manifolds",
    "ConstrainedMechanicalDynamics": "a system and contacts",
    "ContactSet": "contacts",
    "FreeMechanicalDynamics": "a system",
    "Manifold": "a size and angle indices",
    "Rotation2D": "nothing",
    "Scenario": "a record that load_scenario fills from checked fields",
    "SolveReport": "a record of a solve",
    "SolverWorkspace": "a problem",
    "TerminalActionModel": "a manifold and cost terms",
    "TraceRow": "a record of an iteration",
    "VectorSpace": "a size",
}

# Each model id of build_system with a valid parameter set.
MODEL_PARAMS = {
    "double_integrator": {"dim": 2},
    "pendulum": {"mass": 1.0, "length": 1.0, "damping": 0.1, "gravity": 9.81},
    "double_pendulum": {
        "m1": 1.0, "m2": 1.0, "l1": 1.0, "l2": 1.0, "lc1": 0.5, "lc2": 0.5, "gravity": 9.81,
    },
    "planar_monoped": {
        "base_mass": 1.0, "base_inertia": 0.05, "thigh_mass": 0.25, "shank_mass": 0.15,
        "thigh_length": 0.35, "shank_length": 0.35, "gravity": 9.81,
    },
    "lqr_chain": {"masses": 3, "stiffness": 4.0, "damping": 0.4},
}


def with_entry(value, i, bad):
    """value with its i-th entry (the value itself for a scalar) set to bad."""
    if np.ndim(value) == 0:
        return bad
    flat = np.array(value, float)
    flat.flat[i] = bad
    return flat.tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls", sorted(NUMERIC_CONSTRUCTORS))
def test_every_numeric_constructor_names_a_non_finite_argument(cls, bad):
    # A non-finite restitution fails its range check; every other number
    # fails the finiteness check. Each error shows the bad value among the
    # values it reports.
    build, valid, names = NUMERIC_CONSTRUCTORS[cls]
    build(**valid)
    for argument, name in names.items():
        wording = r"lie in \[0, 1\]" if argument == "restitution" else "be finite"
        for i in range(np.size(valid[argument])):
            value = with_entry(valid[argument], i, bad)
            message = rf"^{name} must {wording}, got (.*[\[ ])?{re.escape(str(bad))}\b"
            with pytest.raises((DimensionMismatch, ParameterError), match=message):
                build(**dict(valid, **{argument: value}))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("model_id", sorted(MODEL_PARAMS))
def test_every_model_parameter_is_named_when_not_finite(model_id, bad):
    # The scenario loader reports a ParameterError at model.params.<name>,
    # so the name must be the parameter's own. An infinity passes a range
    # check such as "> 0", so a count fails as not whole and every other
    # parameter as not finite; the lqr chain's stiffness is checked with its
    # double, as a list.
    valid = MODEL_PARAMS[model_id]
    build_system(model_id, valid)
    for parameter in valid:
        wording = "a whole number >= 1" if parameter in ("dim", "masses") else "finite"
        message = rf"^{parameter} must be {wording}, got \[?{bad}"
        with pytest.raises(ParameterError, match=message) as excinfo:
            build_system(model_id, dict(valid, **{parameter: bad}))
        assert excinfo.value.name == parameter


# Finite parameters whose derived constants overflow (or, for an inertia,
# underflow), and the parameter each must be reported at: a factor of the
# product that leaves the finite range.
DERIVED_OVERFLOWS = {
    "pendulum-mass": ("pendulum", {"mass": 1e308, "length": 10.0}, "mass"),
    "pendulum-length": ("pendulum", {"length": 1e200}, "length"),
    "pendulum-gravity": ("pendulum", {"mass": 10.0, "gravity": 1e308}, "gravity"),
    "pendulum-mass-underflow": ("pendulum", {"mass": 1e-200, "length": 1e-100}, "mass"),
    "double_pendulum-m1": ("double_pendulum", {"m1": 1e308, "m2": 1e308}, "m1"),
    "double_pendulum-l2": ("double_pendulum", {"l2": 1e200}, "l2"),
    "double_pendulum-lc1": ("double_pendulum", {"lc1": 1e300}, "lc1"),
    "planar_monoped-base_mass": ("planar_monoped", {"base_mass": 1e308, "thigh_mass": 1e308}, "base_mass"),
    "planar_monoped-shank_length": ("planar_monoped", {"shank_length": 1e200}, "shank_length"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(DERIVED_OVERFLOWS))
def test_every_model_parameter_is_named_when_a_derived_constant_overflows(case):
    # Each parameter is finite, so only the constructor's check of the
    # constants it derives can catch these, without a numpy warning; a
    # constant inertia that reached a node step infinite would make every
    # acceleration exactly zero.
    model_id, params, name = DERIVED_OVERFLOWS[case]
    with pytest.raises(ParameterError, match=f"^{name} ") as excinfo:
        build_system(model_id, params)
    assert excinfo.value.name == name


def test_the_numeric_constructor_tables_cover_every_class_and_model_id():
    classes = {name for name in fddp.__all__ if isinstance(getattr(fddp, name), type)}
    exceptions = {name for name in classes if issubclass(getattr(fddp, name), BaseException)}
    assert set(NUMERIC_CONSTRUCTORS).isdisjoint(NO_NUMERIC_ARGUMENT)
    assert classes - exceptions == set(NUMERIC_CONSTRUCTORS) | set(NO_NUMERIC_ARGUMENT)
    builders = {**SYSTEM_BUILDERS, "lqr_chain": lqr_chain_dynamics}
    assert set(MODEL_PARAMS) == set(builders)
    for model_id, builder in builders.items():
        assert set(MODEL_PARAMS[model_id]) == set(inspect.signature(builder).parameters), model_id


def test_lqr_chain_stiffness_must_be_finite_when_doubled():
    # Its diagonal holds -2 * stiffness: a stiffness that is finite but
    # whose double overflows is reported at stiffness, not at the matrix A.
    for stiffness in (np.nan, np.inf, -np.inf, 1e308, -1e308):
        with pytest.raises(ParameterError, match="^stiffness must be finite") as excinfo:
            build_system("lqr_chain", {"stiffness": stiffness})
        assert excinfo.value.name == "stiffness"
    for stiffness in (0.0, -3.0, 8.9e307):
        chain = build_system("lqr_chain", {"masses": 2, "stiffness": stiffness})
        assert chain.A[2, 0] == -2.0 * stiffness


def test_mismatched_cost_shapes_are_rejected():
    pend = Pendulum()
    with pytest.raises(DimensionMismatch):
        integrated(pend, 0.05, (ControlRegularization(3, 1.0, 2),))


# ---------------------------------------------------------------------------
# model/data separation
# ---------------------------------------------------------------------------


def test_two_data_containers_do_not_interfere():
    pend = Pendulum(damping=0.1)
    model = integrated(pend, 0.01, default_costs(pend.state, 1))
    (s1, d1), (s2, d2) = one_node(model), one_node(model)
    x1, u1 = np.array([0.5, 0.1]), np.array([0.2])
    x2, u2 = np.array([-1.0, 2.0]), np.array([-0.7])
    model.calc(d1, x1, u1)
    first = d1.xnext.copy()
    model.calc(d2, x2, u2)
    calc_diff_one(model, s2, x2, u2)
    np.testing.assert_array_equal(d1.xnext, first)
    calc_diff_one(model, s1, x1, u1)
    s_fresh, fresh = one_node(model)
    model.calc(fresh, x1, u1)
    calc_diff_one(model, s_fresh, x1, u1)
    np.testing.assert_array_equal(d1.f_x, fresh.f_x)
    np.testing.assert_array_equal(d1.l_x, fresh.l_x)


# ---------------------------------------------------------------------------
# quasi-static controls
# ---------------------------------------------------------------------------


def test_quasi_static_control_examples():
    di_model = integrated(DoubleIntegrator(dim=2), 0.05)
    U, norms = quasi_static_control(di_model, [[0.3, -0.2, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
    np.testing.assert_allclose(U, np.zeros((2, 2)), atol=1e-9)
    np.testing.assert_array_equal(norms, [0.0, 0.0])
    # The pendulum held level: u = +-m g l.
    pend_model = integrated(Pendulum(), 0.05)
    U, norms = quasi_static_control(pend_model, [[np.pi / 2, 0.0], [-np.pi / 2, 0.0]])
    np.testing.assert_allclose(U, [[9.81], [-9.81]], atol=1e-6)
    assert np.all(norms <= 1e-6)
    dp_model = integrated(DoublePendulum(), 0.05)
    np.testing.assert_allclose(
        quasi_static_control(dp_model, [[0.0, 0.0, 0.0, 0.0]])[0], [[0.0, 0.0]], atol=1e-9
    )
    # A first-order flow is held where A x + B u + c = 0: u = -B^-1 (A x + c).
    A, B, c = np.array([[0.0, 1.0], [-2.0, 0.5]]), np.array([[1.0, 0.0], [0.0, 2.0]]), np.ones(2)
    flow_model = IntegratedActionModel(LinearDynamics(A, B, c), dt=0.1)
    x = np.array([0.4, -0.3])
    U, norms = quasi_static_control(flow_model, [x])
    np.testing.assert_allclose(U[0], -np.linalg.solve(B, A @ x + c), atol=1e-9)
    assert norms[0] <= 1e-6


def test_quasi_static_control_on_control_free_node_is_empty():
    model = TerminalActionModel(Pendulum().state)
    U, norms = quasi_static_control(model, [[0.1, 0.0]])
    assert U.shape == (1, 0) and norms.shape == (1,)


# The angles of each bundled system with controls: a NaN there reaches the
# accelerations at rest of every node kind (a base position reaches only the
# contact nodes).
ANGLES = {"monoped_hop": (2, 3, 4), "pendulum_swingup": (0,)}


@pytest.mark.parametrize("name", sorted(ANGLES))
def test_quasi_static_control_raises_what_acceleration_raises_on_a_bad_row(name):
    # A seeded row of each run with controls gets a NaN in a seeded angle
    # and, on contact runs, an overflowing base position: the run's
    # checked solve at rest gives up, and its node steps raise exactly what
    # the row's own acceleration at rest raises.
    scenario = load_scenario(bundled_scenario_path(name))
    problem = build_problem(scenario)
    X_warm = np.array(build_warm_start(scenario, problem)[0])
    rng = np.random.default_rng(71)
    for model, lo, hi in problem.runs:
        if model.nu == 0:
            continue
        system = model.dynamics.system
        bad = [(int(rng.choice(ANGLES[name])), np.nan)]
        if isinstance(model.dynamics, ConstrainedMechanicalDynamics):
            bad.append((0, 1e308))
        for coordinate, value in bad:
            X = X_warm[lo:hi].copy()
            row = int(rng.integers(hi - lo))
            X[row, coordinate] = value
            at_rest = np.concatenate([X[row, : system.nq], np.zeros(system.nv)])
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(FddpError) as node_failure:
                    model.dynamics.acceleration(at_rest, np.zeros(model.nu), node_data(model))
                with pytest.raises(type(node_failure.value)) as group_failure:
                    quasi_static_control(model, X)
            assert str(group_failure.value) == str(node_failure.value)


def test_quasi_static_failure_on_unsupported_base():
    # Free-flying monoped: no combination of leg torques cancels gravity on
    # the unactuated base, so the residual cannot reach the tolerance and
    # the node falls back to zero control.
    model = integrated(PlanarMonoped(), 0.02)
    U, norms = quasi_static_control(model, np.zeros((1, 10)))
    np.testing.assert_array_equal(U, np.zeros((1, 2)))
    assert norms[0] > 1e-6


# ---------------------------------------------------------------------------
# shooting problem and rollout gaps
# ---------------------------------------------------------------------------


def pendulum_problem(n=20, dt=0.02):
    pend = Pendulum(damping=0.1)
    costs = default_costs(pend.state, 1)
    running = [IntegratedActionModel(FreeMechanicalDynamics(pend), costs, dt) for _ in range(n)]
    terminal = TerminalActionModel(pend.state, (StateRegularization(pend.state, [np.pi, 0.0], 10.0, 0),))
    return ShootingProblem(np.array([0.1, 0.0]), running, terminal)


def test_constant_state_guess_without_gravity_has_zero_gaps():
    di = DoubleIntegrator(dim=2)
    running = [integrated(di, 0.05, default_costs(di.state, 2)) for _ in range(10)]
    problem = ShootingProblem(
        np.array([0.4, -0.1, 0.0, 0.0]), running, TerminalActionModel(di.state)
    )
    X = problem.constant_state_guess()
    U = problem.zero_controls()
    _, gaps = problem.calc(X, U)
    for gap in gaps:
        np.testing.assert_array_equal(gap, np.zeros(4))


def test_linear_problem_gaps_match_dense_evaluation():
    dyn = lqr_chain_dynamics()
    dt = 0.05
    running = [
        IntegratedActionModel(dyn, default_costs(dyn.state, 3), dt)
        for _ in range(8)
    ]
    x0 = np.arange(6.0) / 10.0
    problem = ShootingProblem(x0, running, TerminalActionModel(dyn.state))
    rng = np.random.default_rng(67)
    X = [rng.standard_normal(6) for _ in range(9)]
    U = [rng.standard_normal(3) for _ in range(8)]
    _, gaps = problem.calc(X, U)
    np.testing.assert_allclose(gaps[0], x0 - X[0], atol=1e-13)
    eye_a = np.eye(6) + dt * dyn.A
    for k in range(8):
        dense = eye_a @ X[k] + dt * dyn.B @ U[k] + dt * dyn.c - X[k + 1]
        np.testing.assert_allclose(gaps[k + 1], dense, atol=1e-12)


def test_rollout_failure_reports_the_node():
    # The additive drift is near the floating-point ceiling, so the second
    # step overflows: the failure must name node 1.
    big = LinearDynamics([[40.0]], [[0.0]], c=[1.0e308])
    running = [IntegratedActionModel(big, dt=0.05) for _ in range(4)]
    problem = ShootingProblem(
        np.array([0.0]), running, TerminalActionModel(big.state)
    )
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure) as excinfo:
        problem.rollout(problem.zero_controls())
    assert excinfo.value.node == 1


def test_guesses_are_checked_where_they_enter():
    # solve, calc and rollout check the guess once and name the offending node;
    # the models below them take what they are handed.
    problem = pendulum_problem(n=5)
    X, U = problem.constant_state_guess(), problem.zero_controls()
    short_x = X[:3] + [np.zeros(3)] + X[4:]
    text_x = X[:1] + [[0.0, "a"]] + X[2:]
    wide_u = U[:2] + [np.zeros(2)] + U[3:]
    huge_u = U[:3] + [[10**400]] + U[4:]
    for entry in (problem.calc, lambda X, U: solve(problem, X, U, max_iters=1)):
        with pytest.raises(DimensionMismatch, match=r"X\[3\]: point must have shape \(2,\)"):
            entry(short_x, U)
        with pytest.raises(DimensionMismatch, match=r"X\[1\]: could not convert"):
            entry(text_x, U)
        with pytest.raises(DimensionMismatch, match=r"U\[2\]: control must have shape \(1,\)"):
            entry(X, wide_u)
        with pytest.raises(DimensionMismatch, match=r"U\[3\]: int too large to convert to float"):
            entry(X, huge_u)
    with pytest.raises(DimensionMismatch, match=r"U\[2\]: control must have shape \(1,\)"):
        problem.rollout(wide_u)


def test_problem_validates_guess_lengths():
    problem = pendulum_problem(n=5)
    with pytest.raises(DimensionMismatch):
        problem.calc([np.zeros(2)] * 5, [np.zeros(1)] * 5)
    with pytest.raises(DimensionMismatch):
        problem.rollout([np.zeros(1)] * 4)


def test_problem_accepts_manifolds_that_behave_the_same():
    # A manifold is its size and its angle coordinates, however it was built:
    # running nodes on R^2 and a terminal on R^1 x R^1 make one problem.
    flow = IntegratedActionModel(LinearDynamics(np.eye(2), np.ones((2, 1))), dt=0.1)
    terminal = TerminalActionModel(CompositeManifold([VectorSpace(1), VectorSpace(1)]))
    assert ShootingProblem(np.zeros(2), [flow] * 3, terminal).state is terminal.state
    # The monoped's heading sits at coordinate 2 of its ten; a terminal with
    # that angle is accepted, one without it or with it elsewhere is not.
    hop = integrated(PlanarMonoped(), 0.02)
    for parts, accepted in (
        ([VectorSpace(2), Rotation2D(), VectorSpace(7)], True),
        ([VectorSpace(10)], False),
        ([Rotation2D(), VectorSpace(9)], False),
        ([VectorSpace(2), Rotation2D(), VectorSpace(6)], False),
    ):
        terminal = TerminalActionModel(CompositeManifold(parts))
        if accepted:
            ShootingProblem(np.zeros(10), [hop] * 2, terminal)
        else:
            with pytest.raises(DimensionMismatch, match="running model 0 lives on a different"):
                ShootingProblem(np.zeros(terminal.state.nx), [hop] * 2, terminal)


def test_problem_compares_each_model_manifold_once(monkeypatch):
    # Two distinct models on the pendulum's manifold, one on the double
    # pendulum's, shared across interleaved nodes: the manifold check runs
    # once per distinct model and names the first node of the foreign one.
    pend, dpend = integrated(Pendulum(), 0.02), integrated(DoublePendulum(), 0.02)
    other = integrated(Pendulum(), 0.02)
    terminal = TerminalActionModel(pend.state)
    comparisons = []
    eq = type(terminal.state).__eq__
    monkeypatch.setattr(
        type(terminal.state), "__eq__", lambda a, b: comparisons.append(1) or eq(a, b)
    )
    ShootingProblem(np.zeros(2), [pend, other] * 5, terminal)
    assert len(comparisons) == 2
    with pytest.raises(DimensionMismatch, match="running model 3 lives on a different"):
        ShootingProblem(np.zeros(2), [pend, other, pend, dpend, pend, dpend], terminal)
