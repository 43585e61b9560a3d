"""Tests for the backward/forward passes, line search, solve loop, and the
dense KKT oracle.

Oracles: a one-node recursion assembled with raw numpy, direct cost
evaluation on linear-quadratic problems (where the local model is exact), a
hand-built 5x5 KKT system, and cross-checks between the two solver flavors.
"""

import numpy as np
import pytest

from fddp.action import (
    ActionModelBase,
    ConstrainedMechanicalDynamics,
    FreeMechanicalDynamics,
    IntegratedActionModel,
    TerminalActionModel,
)
from fddp.contact import Contact, ContactSet
from fddp.costs import ControlRegularization, StateRegularization
from fddp.errors import DimensionMismatch, FddpError, NotPositiveDefinite, NumericalFailure
from fddp.problem import ShootingProblem, gap_l2_norm
from fddp.scenarios import bundled_scenario_path, load_and_build
from fddp.solver import (
    REG_MIN,
    STEP_LENGTHS,
    SolverWorkspace,
    backward_pass,
    expected_improvement,
    forward_pass_ddp,
    forward_pass_fddp,
    goldstein_accept,
    solve,
)
from fddp.systems import LinearDynamics, Pendulum, lqr_chain_dynamics
from kkt_oracle import KKTSingular, kkt_search_direction
from sampling import node_data


def lqr_problem(n=12, seed=0, dt=0.05):
    dyn = lqr_chain_dynamics()
    st = dyn.state
    running = [
        IntegratedActionModel(
            dyn,
            (
                StateRegularization(st, np.zeros(6), 2.0, 3),
                ControlRegularization(3, 0.1, 6),
            ),
            dt,
        )
        for _ in range(n)
    ]
    terminal = TerminalActionModel(st, (StateRegularization(st, np.zeros(6), 50.0, 0),))
    rng = np.random.default_rng(seed)
    return ShootingProblem(rng.standard_normal(6), running, terminal), rng


def pendulum_problem(n=60, dt=0.02):
    pend = Pendulum(damping=0.1)
    st = pend.state
    target = np.array([np.pi, 0.0])
    running = [
        IntegratedActionModel(
            FreeMechanicalDynamics(pend),
            (
                StateRegularization(st, target, 0.1, 1),
                ControlRegularization(1, 0.01, 2),
            ),
            dt,
        )
        for _ in range(n)
    ]
    terminal = TerminalActionModel(st, (StateRegularization(st, target, 500.0, 0),))
    return ShootingProblem(np.zeros(2), running, terminal)


def assert_same_view(view, cut, row):
    """view is the per-node cut `cut` (same memory, shape and strides) of the
    stack row `row`, and a write through it lands in the stack."""
    assert view.shape == cut.shape and view.strides == cut.strides
    assert view.__array_interface__["data"][0] == cut.__array_interface__["data"][0]
    assert view.size == 0 or np.shares_memory(view, row)
    marks = np.arange(1.0, view.size + 1.0).reshape(view.shape)
    view[...] = marks
    np.testing.assert_array_equal(cut, marks)
    view[...] = 0.0


def random_iterate(problem, rng):
    X = [rng.standard_normal(problem.ndx) for _ in range(problem.N + 1)]
    U = [rng.standard_normal(m.nu) for m in problem.running_models]
    return X, U


def stacked(problem, X, U):
    """The trajectory as the solve holds it: X (N + 1, nx), U (N, nu_max)."""
    return np.array(X), problem.stack_controls(U)


def prepared_workspace(problem, X, U, mu=0.0):
    cost, gaps = problem.calc(X, U)
    problem.calc_diff(*stacked(problem, X, U))
    ws = SolverWorkspace(problem)
    ws.gaps = gaps
    backward_pass(problem, ws, mu)
    return ws, cost


# ---------------------------------------------------------------------------
# acceptance test
# ---------------------------------------------------------------------------


def test_goldstein_two_sided_rule():
    # Realized at least 10% of a predicted descent: accept.
    assert goldstein_accept(9.8, 10.0, -1.0)
    # Predicted ascent (gap closing): tolerate up to twice the prediction.
    assert goldstein_accept(11.5, 10.0, 1.0)
    # Only 5% of the predicted descent realized: reject.
    assert not goldstein_accept(9.95, 10.0, -1.0)
    # Boundary cases sit on the accept side (halves are exact in binary).
    assert goldstein_accept(9.5, 10.0, -5.0)
    assert goldstein_accept(12.0, 10.0, 1.0)
    assert not goldstein_accept(12.5, 10.0, 1.0)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def test_one_node_backward_pass_matches_raw_numpy_recursion():
    # Single shooting node with linear dynamics and quadratic costs: every
    # workspace quantity has a short closed form assembled here from scratch.
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    b = np.array([[0.0], [1.0]])
    dt = 0.1
    dyn = LinearDynamics(a, b)
    wx, wu, wt = 2.0, 0.5, 30.0
    running = IntegratedActionModel(
        dyn,
        (
            StateRegularization(dyn.state, np.zeros(2), wx, 1),
            ControlRegularization(1, wu, 2),
        ),
        dt,
    )
    terminal = TerminalActionModel(
        dyn.state, (StateRegularization(dyn.state, np.zeros(2), wt, 0),)
    )
    problem = ShootingProblem(np.array([0.4, -0.2]), [running], terminal)
    rng = np.random.default_rng(70)
    X = [rng.standard_normal(2), rng.standard_normal(2)]
    U = [rng.standard_normal(1)]
    mu = 0.37
    ws, _ = prepared_workspace(problem, X, U, mu=mu)

    fx = np.eye(2) + dt * a
    fu = dt * b
    gap1 = (fx @ X[0] + fu @ U[0]) - X[1]
    vxx1 = wt * np.eye(2)
    vx1 = wt * X[1]
    np.testing.assert_allclose(ws.V_xx[1], vxx1, atol=1e-13)
    np.testing.assert_allclose(ws.V_x[1], vx1, atol=1e-13)

    vx1_defl = vx1 + vxx1 @ gap1
    q_x = dt * wx * X[0] + fx.T @ vx1_defl
    q_u = dt * wu * U[0] + fu.T @ vx1_defl
    q_xx = dt * wx * np.eye(2) + fx.T @ vxx1 @ fx
    q_xu = fx.T @ vxx1 @ fu
    q_uu = dt * wu * np.eye(1) + fu.T @ vxx1 @ fu
    k_ff = -np.linalg.solve(q_uu + mu * np.eye(1), q_u)
    k_fb = -np.linalg.solve(q_uu + mu * np.eye(1), q_xu.T)

    np.testing.assert_allclose(ws.gaps[1], gap1, atol=1e-13)
    np.testing.assert_allclose(ws.Q_x[0], q_x, atol=1e-12)
    np.testing.assert_allclose(ws.Q_u[0], q_u, atol=1e-12)
    np.testing.assert_allclose(ws.Q_xx[0], q_xx, atol=1e-12)
    np.testing.assert_allclose(ws.Q_xu[0], q_xu, atol=1e-12)
    np.testing.assert_allclose(ws.Q_uu[0], q_uu, atol=1e-12)
    np.testing.assert_allclose(ws.k_ff[0], k_ff, atol=1e-12)
    np.testing.assert_allclose(ws.K_fb[0], k_fb, atol=1e-12)
    np.testing.assert_allclose(ws.V_x[0], q_x + q_xu @ k_ff, atol=1e-12)
    v_xx0 = q_xx + q_xu @ k_fb
    np.testing.assert_allclose(ws.V_xx[0], 0.5 * (v_xx0 + v_xx0.T), atol=1e-12)


def test_backward_pass_without_gaps_skips_the_deflection():
    problem, rng = lqr_problem(n=6, seed=1)
    U = [rng.standard_normal(3) for _ in range(6)]
    X = problem.rollout(U)
    ws, _ = prepared_workspace(problem, X, U)
    assert gap_l2_norm(ws.gaps) == 0.0
    # Deflected and plain recursions coincide on a feasible iterate; spot
    # check: V_x at the first node equals the recursion replayed undeflected.
    vx = problem.stacks[-1].l_x[0].copy()
    vxx = problem.stacks[-1].l_xx[0].copy()
    for k in range(5, -1, -1):
        d = problem.datas[k]
        q_x = d.l_x + d.f_x.T @ vx
        q_u = d.l_u + d.f_u.T @ vx
        q_xx = d.l_xx + d.f_x.T @ vxx @ d.f_x
        q_xu = d.l_xu + d.f_x.T @ vxx @ d.f_u
        q_uu = 0.5 * (d.l_uu + d.f_u.T @ vxx @ d.f_u)
        q_uu = q_uu + q_uu.T
        k_ff = -np.linalg.solve(q_uu, q_u)
        k_fb = -np.linalg.solve(q_uu, q_xu.T)
        vx = q_x + q_xu @ k_ff
        vxx = q_xx + q_xu @ k_fb
        vxx = 0.5 * (vxx + vxx.T)
    np.testing.assert_allclose(ws.V_x[0], vx, atol=1e-10)
    np.testing.assert_allclose(ws.V_xx[0], vxx, atol=1e-10)


def test_backward_pass_reports_indefinite_node():
    problem = pendulum_problem(n=8)
    X, U = problem.constant_state_guess(), problem.zero_controls()
    _, gaps = problem.calc(X, U)
    problem.calc_diff(*stacked(problem, X, U))
    problem.datas[3].l_uu[:] = -1.0e6 * np.eye(1)
    ws = SolverWorkspace(problem)
    ws.gaps = gaps
    with pytest.raises(NotPositiveDefinite) as excinfo:
        backward_pass(problem, ws, 0.0)
    assert excinfo.value.node == 3


def per_block_step(d, nu, vx, vxx, gap, mu):
    """One Riccati step block by block, as separate products of the named
    derivative blocks: (Q_u, Q_uu, k_ff, K_fb, V_x, V_xx) of the node."""
    vx_next = vx + vxx @ gap
    q_x = d.l_x + d.f_x.T @ vx_next
    q_u = d.l_u + d.f_u.T @ vx_next
    q_xx = d.l_xx + d.f_x.T @ vxx @ d.f_x
    q_xu = d.l_xu + d.f_x.T @ vxx @ d.f_u
    q_uu = d.l_uu + d.f_u.T @ vxx @ d.f_u
    q_uu = 0.5 * (q_uu + q_uu.T)
    k_ff, K_fb = np.zeros(nu), np.zeros((nu, len(vx)))
    if nu:
        regularized = q_uu + mu * np.eye(nu)
        k_ff = -np.linalg.solve(regularized, q_u)
        K_fb = -np.linalg.solve(regularized, q_xu.T)
    v_xx = q_xx + q_xu @ K_fb
    return q_u, q_uu, k_ff, K_fb, q_x + q_xu @ k_ff, 0.5 * (v_xx + v_xx.T)


def test_fused_backward_pass_matches_the_per_block_recursion():
    # monoped_hop's nodes have nu = 2, and its impulse node (50) nu = 0: at
    # every node, the fused [gradient | matrix] step gives the blocks of the
    # separate products from the same Value of the next node, and the
    # impulse node's padded control rows stay zero.
    _, problem, X, U = load_and_build(bundled_scenario_path("monoped_hop"))
    mu = 1e-6
    ws, _ = prepared_workspace(problem, X, U, mu=mu)
    terminal = problem.stacks[-1].nodes[0]
    np.testing.assert_array_equal(ws.V_x[-1], terminal.l_x)
    np.testing.assert_array_equal(ws.V_xx[-1], 0.5 * (terminal.l_xx + terminal.l_xx.T))
    names = ("Q_u", "Q_uu", "k_ff", "K_fb", "V_x", "V_xx")
    for k, model in enumerate(problem.running_models):
        nu = model.nu
        expected = per_block_step(
            problem.datas[k], nu, ws.V_x[k + 1], ws.V_xx[k + 1], ws.gaps[k + 1], mu
        )
        actual = (
            ws.Q_u[k, :nu], ws.Q_uu[k, :nu, :nu], ws.k_ff[k, :nu], ws.K_fb[k, :nu],
            ws.V_x[k], ws.V_xx[k],
        )
        for name, got, reference in zip(names, actual, expected):
            scale = np.max(np.abs(reference), initial=0.0)
            if name.startswith("V"):
                # V = [q_x | Q_xx] + Q_xu [k | K] cancels: measure against its operands.
                scale = max(scale, np.max(np.abs(ws.Q[k])))
            np.testing.assert_allclose(
                got, reference, rtol=1e-12, atol=1e-12 * scale, err_msg=f"{name} at node {k}"
            )
    impulse = [k for k, m in enumerate(problem.running_models) if m.nu == 0]
    assert impulse == [50]
    for name in ("Q_u", "Q_uu", "k_ff", "K_fb"):
        assert not getattr(ws, name)[50].any()


def test_bulk_made_views_are_the_per_node_cuts_on_mixed_controls():
    # monoped_hop's impulse node has nu = 0 and every other node nu = 2. Each
    # workspace row and node container, cut in bulk from its stack, must be
    # the view a per-node cut of row k makes.
    scenario, problem, X, U = load_and_build(bundled_scenario_path("monoped_hop"))
    ws, ndx = SolverWorkspace(problem), problem.ndx
    nus = [m.nu for m in problem.running_models]
    assert sorted(set(nus)) == [0, 2]
    for k, nu in enumerate(nus):
        Q, policy, V = ws.Q[k, : ndx + nu, : ndx + nu + 1], ws.policy[k, :nu, : ndx + nu + 1], ws.V[k]
        cuts = (
            Q, Q[:ndx, : ndx + 1], Q[:ndx, ndx + 1 :], Q[ndx:, ndx + 1 :], Q[ndx:],
            policy, policy[:, : ndx + 1], V, V[:, 0], V[:, 1:],
        )
        rows = (ws.Q[k],) * 5 + (ws.policy[k],) * 2 + (ws.V[k],) * 3
        assert len(ws.node_rows[k]) == len(cuts)
        for view, cut, row in zip(ws.node_rows[k], cuts, rows):
            assert_same_view(view, cut, row)
    # Each container field, and the stack array whose row it views.
    fields = {"xnext": "xnext", "Fz": "Fz", "f_x": "Fz", "f_u": "Fz"}
    fields.update(dict.fromkeys(("Lz", "l_x", "l_u", "l_xx", "l_xu", "l_ux", "l_uu"), "Lz"))
    for (model, lo, hi), stack in zip(problem.runs, problem.stacks):
        for i, k in enumerate(range(lo, hi)):
            data = problem.datas[k]
            for name, source in fields.items():
                assert_same_view(getattr(data, name), getattr(stack, name)[i], getattr(stack, source)[i])
            assert len(data.dyn) == len(stack.dyn) == len(model.dyn_sizes)
            for part, stacked in zip(data.dyn, stack.dyn):
                assert_same_view(part, stacked[i], stacked[i])


def test_value_curvature_stays_symmetric():
    problem, rng = lqr_problem(n=10, seed=2)
    X, U = random_iterate(problem, rng)
    ws, _ = prepared_workspace(problem, X, U, mu=1e-6)
    for vxx in ws.V_xx:
        assert np.max(np.abs(vxx - vxx.T)) <= 1e-10


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def test_ddp_zero_step_with_zero_feedforward_is_identity():
    problem, rng = lqr_problem(n=8, seed=3)
    U = [rng.standard_normal(3) for _ in range(8)]
    X = problem.rollout(U)
    ws, _ = prepared_workspace(problem, X, U)
    ws.k_ff[:] = 0.0
    X_new, U_new, _, _ = forward_pass_ddp(problem, *stacked(problem, X, U), ws, 1.0)
    for x_new, x in zip(X_new, X):
        np.testing.assert_array_equal(x_new, x)
    for u_new, u in zip(U_new, U):
        np.testing.assert_array_equal(u_new, u)


def test_ddp_rollouts_are_feasible():
    problem, rng = lqr_problem(n=8, seed=4)
    X, U = random_iterate(problem, rng)
    ws, _ = prepared_workspace(problem, X, U, mu=1e-9)
    for alpha in (1.0, 0.5, 0.125):
        X_new, U_new, _, gaps_new = forward_pass_ddp(problem, *stacked(problem, X, U), ws, alpha)
        np.testing.assert_array_equal(gaps_new, 0.0)
        _, gaps = problem.calc(X_new, U_new)
        assert gap_l2_norm(gaps) <= 1e-12


def test_ddp_full_step_reaches_the_kkt_optimum():
    problem, rng = lqr_problem(n=10, seed=5)
    U = [rng.standard_normal(3) for _ in range(10)]
    X = problem.rollout(U)
    dX, dU, _ = kkt_search_direction(problem, X, U)
    X_opt = [x + dx for x, dx in zip(X, dX)]
    U_opt = [u + du for u, du in zip(U, dU)]
    cost_opt, _ = problem.calc(X_opt, U_opt)

    ws, _ = prepared_workspace(problem, X, U)
    _, _, cost_full, _ = forward_pass_ddp(problem, *stacked(problem, X, U), ws, 1.0)
    assert abs(cost_full - cost_opt) <= 1e-9


def test_gap_tolerant_full_step_equals_classical_step():
    problem, rng = lqr_problem(n=9, seed=6)
    U = [rng.standard_normal(3) for _ in range(9)]
    X = problem.rollout(U)
    ws, _ = prepared_workspace(problem, X, U, mu=1e-9)
    X_d, U_d, cost_d, _ = forward_pass_ddp(problem, *stacked(problem, X, U), ws, 1.0)
    X_f, U_f, cost_f, gaps_f = forward_pass_fddp(problem, *stacked(problem, X, U), ws, 1.0)
    assert cost_f == cost_d
    for a, b in zip(X_f, X_d):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(U_f, U_d):
        np.testing.assert_array_equal(a, b)
    for gap in gaps_f:
        np.testing.assert_array_equal(gap, np.zeros(6))


def test_gap_tolerant_zero_step_with_zero_feedforward_is_identity():
    problem, rng = lqr_problem(n=9, seed=8)
    X, U = random_iterate(problem, rng)
    ws, _ = prepared_workspace(problem, X, U, mu=1e-9)
    old_gaps = [g.copy() for g in ws.gaps]
    ws.k_ff[:] = 0.0
    X_new, U_new, _, gaps_new = forward_pass_fddp(problem, *stacked(problem, X, U), ws, 0.0)
    for x_new, x in zip(X_new, X):
        np.testing.assert_allclose(x_new, x, atol=1e-13)
    for u_new, u in zip(U_new, U):
        np.testing.assert_allclose(u_new, u, atol=1e-12)
    for gap_new, gap_old in zip(gaps_new, old_gaps):
        np.testing.assert_allclose(gap_new, gap_old, atol=1e-12)


# ---------------------------------------------------------------------------
# expected improvement
# ---------------------------------------------------------------------------


def test_expected_improvement_without_gaps_is_the_policy_sum():
    problem, rng = lqr_problem(n=8, seed=9)
    U = [rng.standard_normal(3) for _ in range(8)]
    X = problem.rollout(U)
    ws, _ = prepared_workspace(problem, X, U)
    d1, d2 = expected_improvement(problem, ws, X, X)
    d1_manual = sum(float(k @ q) for k, q in zip(ws.k_ff, ws.Q_u))
    d2_manual = sum(float(k @ quu @ k) for k, quu in zip(ws.k_ff, ws.Q_uu))
    np.testing.assert_allclose(d1, d1_manual, rtol=1e-12)
    np.testing.assert_allclose(d2, d2_manual, rtol=1e-12)
    assert d1 < 0.0


def test_expected_improvement_with_no_direction_is_zero():
    problem, rng = lqr_problem(n=8, seed=10)
    U = [rng.standard_normal(3) for _ in range(8)]
    X = problem.rollout(U)
    ws, _ = prepared_workspace(problem, X, U)
    ws.k_ff[:] = 0.0
    d1, d2 = expected_improvement(problem, ws, X, X)
    assert d1 == 0.0 and d2 == 0.0


def test_expected_improvement_is_exact_at_full_step_with_gaps():
    # A unit step closes every gap, and there the deflected model predicts
    # the measured change exactly on a linear-quadratic problem.
    problem, rng = lqr_problem(n=12, seed=12)
    X, U = random_iterate(problem, rng)
    ws, cost = prepared_workspace(problem, X, U)
    X_try, _, cost_try, _ = forward_pass_fddp(problem, *stacked(problem, X, U), ws, 1.0)
    d1, d2 = expected_improvement(problem, ws, X, X_try)
    assert abs((cost_try - cost) - (d1 + 0.5 * d2)) <= 1e-9


def random_chain_problem(rng):
    """A spring-mass chain of random size whose nodes either drive every mass
    or coast without controls, in a random order. The two node models
    alternate in runs, each with its own stack, and the coasting
    nodes leave zero-padded control rows in the solver workspace."""
    masses, n = int(rng.integers(1, 5)), int(rng.integers(3, 16))
    chain = lqr_chain_dynamics(masses, rng.uniform(1.0, 6.0), rng.uniform(0.0, 1.0))
    st, nx = chain.state, 2 * masses
    dt = rng.uniform(0.02, 0.1)
    driven = IntegratedActionModel(
        chain,
        (
            StateRegularization(st, rng.standard_normal(nx), rng.uniform(0.5, 3.0), masses),
            ControlRegularization(masses, rng.uniform(0.05, 0.5), nx),
        ),
        dt,
    )
    coast = IntegratedActionModel(
        LinearDynamics(chain.A, np.zeros((nx, 0))),
        (StateRegularization(st, rng.standard_normal(nx), rng.uniform(0.5, 3.0), 0),),
        dt,
    )
    models = [coast if rng.uniform() < 0.3 else driven for _ in range(n)]
    models[0] = driven
    terminal = TerminalActionModel(st, (StateRegularization(st, np.zeros(nx), 20.0, 0),))
    return ShootingProblem(rng.standard_normal(nx), models, terminal)


@pytest.mark.parametrize("seed", range(8))
def test_random_chains_keep_the_step_invariants(seed):
    # On linear-quadratic problems of random size, from a random infeasible
    # iterate: each node of the per-run derivative pass gets the blocks of
    # its own point, the full gap-tolerant step is the Newton step of the
    # dense KKT system, every trial contracts each gap by exactly (1 - alpha),
    # and the stacked expected improvement equals its per-node sum.
    rng = np.random.default_rng(4000 + seed)
    problem = random_chain_problem(rng)
    X, U = random_iterate(problem, rng)
    ws, _ = prepared_workspace(problem, X, U)
    for k, (model, data) in enumerate(zip(problem.running_models, problem.datas)):
        alone = model.create_stack(1)
        model.calc(alone.nodes[0], X[k], U[k])
        model.calc_diff(alone, X[k][None], U[k][None])
        for block in ("f_x", "f_u", "l_x", "l_u", "l_xx", "l_xu", "l_uu"):
            np.testing.assert_array_equal(getattr(data, block), getattr(alone.nodes[0], block))
    dX, dU, _ = kkt_search_direction(problem, X, U)
    for alpha in STEP_LENGTHS:
        X_try, U_try, _, gaps = forward_pass_fddp(problem, *stacked(problem, X, U), ws, alpha)
        np.testing.assert_allclose(gaps, (1.0 - alpha) * ws.gaps, rtol=0.0, atol=1e-12)
        if alpha == 1.0:
            for k in range(problem.N + 1):
                np.testing.assert_allclose(X_try[k] - X[k], dX[k], atol=1e-8)
            for k, model in enumerate(problem.running_models):
                np.testing.assert_allclose(U_try[k, : model.nu] - U[k], dU[k], atol=1e-8)
        d1_sum = d2_sum = 0.0
        for k in range(problem.N + 1):
            f, dx, vxx = ws.gaps[k], X_try[k] - X[k], ws.V_xx[k]
            d1_sum += f @ (ws.V_x[k] + vxx @ f - vxx @ dx)
            d2_sum += f @ (2.0 * vxx @ dx - vxx @ f)
        for k, model in enumerate(problem.running_models):
            k_ff = ws.k_ff[k][: model.nu]
            d1_sum += k_ff @ ws.Q_u[k][: model.nu]
            d2_sum += k_ff @ ws.Q_uu[k][: model.nu, : model.nu] @ k_ff
        d1, d2 = expected_improvement(problem, ws, X, X_try)
        np.testing.assert_allclose([d1, d2], [d1_sum, d2_sum], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# dense KKT oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["pendulum_swingup", "monoped_hop"])
def test_the_riccati_step_rolled_out_linearly_is_the_kkt_newton_step(name):
    # The paper's Newton-step invariant on nonlinear problems, from the warm
    # start moved by 1e-2 noise: the policy of the backward pass at mu = 0,
    # rolled out through the linearized dynamics from dx_0 = gap_0, with
    # du_k = [k | K] [1; dx_k] and dx_{k+1} = f_x dx_k + f_u du_k + gap_{k+1},
    # is the Newton step of the dense KKT system.
    _, problem, X, U = load_and_build(bundled_scenario_path(name))
    rng = np.random.default_rng(3)
    X = [problem.state.integrate(x, 1e-2 * rng.standard_normal(problem.ndx)) for x in X]
    U = [u + 1e-2 * rng.standard_normal(len(u)) for u in U]
    ws, _ = prepared_workspace(problem, X, U)
    dX, dU = [ws.gaps[0]], []
    for kK, data, gap in zip(ws.gains, problem.datas, ws.gaps[1:]):
        dU.append(kK @ np.concatenate([[1.0], dX[-1]]))
        dX.append(data.f_x @ dX[-1] + data.f_u @ dU[-1] + gap)
    kkt_dX, kkt_dU, _ = kkt_search_direction(problem, X, U)
    assert np.abs(np.concatenate(ws.gaps)).max() > 1e-3
    np.testing.assert_allclose(np.concatenate(dX), np.concatenate(kkt_dX), rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(np.concatenate(dU), np.concatenate(kkt_dU), rtol=0.0, atol=1e-9)


def test_kkt_direction_from_feasible_iterate_has_zero_primal_residual():
    problem, rng = lqr_problem(n=10, seed=13)
    U = [rng.standard_normal(3) for _ in range(10)]
    X = problem.rollout(U)
    dX, dU, mults = kkt_search_direction(problem, X, U)
    assert len(mults) == 11
    assert np.linalg.norm(dX[0]) <= 1e-10
    for k in range(10):
        d = problem.datas[k]
        residual = dX[k + 1] - d.f_x @ dX[k] - d.f_u @ dU[k]
        assert np.linalg.norm(residual) <= 1e-10


def test_kkt_direction_matches_hand_assembled_system():
    # Scalar one-node problem: 3 primal variables (x0, u0, x1) and 2
    # constraint rows make a 5x5 saddle-point system small enough to write
    # out entry by entry.
    a, b, dt = -0.4, 2.0, 0.1
    wx, wu, wt = 3.0, 0.5, 10.0
    dyn = LinearDynamics([[a]], [[b]])
    running = IntegratedActionModel(
        dyn,
        (
            StateRegularization(dyn.state, [0.0], wx, 1),
            ControlRegularization(1, wu, 1),
        ),
        dt,
    )
    terminal = TerminalActionModel(dyn.state, (StateRegularization(dyn.state, [0.0], wt, 0),))
    x0m, x0, u0, x1 = 0.7, 0.3, -0.5, 0.9
    problem = ShootingProblem(np.array([x0m]), [running], terminal)
    dX, dU, mults = kkt_search_direction(problem, [np.array([x0]), np.array([x1])], [np.array([u0])])

    fx, fu = 1.0 + dt * a, dt * b
    gap0 = x0m - x0
    gap1 = (fx * x0 + fu * u0) - x1
    kkt = np.array(
        [
            [dt * wx, 0.0, 0.0, 1.0, -fx],
            [0.0, dt * wu, 0.0, 0.0, -fu],
            [0.0, 0.0, wt, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [-fx, -fu, 1.0, 0.0, 0.0],
        ]
    )
    rhs = np.array([-dt * wx * x0, -dt * wu * u0, -wt * x1, gap0, gap1])
    sol = np.linalg.solve(kkt, rhs)
    np.testing.assert_allclose(dX[0], sol[0:1], atol=1e-12)
    np.testing.assert_allclose(dU[0], sol[1:2], atol=1e-12)
    np.testing.assert_allclose(dX[1], sol[2:3], atol=1e-12)
    np.testing.assert_allclose(mults[0], sol[3:4], atol=1e-12)
    np.testing.assert_allclose(mults[1], sol[4:5], atol=1e-12)


def test_kkt_oracle_rejects_oversized_problems():
    problem = pendulum_problem(n=700)
    with pytest.raises(DimensionMismatch, match="dense KKT"):
        kkt_search_direction(
            problem, problem.constant_state_guess(), problem.zero_controls()
        )


def test_kkt_singularity_is_reported():
    # No costs at all: the Hessian block is zero and the saddle-point system
    # loses rank.
    dyn = LinearDynamics([[0.0]], [[1.0]])
    running = IntegratedActionModel(dyn, (), 0.1)
    problem = ShootingProblem(
        np.array([1.0]), [running], TerminalActionModel(dyn.state)
    )
    with pytest.raises(KKTSingular):
        kkt_search_direction(
            problem, problem.constant_state_guess(), problem.zero_controls()
        )


# ---------------------------------------------------------------------------
# solve loop
# ---------------------------------------------------------------------------


def test_solve_zero_iterations_reports_the_initial_point():
    problem, rng = lqr_problem(n=6, seed=15)
    X_guess, U_guess = random_iterate(problem, rng)
    X, U, report = solve(
        problem, X_guess, U_guess, solver="fddp", max_iters=0
    )
    assert report.termination == "max_iters"
    assert report.iterations == 0
    assert len(report.rows) == 1
    row = report.rows[0]
    cost0, gaps0 = problem.calc(X_guess, U_guess)
    assert row.cost == pytest.approx(cost0, abs=1e-12)
    assert row.gap_l2 == pytest.approx(gap_l2_norm(gaps0), abs=1e-12)
    assert row.step_length == 0.0
    assert row.expected_dj == 0.0
    assert row.accepted == 1
    for x, xg in zip(X, X_guess):
        np.testing.assert_array_equal(x, xg)


def test_solve_validates_options():
    problem, _ = lqr_problem(n=4, seed=16)
    with pytest.raises(DimensionMismatch, match="unknown solver"):
        solve(problem, solver="newton")
    for value in (-1, 2.5, "3"):
        with pytest.raises(DimensionMismatch, match="max_iters must be an integer >= 0"):
            solve(problem, max_iters=value)


@pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf])
def test_solve_rejects_a_tolerance_that_is_not_finite_and_positive(value):
    problem, _ = lqr_problem(n=4, seed=16)
    with pytest.raises(DimensionMismatch, match="tolerance must be finite and > 0"):
        solve(problem, max_iters=0, tolerance=value)


def test_classical_solver_replaces_the_state_guess_by_a_rollout():
    problem, rng = lqr_problem(n=8, seed=17)
    U_guess = [rng.standard_normal(3) for _ in range(8)]
    X_garbage = [rng.standard_normal(6) * 100.0 for _ in range(9)]
    X, U, report = solve(problem, X_garbage, U_guess, solver="ddp", max_iters=0)
    expected = problem.rollout(U_guess)
    for x, xr in zip(X, expected):
        np.testing.assert_array_equal(x, xr)
    cost_roll, _ = problem.calc(expected, U_guess)
    assert report.rows[0].cost == pytest.approx(cost_roll, abs=1e-12)
    assert report.rows[0].gap_l2 == 0.0


def test_classical_solver_iterates_stay_feasible():
    problem = pendulum_problem(n=40)
    X, U, report = solve(problem, solver="ddp", max_iters=5, tolerance=1e-9)
    for row in report.rows:
        assert row.gap_l2 <= 1e-12


def test_gap_tolerant_solve_closes_gaps_and_descends_afterwards():
    problem = pendulum_problem(n=60)
    X, U, report = solve(problem, solver="fddp", max_iters=100, tolerance=1e-9)
    assert report.converged
    feasible = False
    last_cost = None
    for row in report.rows:
        if not feasible and row.gap_l2 < 1e-10:
            feasible = True
            last_cost = row.cost
            continue
        if feasible and row.accepted:
            assert row.cost <= last_cost + 1e-12
            last_cost = row.cost


def test_first_row_records_the_warm_start():
    problem, rng = lqr_problem(n=6, seed=19)
    X_guess, U_guess = random_iterate(problem, rng)
    _, _, report = solve(problem, X_guess, U_guess, solver="fddp", max_iters=3)
    row = report.rows[0]
    assert row.iteration == 0
    assert row.step_length == 0.0 and row.expected_dj == 0.0 and row.accepted == 1
    assert row.regularization == REG_MIN


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------


class BlockedControlModel(ActionModelBase):
    """Scalar node whose dynamics reject every nonzero control.

    The quadratic model still advertises a descent direction through l_u, so
    every line-search trial moves the control away from zero and fails: the
    solve loop can only keep rejecting and raising the regularizer.
    """

    def __init__(self):
        state = LinearDynamics([[0.0]], [[1.0]]).state
        super().__init__(state, 1, ())

    def calc(self, data, x, u):
        if np.any(u != 0.0):
            raise NumericalFailure("control rejected")
        data.xnext[:] = x
        return data

    def cost(self, X, U):
        return np.ones(len(X))

    def calc_diff(self, stack, X, U):
        stack.f_x[:] = 1.0
        stack.f_u[:] = 1.0
        stack.l_x[:] = 0.0
        stack.l_u[:] = 1.0
        stack.l_xx[:] = 0.0
        stack.l_xu[:] = 0.0
        stack.l_uu[:] = 1.0
        return stack


def blocked_problem():
    model = BlockedControlModel()
    return ShootingProblem(
        np.array([0.0]), [model], TerminalActionModel(model.state)
    )


def test_ddp_start_sweeps_each_node_once(monkeypatch):
    # Under ddp the initial rollout leaves the data set as calc would: the
    # cost and gaps of the start come from it, with no second node sweep.
    _, problem, X, U = load_and_build(bundled_scenario_path("pendulum_swingup"))
    calls = []
    original = IntegratedActionModel.calc

    def counted_calc(self, data, x, u):
        calls.append(1)
        return original(self, data, x, u)

    monkeypatch.setattr(IntegratedActionModel, "calc", counted_calc)
    _, _, report = solve(problem, X, U, solver="ddp", max_iters=0)
    assert len(calls) == problem.N
    cost, gaps = problem.calc(problem.rollout(U), U)
    assert report.rows[0].cost == pytest.approx(cost, rel=1e-15)
    assert report.rows[0].gap_l2 == 0.0


def test_ddp_never_reads_the_state_guess():
    # The ddp start is the rollout of the warm-start controls alone: a NaN in
    # the state guess changes nothing, where a sweep under a zero policy
    # would still read it (0 * NaN) and end the solve at that node.
    scenario, problem, X, U = load_and_build(bundled_scenario_path("pendulum_swingup"))
    options = scenario.solver_options
    X_nan = [x.copy() for x in X]
    X_nan[5][0] = np.nan
    runs = [
        solve(problem, guess, U, solver="ddp", max_iters=options["max_iters"],
              tolerance=options["tolerance"])
        for guess in (X, X_nan)
    ]
    report = runs[1][2]
    assert report.converged
    assert report.iterations == 12
    assert report.final_cost == pytest.approx(0.9776448337729343, rel=1e-12, abs=0.0)
    assert report.rows == runs[0][2].rows


@pytest.mark.parametrize("solver", ["fddp", "ddp"])
def test_solve_stacks_the_controls_once_and_never_steps_the_terminal_node(monkeypatch, solver):
    # Inside the solve the trajectory stays two arrays: the guess's controls
    # are stacked once, on entry, each trial's sweep fills its own control
    # array, and the terminal node, which has no dynamics, is never stepped.
    scenario, problem, X, U = load_and_build(bundled_scenario_path("pendulum_swingup"))
    stacked_calls, terminal_calls = [], []
    stack_controls, terminal_calc = ShootingProblem.stack_controls, TerminalActionModel.calc
    monkeypatch.setattr(
        ShootingProblem, "stack_controls",
        lambda self, U: stacked_calls.append(1) or stack_controls(self, U),
    )
    monkeypatch.setattr(
        TerminalActionModel, "calc",
        lambda self, *args: terminal_calls.append(1) or terminal_calc(self, *args),
    )
    options = scenario.solver_options
    _, _, report = solve(
        problem, X, U, solver=solver,
        max_iters=options["max_iters"], tolerance=options["tolerance"],
    )
    assert report.converged
    assert len(stacked_calls) == 1
    assert len(terminal_calls) == 0


def test_rejected_iterations_escalate_to_the_regularization_cap():
    problem = blocked_problem()
    X, U, report = solve(problem, solver="fddp", max_iters=50, tolerance=1e-12)
    assert report.termination == "failure: regularization limit reached"
    # 19 rejections walk the regularizer from 1e-9 across the 1e9 cap.
    assert len(report.rows) == 20
    initial_cost = report.rows[0].cost
    for i, row in enumerate(report.rows[1:], start=1):
        assert row.accepted == 0
        assert row.step_length == STEP_LENGTHS[-1]
        assert row.cost == initial_cost
        assert row.regularization == pytest.approx(1e-9 * 10.0 ** (i - 1), rel=1e-12)
    # The iterate never moved.
    np.testing.assert_array_equal(U[0], np.zeros(1))


def test_accepted_steps_walk_the_regularization_back_down(monkeypatch):
    # Two rejected searches raise mu tenfold each; every accepted step then
    # divides it by ten, down to REG_MIN and no further.
    from fddp import solver as solver_module

    calls = []

    def reject_the_first_two_searches(*args):
        calls.append(args)
        return len(calls) > 2 * len(STEP_LENGTHS) and goldstein_accept(*args)

    monkeypatch.setattr(solver_module, "goldstein_accept", reject_the_first_two_searches)
    _, _, report = solve(pendulum_problem(), solver="fddp", max_iters=6, tolerance=1e-9)
    assert [row.accepted for row in report.rows[1:]] == [0, 0, 1, 1, 1, 1]
    assert [row.regularization for row in report.rows[1:]] == pytest.approx(
        [1e-9, 1e-8, 1e-7, 1e-8, 1e-9, 1e-9], rel=1e-12
    )


@pytest.mark.parametrize("solver", ["fddp", "ddp"])
def test_a_rejected_search_keeps_the_derivatives_of_the_iterate(monkeypatch, solver):
    # Every trial sweeps into the problem's one data set, so a rejected
    # search leaves the last trial's dynamics solutions there. The backward
    # pass after it must still be the one of the iterate: its [k | K] equals,
    # to the bit, those from a fresh calc and calc_diff at the same iterate
    # and mu. On monoped_hop the contact derivatives read those solutions.
    from fddp import solver as solver_module

    passes = []

    def reject_the_first_search(*args):
        return len(passes) > 1 and goldstein_accept(*args)

    def recorded_backward_pass(problem, ws, mu):
        backward_pass(problem, ws, mu)
        passes.append((mu, [kK.copy() for kK in ws.gains]))

    monkeypatch.setattr(solver_module, "goldstein_accept", reject_the_first_search)
    monkeypatch.setattr(solver_module, "backward_pass", recorded_backward_pass)
    _, problem, X, U = load_and_build(bundled_scenario_path("monoped_hop"))
    _, _, report = solve(problem, X, U, solver=solver, max_iters=2)
    assert report.rows[1].accepted == 0 and len(passes) == 2
    mu, gains = passes[1]
    assert mu == 10.0 * REG_MIN
    if solver == "ddp":
        X = problem.rollout(U)
    ws, _ = prepared_workspace(problem, X, U, mu=mu)
    for k, (got, expected) in enumerate(zip(gains, ws.gains)):
        assert got.tobytes() == expected.tobytes(), f"node {k}"


def test_a_solve_builds_no_second_data_set(monkeypatch):
    # The problem's own data set is the only one: a solve, its trials and
    # its workspace construct no stack.
    from fddp.action import ActionDataStack

    scenario, problem, X, U = load_and_build(bundled_scenario_path("monoped_hop"))
    built = []
    stack_init = ActionDataStack.__init__
    monkeypatch.setattr(
        ActionDataStack, "__init__", lambda self, *args: built.append(1) or stack_init(self, *args)
    )
    _, _, report = solve_scenario(scenario, problem, X, U)
    assert report.converged
    assert built == []


def test_initial_evaluation_failure_is_reported_not_raised():
    problem = blocked_problem()
    X, U, report = solve(
        problem, None, [np.ones(1)], solver="fddp", max_iters=5
    )
    assert report.termination.startswith("failure:")
    assert len(report.rows) == 1
    assert np.isnan(report.rows[0].cost)
    assert np.isnan(report.rows[0].gap_l2)
    assert report.rows[0].accepted == 0


# A NaN or an overflow injected into the guess at one node of monoped_hop
# (nodes 0-39 and 51-90 in contact, 40-49 free, 50 the impulse): the kind of
# node, the entry poisoned, and the cause the failure must name. A control of
# 1e308 is finite but overflows the accelerations; a post-impact velocity of
# 1e308 overflows the impulse solve.
INJECTED_FAILURES = [
    ("free", 45, "u", 1e308, "non-finite acceleration in forward integration"),
    ("free", 45, "v", np.nan, "non-finite dynamics terms"),
    ("contact", 20, "u", 1e308, "non-finite contact accelerations"),
    ("contact", 20, "v", np.nan, "non-finite entries in contact dynamics inputs"),
    ("impulse", 50, "v", 1e308, "non-finite post-impact velocity"),
    ("impulse", 50, "v", np.nan, "non-finite entries in impulse dynamics inputs"),
]


@pytest.mark.parametrize(
    "kind, k, entry, value, cause",
    INJECTED_FAILURES,
    ids=[f"{kind}-{entry}-{value}" for kind, _, entry, value, _ in INJECTED_FAILURES],
)
def test_nonfinite_node_evaluation_ends_the_solve_naming_node_and_cause(kind, k, entry, value, cause):
    # Each node kind checks its forward step once, and the first evaluation
    # of the guess ends the solve with that node and that cause.
    _, problem, X, U = load_and_build(bundled_scenario_path("monoped_hop"))
    X, U = [x.copy() for x in X], [u.copy() for u in U]
    if entry == "u":
        U[k][:] = value
    else:
        X[k][5:] = value
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, report = solve(problem, X, U, solver="fddp", max_iters=5)
    assert report.termination == f"failure: {cause} (node {k})"
    assert len(report.rows) == 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("value", [np.nan, 1e308], ids=["nan", "overflow"])
def test_failure_injected_at_a_seeded_node_is_named_with_the_node_cause(seed, value):
    # Per seed, one contact node, one free node and the impulse node of
    # monoped_hop and one node of pendulum_swingup, drawn at random, get a
    # NaN or an overflowing velocity in the state guess. The fddp start ends
    # naming that node, with what the node's own calc raises there, or, where
    # calc passes (the damped pendulum steps an overflowing velocity), with
    # the node's non-finite cost.
    rng = np.random.default_rng(5000 + seed)
    for name in ("monoped_hop", "pendulum_swingup"):
        scenario, problem, X, U = load_and_build(bundled_scenario_path(name))
        kinds = {}
        for model, lo, hi in problem.runs:
            kinds.setdefault(type(getattr(model, "dynamics", model)).__name__, []).extend(range(lo, hi))
        for kind in sorted(kinds):
            k = int(rng.choice(kinds[kind]))
            X_bad = [x.copy() for x in X]
            X_bad[k][scenario.system.nq :] = value
            model = problem.running_models[k]
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    model.calc(node_data(model), X_bad[k], U[k])
                    cause = "non-finite total cost"
                except FddpError as exc:
                    cause = str(exc)
                _, _, report = solve(problem, X_bad, U, solver="fddp", max_iters=1)
            assert report.termination == f"failure: {cause} (node {k})", (name, kind)
            assert len(report.rows) == 1


@pytest.mark.parametrize(
    "nodes", [[0], [7], [199], [3, 150], [199, 200]], ids=["0", "7", "199", "3-150", "199-200"]
)
def test_nonfinite_cost_names_the_node_whose_cost_overflows(nodes):
    # A control of 1e200 steps finitely on the pendulum but overflows its
    # node's control cost, and a velocity of 1e200 the terminal node's (200):
    # the failure names the first such node in node order, not the terminal one.
    _, problem, X, U = load_and_build(bundled_scenario_path("pendulum_swingup"))
    X, U = [x.copy() for x in X], [u.copy() for u in U]
    for k in nodes:
        if k < problem.N:
            U[k][:] = 1e200
        else:
            X[k][1] = 1e200
    with np.errstate(over="ignore"):
        _, _, report = solve(problem, X, U, solver="fddp", max_iters=5)
    assert report.termination == f"failure: non-finite total cost (node {nodes[0]})"
    assert len(report.rows) == 1


@pytest.mark.parametrize("solver", ["fddp", "ddp"])
def test_failed_factorization_at_the_start_names_its_node(solver):
    # Two tip rows on the pendulum's one degree of freedom: the contact
    # factorization of the first node fails, and the termination names it.
    pend = Pendulum()
    tip = ContactSet((Contact("tip", [0.0, -1.0], alpha=50.0, beta=10.0),))
    model = IntegratedActionModel(
        ConstrainedMechanicalDynamics(pend, tip), (ControlRegularization(1, 0.1, 2),), 0.01
    )
    problem = ShootingProblem(np.array([0.1, 0.2]), [model] * 3, TerminalActionModel(pend.state))
    _, _, report = solve(problem, solver=solver, max_iters=5)
    assert report.termination == (
        "failure: operational-space inertia is not positive definite"
        " (constraint rows dependent?) (node 0)"
    )
    assert len(report.rows) == 1


@pytest.mark.parametrize("forward_pass", [forward_pass_ddp, forward_pass_fddp])
def test_failed_trial_node_is_named(forward_pass):
    problem = blocked_problem()
    ws = SolverWorkspace(problem)
    ws.k_ff[:] = 1.0
    with pytest.raises(NumericalFailure, match=r"^control rejected \(node 0\)$"):
        forward_pass(
            problem, *stacked(problem, problem.constant_state_guess(), problem.zero_controls()), ws, 1.0
        )


class PoisonedDerivativeModel(IntegratedActionModel):
    """Integrated node whose calc_diff leaves a NaN in one derivative block,
    at its flat index `entry`."""

    def __init__(self, model, block, entry=0):
        super().__init__(model.dynamics, model.costs, model.dt)
        self.block = block
        self.entry = entry

    def calc_diff(self, stack, X, U):
        super().calc_diff(stack, X, U)
        getattr(stack, self.block).flat[self.entry] = np.nan
        return stack


@pytest.mark.parametrize("block", ["l_uu", "l_x"])
@pytest.mark.parametrize("solver", ["fddp", "ddp"])
def test_nonfinite_node_derivative_is_reported_not_raised(monkeypatch, solver, block):
    # A NaN in the control Hessian (or in a gradient, which spreads to every
    # earlier node) cannot be repaired by regularization: the first backward
    # pass ends the solve, and the termination names the node.
    from fddp import solver as solver_module

    _, problem, X, U = load_and_build(bundled_scenario_path("pendulum_swingup"))
    k = 5
    models = list(problem.running_models)
    models[k] = PoisonedDerivativeModel(models[k], block)
    problem = ShootingProblem(problem.x0_measured, models, problem.terminal_model)
    passes = []

    def counted_backward_pass(*args, **kwargs):
        passes.append(args[2])
        return backward_pass(*args, **kwargs)

    monkeypatch.setattr(solver_module, "backward_pass", counted_backward_pass)
    _, _, report = solve(problem, X, U, solver=solver, max_iters=5)
    assert report.termination == (
        f"failure: non-finite derivatives in the backward pass (node {k})"
    )
    assert len(passes) == 1
    assert len(report.rows) == 1


@pytest.mark.parametrize("solver", ["fddp", "ddp"])
def test_nonfinite_upper_triangle_of_control_hessian_is_reported(solver):
    # The Cholesky factorization reads only the lower triangle of Q_uu, so a
    # NaN above the diagonal (entry (0, 1) of a two-control node) never makes
    # it fail; the backward pass must still end the solve naming the node.
    _, problem, X, U = load_and_build(bundled_scenario_path("monoped_hop"))
    k = 30
    models = list(problem.running_models)
    assert models[k].nu == 2
    models[k] = PoisonedDerivativeModel(models[k], "l_uu", entry=1)
    problem = ShootingProblem(problem.x0_measured, models, problem.terminal_model)
    _, _, report = solve(problem, X, U, solver=solver, max_iters=5)
    assert report.termination == (
        f"failure: non-finite derivatives in the backward pass (node {k})"
    )
    assert len(report.rows) == 1


def solve_scenario(scenario, problem, X, U, solver=None):
    """The scenario's solve of problem from (X, U), as the CLI runs it."""
    options = scenario.solver_options
    return solve(
        problem, X, U, solver=solver or options["solver"],
        max_iters=options["max_iters"], tolerance=options["tolerance"],
    )


def assert_same_solve(a, b):
    """Two solve results (X, U, report) agree to the bit."""
    (X_a, U_a, report_a), (X_b, U_b, report_b) = a, b
    assert report_a.termination == report_b.termination
    assert [vars(row) for row in report_a.rows] == [vars(row) for row in report_b.rows]
    for got, expected in zip((X_a, U_a), (X_b, U_b)):
        assert len(got) == len(expected)
        for x_a, x_b in zip(got, expected):
            np.testing.assert_array_equal(x_a, x_b)


@pytest.mark.parametrize("solver", ["ddp", "fddp"])
def test_class_callables_patched_between_solves_see_every_node_call(monkeypatch, solver):
    # The benchmark's tracer wraps class attributes (a node's calc, the
    # manifold's difference, the pendulum's bias) while a traced solve runs.
    # A problem solved before the patch must reach the wrappers in every
    # sweep, N times each, since nothing a solve keeps holds a library
    # callable; and the patched solve gives the unpatched one's bits.
    from collections import Counter

    from fddp.manifolds import Manifold

    scenario, problem, X, U = load_and_build(bundled_scenario_path("pendulum_swingup"))
    reference = solve_scenario(scenario, problem, X, U, solver)
    counts, sweeps = Counter(), []

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for owner, name in ((IntegratedActionModel, "calc"), (Manifold, "difference"), (Pendulum, "bias")):
        monkeypatch.setattr(owner, name, counted(name, owner.__dict__[name]))
    sweep = ShootingProblem._sweep

    def counted_sweep(self, X, U, gains=None, *args):
        before = counts.copy()
        try:
            return sweep(self, X, U, gains, *args)
        finally:
            sweeps.append((gains is not None, counts - before))

    monkeypatch.setattr(ShootingProblem, "_sweep", counted_sweep)
    patched = solve_scenario(scenario, problem, X, U, solver)
    N = problem.N
    assert sum(with_gains for with_gains, _ in sweeps) >= reference[2].iterations > 0
    for with_gains, calls in sweeps:
        assert calls == {"calc": N, "bias": N, **({"difference": N} if with_gains else {})}
    assert_same_solve(patched, reference)


def test_a_solve_leaves_nothing_in_the_results_of_another():
    # Two solves of one problem, with a solve of another problem between
    # them, give the same reports and trajectories; and the X and U the
    # first returned are not written by the later solves, whose scratch is
    # their own.
    cases = [load_and_build(bundled_scenario_path(name)) for name in ("pendulum_swingup", "monoped_hop")]
    for case, other in (cases, cases[::-1]):
        first = solve_scenario(*case)
        kept = [[x.copy() for x in trajectory] for trajectory in first[:2]]
        solve_scenario(*other)
        assert_same_solve(solve_scenario(*case), first)
        for returned, copies in zip(first[:2], kept):
            for array, copy in zip(returned, copies):
                np.testing.assert_array_equal(array, copy)
