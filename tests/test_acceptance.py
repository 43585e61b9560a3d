"""End-to-end acceptance checks.

Each test covers one headline behavior of the library, prints one PASS/FAIL
line, and asserts it. Oracles are independent throughout: dense KKT solves,
replays of recorded traces through the acceptance rule, physics conservation
laws, and wall-clock measurements.
"""

import csv
import gc
import time

import numpy as np

from fddp.action import IntegratedActionModel, TerminalActionModel
from fddp.cli import DERIVATIVE_TOLERANCE, check_problem_derivatives, main as cli_main
from fddp.contact import impulse_dynamics
from fddp.costs import ControlRegularization, StateRegularization
from fddp.problem import ShootingProblem, gap_l2_norm
from fddp.scenarios import (
    BUNDLED_SCENARIOS,
    bundled_scenario_path,
    load_and_build,
)
from fddp.solver import (
    GOLDSTEIN_HIGH,
    GOLDSTEIN_LOW,
    STEP_LENGTHS,
    SolverWorkspace,
    backward_pass,
    expected_improvement,
    forward_pass_ddp,
    forward_pass_fddp,
    goldstein_accept,
    solve,
)
from fddp.systems import lqr_chain_dynamics
from kkt_oracle import kkt_search_direction

TOLERANCE = 1e-9


def report_line(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} ({detail})")


def bundled(name):
    return load_and_build(bundled_scenario_path(name))


def chain_problem(n, seed=0):
    dyn = lqr_chain_dynamics()
    st = dyn.state
    running = [
        IntegratedActionModel(
            dyn,
            (
                StateRegularization(st, np.zeros(6), 2.0, 3),
                ControlRegularization(3, 0.1, 6),
            ),
            0.05,
        )
        for _ in range(n)
    ]
    terminal = TerminalActionModel(st, (StateRegularization(st, np.zeros(6), 50.0, 0),))
    rng = np.random.default_rng(seed)
    return ShootingProblem(rng.standard_normal(6), running, terminal)


def test_criterion_1_gap_contraction_law():
    t0 = time.perf_counter()
    scenario, problem, X0, U0 = bundled("monoped_hop_warmstart_infeasible")

    def run(max_iters):
        return solve(problem, X0, U0, solver="fddp", max_iters=max_iters, tolerance=TOLERANCE)

    _, _, report = run(scenario.solver_options["max_iters"])
    # The gaps after iteration i, from a replay of the deterministic solve
    # stopped there and one evaluation of its iterate.
    gap_history = []
    for i in range(len(report.rows)):
        X, U, _ = run(i)
        gap_history.append(problem.calc(X, U)[1])
    worst = 0.0
    accepted_steps = 0
    for i in range(1, len(report.rows)):
        row = report.rows[i]
        if not row.accepted:
            continue
        alpha = row.step_length
        for g_old, g_new in zip(gap_history[i - 1], gap_history[i]):
            worst = max(worst, float(np.max(np.abs(g_new - (1.0 - alpha) * g_old))))
        accepted_steps += 1
    wall = time.perf_counter() - t0
    ok = worst <= 1e-10 and accepted_steps >= 1 and wall < 10.0
    report_line(
        1,
        "gap contraction law",
        ok,
        f"{accepted_steps} accepted steps, worst coordinate error {worst:.2e}, {wall:.1f}s",
    )
    assert ok


def test_criterion_2_newton_on_kkt_equivalence():
    t0 = time.perf_counter()
    _, problem, _, _ = bundled("lqr_chain")
    assert problem.N == 20
    worst = 0.0
    for guess in range(50):
        rng = np.random.default_rng(1000 + guess)
        X = [rng.standard_normal(problem.ndx) for _ in range(problem.N + 1)]
        U = [rng.standard_normal(m.nu) for m in problem.running_models]
        _, gaps = problem.calc(X, U)
        X_stack, U_stack = np.array(X), problem.stack_controls(U)
        problem.calc_diff(X_stack, U_stack)
        ws = SolverWorkspace(problem)
        ws.gaps = gaps
        backward_pass(problem, ws, 0.0)
        X_try, U_try, _, _ = forward_pass_fddp(problem, X_stack, U_stack, ws, 1.0)
        dX, dU, _ = kkt_search_direction(problem, X, U)
        for k in range(problem.N + 1):
            worst = max(worst, float(np.max(np.abs((X_try[k] - X[k]) - dX[k]))))
        for k in range(problem.N):
            worst = max(worst, float(np.max(np.abs((U_try[k] - U[k]) - dU[k]))))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and wall < 30.0
    report_line(
        2,
        "Newton-on-KKT equivalence",
        ok,
        f"50 infeasible guesses, worst deviation {worst:.2e}, {wall:.1f}s",
    )
    assert ok


def test_criterion_3_solver_coincidence_from_feasible_iterates():
    worst = 0.0
    for name in BUNDLED_SCENARIOS:
        _, problem, _, U0 = bundled(name)
        X_feas = problem.rollout(U0)
        results = {}
        for solver in ("ddp", "fddp"):
            _, fresh, _, _ = bundled(name)
            X, U, _ = solve(
                fresh,
                [x.copy() for x in X_feas],
                [u.copy() for u in U0],
                solver=solver,
                max_iters=1,
                tolerance=1e-300,
            )
            results[solver] = (X, U)
        for a, b in zip(results["ddp"][0], results["fddp"][0]):
            worst = max(worst, float(np.max(np.abs(a - b))))
        for a, b in zip(results["ddp"][1], results["fddp"][1]):
            if a.size:
                worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-12
    report_line(
        3,
        "DDP/FDDP coincidence",
        ok,
        f"{len(BUNDLED_SCENARIOS)} scenarios, worst trajectory deviation {worst:.2e}",
    )
    assert ok


def test_criterion_4_lqr_one_shot_optimality():
    _, problem, X0, U0 = bundled("lqr_chain")
    X, U, report = solve(problem, X0, U0, solver="fddp", max_iters=10, tolerance=TOLERANCE)

    _, fresh, Xf, Uf = bundled("lqr_chain")
    dX, dU, _ = kkt_search_direction(fresh, Xf, Uf)
    X_opt = [x + dx for x, dx in zip(Xf, dX)]
    U_opt = [u + du for u, du in zip(Uf, dU)]
    cost_opt, _ = fresh.calc(X_opt, U_opt)

    gap = abs(report.final_cost - cost_opt)
    ok = report.converged and report.iterations <= 2 and gap <= 1e-8
    report_line(
        4,
        "LQR optimality",
        ok,
        f"{report.iterations} iterations, cost offset from dense KKT {gap:.2e}",
    )
    assert ok


def test_criterion_5_derivative_suite():
    t0 = time.perf_counter()
    worst = 0.0
    blocks = failed = 0
    for name in BUNDLED_SCENARIOS:
        _, problem, _, _ = bundled(name)
        for _, _, err in check_problem_derivatives(problem, samples=100, seed=0):
            # Each block decides apart, so a NaN error fails (max drops it).
            failed += not err <= DERIVATIVE_TOLERANCE
            worst = max(worst, err)
            blocks += 1
    wall = time.perf_counter() - t0
    ok = not failed and wall < 60.0
    report_line(
        5,
        "derivative suite",
        ok,
        f"{blocks} blocks across {len(BUNDLED_SCENARIOS)} scenarios, "
        f"{failed} over {DERIVATIVE_TOLERANCE:g}, worst relative error {worst:.2e}, {wall:.1f}s",
    )
    assert ok


def test_criterion_6_impulse_physics():
    rng = np.random.default_rng(6)
    worst_rebound = 0.0
    worst_momentum = 0.0
    worst_energy_gain = 0.0
    for draw in range(1000):
        nv = int(rng.integers(1, 7))
        m = int(rng.integers(1, nv + 1))
        a = rng.standard_normal((nv, nv))
        mass = a @ a.T + nv * np.eye(nv)
        while True:
            jc = rng.standard_normal((m, nv))
            if np.linalg.svd(jc, compute_uv=False).min() >= 1e-3:
                break
        v_minus = rng.standard_normal(nv)
        e = 0.0 if draw % 2 == 0 else float(rng.uniform(0.0, 1.0))
        v_plus, _ = impulse_dynamics(mass, jc, v_minus, e)

        rebound = np.max(np.abs(jc @ v_plus + e * jc @ v_minus))
        worst_rebound = max(worst_rebound, float(rebound))

        dp = mass @ (v_plus - v_minus)
        coeffs, *_ = np.linalg.lstsq(jc.T, dp, rcond=None)
        worst_momentum = max(
            worst_momentum, float(np.max(np.abs(jc.T @ coeffs - dp)))
        )

        if e == 0.0:
            ke_before = 0.5 * v_minus @ mass @ v_minus
            ke_after = 0.5 * v_plus @ mass @ v_plus
            worst_energy_gain = max(worst_energy_gain, float(ke_after - ke_before))
    ok = worst_rebound <= 1e-10 and worst_momentum <= 1e-10 and worst_energy_gain <= 1e-12
    report_line(
        6,
        "impulse physics",
        ok,
        f"1000 draws, rebound {worst_rebound:.2e}, momentum rowspace {worst_momentum:.2e}, "
        f"energy gain {worst_energy_gain:.2e}",
    )
    assert ok


def test_criterion_7_expected_improvement_exactness():
    _, problem, _, U0 = bundled("lqr_chain")
    X = problem.rollout(U0)
    cost, gaps = problem.calc(X, U0)
    assert gap_l2_norm(gaps) == 0.0
    U_stack = problem.stack_controls(U0)
    problem.calc_diff(X, U_stack)
    ws = SolverWorkspace(problem)
    ws.gaps = gaps
    backward_pass(problem, ws, 0.0)
    worst = 0.0
    for alpha in STEP_LENGTHS:
        _, _, cost_try, _ = forward_pass_ddp(problem, X, U_stack, ws, alpha)
        d1, d2 = expected_improvement(problem, ws, X, X)
        predicted = d1 * alpha + 0.5 * d2 * alpha * alpha
        worst = max(worst, abs((cost_try - cost) - predicted))
    ok = worst <= 1e-9
    report_line(
        7,
        "expected-improvement exactness",
        ok,
        f"{len(STEP_LENGTHS)} step lengths on zero gaps, worst model error {worst:.2e}",
    )
    assert ok


def test_criterion_8_goldstein_gate_on_recorded_traces(tmp_path):
    # The gate's constants: a descent realizes 0.1 of the model, an ascent
    # stays within 2.0 of it.
    assert (GOLDSTEIN_LOW, GOLDSTEIN_HIGH) == (0.1, 2.0)
    runs = [(name, None) for name in BUNDLED_SCENARIOS]
    runs.append(("double_integrator", "ddp"))
    replayed = 0
    all_accept = True
    for i, (name, solver_override) in enumerate(runs):
        out = tmp_path / f"run_{i}"
        argv = ["solve", "--scenario", name, "--out", str(out)]
        if solver_override:
            argv += ["--solver", solver_override]
        rc = cli_main(argv)
        assert rc in (0, 2)
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[0]["iteration"]) == 0
        previous_cost = float(rows[0]["cost"])
        for row in rows[1:]:
            cost = float(row["cost"])
            if int(row["accepted"]):
                verdict = goldstein_accept(cost, previous_cost, float(row["expected_dj"]))
                all_accept = all_accept and verdict
                replayed += 1
            previous_cost = cost
    ok = all_accept and replayed >= len(runs)
    report_line(
        8,
        "acceptance-rule replay",
        ok,
        f"{replayed} accepted rows from {len(runs)} trace files all re-accept",
    )
    assert ok


def test_criterion_9_toy_scale_convergence():
    _, pend, Xp, Up = bundled("pendulum_swingup")
    _, _, report_p = solve(pend, Xp, Up, solver="fddp", max_iters=100, tolerance=TOLERANCE)

    _, hop, Xh, Uh = bundled("monoped_hop")
    _, _, report_h = solve(hop, Xh, Uh, solver="fddp", max_iters=150, tolerance=TOLERANCE)
    open_iterations = sum(1 for r in report_h.rows[1:] if r.gap_l2 > TOLERANCE)

    _, hop2, Xh2, Uh2 = bundled("monoped_hop")
    _, _, report_d = solve(hop2, Xh2, Uh2, solver="ddp", max_iters=10, tolerance=TOLERANCE)
    ddp_max_gap = max(r.gap_l2 for r in report_d.rows)

    ok = (
        report_p.converged
        and report_p.iterations <= 100
        and report_h.converged
        and report_h.iterations <= 150
        and open_iterations >= 2
        and ddp_max_gap <= 1e-12
    )
    report_line(
        9,
        "toy-scale convergence",
        ok,
        f"pendulum {report_p.iterations} iters, hop {report_h.iterations} iters, "
        f"{open_iterations} open-gap iterations, DDP max gap {ddp_max_gap:.2e}",
    )
    assert ok


def measure_slope(sizes, trials):
    medians = []
    gc.disable()
    try:
        for n in sizes:
            problem = chain_problem(n)
            times = []
            for _ in range(trials):
                t0 = time.perf_counter()
                _, _, report = solve(
                    problem, solver="fddp", max_iters=2, tolerance=1e-300
                )
                times.append((time.perf_counter() - t0) / report.iterations)
            medians.append(float(np.median(times)))
    finally:
        gc.enable()
        gc.collect()
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    return slope, medians


def test_criterion_10_linear_scaling_in_horizon():
    sizes = (25, 50, 100, 200)
    slope, medians = measure_slope(sizes, trials=11)
    if not 0.7 <= slope <= 1.3:
        # One re-measure with more samples to shrug off scheduler noise; the
        # asserted range stays the same.
        slope, medians = measure_slope(sizes, trials=15)
    ok = 0.7 <= slope <= 1.3
    shown = ", ".join(f"N={n}: {m * 1e3:.1f}ms" for n, m in zip(sizes, medians))
    report_line(10, "linear scaling", ok, f"fit slope {slope:.2f} ({shown})")
    assert ok
