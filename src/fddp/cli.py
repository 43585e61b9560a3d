"""Command-line harness: solve scenarios and check derivatives.

Two subcommands share the scenario loader:

* ``solve`` runs one solver on one scenario and writes ``trace.csv`` (one row
  per solver iteration, plus columns normalized to iteration 0),
  ``solution.csv`` (per-node state and control coordinates) and
  ``summary.json`` into the output directory.
* ``check-derivatives`` compares every distinct node model's analytic
  derivative blocks (f_x, f_u, l_x, l_u and the cost Hessian blocks l_xx,
  l_xu, l_uu) against central finite differences at seeded random points.

Timings live in the benchmark harness (``perfbench/``), not here.

Exit codes: 0 converged / all checks passed, 1 derivative check failed,
2 iteration budget exhausted, 3 solver failure, 4 I/O error, 5 configuration
or validation error (including a malformed command line). `main` is the one
error boundary: a library error (`FddpError`) that a command raises is
printed as ``error: <message>`` and exits 5.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import numdiff
from .errors import FddpError
from .scenarios import (
    BUNDLED_SCENARIOS,
    build_problem,
    bundled_scenario_path,
    load_and_build,
    load_scenario,
)
from .solver import solve

EXIT_CONVERGED = 0
EXIT_CHECK_FAILED = 1
EXIT_MAX_ITERS = 2
EXIT_SOLVER_FAILURE = 3
EXIT_IO = 4
EXIT_CONFIG = 5

DERIVATIVE_TOLERANCE = 1e-4

TRACE_COLUMNS = (
    "iteration",
    "cost",
    "gap_l2",
    "step_length",
    "regularization",
    "expected_dj",
    "accepted",
    "cost_norm",
    "gap_l2_norm",
)


def _resolve_scenario_path(spec: str) -> Path:
    """Accept either a filesystem path or the name of a bundled scenario."""
    path = Path(spec)
    if path.exists():
        return path
    if spec in BUNDLED_SCENARIOS:
        return bundled_scenario_path(spec)
    return path  # let load_scenario produce the error message


def _normalized(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0
    return value / reference


def write_trace_csv(path, report) -> None:
    """Iteration trace with extra columns normalized to the iteration-0 row."""
    rows = report.rows
    cost0 = rows[0].cost if rows else float("nan")
    gap0 = rows[0].gap_l2 if rows else float("nan")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.iteration,
                    repr(float(r.cost)),
                    repr(float(r.gap_l2)),
                    repr(float(r.step_length)),
                    repr(float(r.regularization)),
                    repr(float(r.expected_dj)),
                    r.accepted,
                    repr(float(_normalized(r.cost, cost0))),
                    repr(float(_normalized(r.gap_l2, gap0))),
                ]
            )


def write_solution_csv(path, problem, X, U) -> None:
    """Per-node state and control coordinates; empty cells where nu = 0."""
    nx = problem.state.nx
    nu_max = problem.nu_max
    header = ["node"] + [f"x{i}" for i in range(nx)] + [f"u{i}" for i in range(nu_max)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(problem.N + 1):
            row = [k] + [repr(float(v)) for v in X[k]]
            if k < problem.N:
                u = U[k]
                row += [repr(float(v)) for v in u] + [""] * (nu_max - len(u))
            else:
                row += [""] * nu_max
            writer.writerow(row)


def _solver_settings(scenario, args) -> dict:
    """The scenario's solver options (solver, max_iters, tolerance: the
    keyword arguments of `solve`), overridden by the command line's."""
    opts = dict(scenario.solver_options)
    if args.solver:
        opts["solver"] = args.solver
    if args.max_iters is not None:
        opts["max_iters"] = args.max_iters
    if args.tol is not None:
        opts["tolerance"] = args.tol
    return opts


def cmd_solve(args) -> int:
    scenario, problem, X0, U0 = load_and_build(_resolve_scenario_path(args.scenario))
    opts = _solver_settings(scenario, args)
    t0 = time.perf_counter()
    X, U, report = solve(problem, X0, U0, **opts)
    wall = time.perf_counter() - t0

    out_dir = Path(args.out)
    summary = {
        "scenario": scenario.name,
        "solver": opts["solver"],
        "max_iters": opts["max_iters"],
        "tolerance": opts["tolerance"],
        "termination": report.termination,
        "iterations": report.iterations,
        "final_cost": report.final_cost,
        "final_gap_l2": report.rows[-1].gap_l2 if report.rows else float("nan"),
        "wall_time_s": wall,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trace_csv(out_dir / "trace.csv", report)
        write_solution_csv(out_dir / "solution.csv", problem, X, U)
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    print(
        f"{scenario.name} [{opts['solver']}]: {report.termination} "
        f"after {report.iterations} iterations, cost {report.final_cost:.6e}, "
        f"{wall:.2f}s -> {out_dir}"
    )
    if report.converged:
        return EXIT_CONVERGED
    if report.termination == "max_iters":
        return EXIT_MAX_ITERS
    return EXIT_SOLVER_FAILURE


# ---------------------------------------------------------------------------
# Derivative checking
# ---------------------------------------------------------------------------


def _unique_models(problem):
    """Distinct action models with a label naming where they first appear:
    each running model once, labelled by its first node, then the terminal model."""
    terminal = problem.terminal_model
    return [
        (f"node {lo} ({type(model).__name__})", model) for model, lo in problem.first_nodes().items()
    ] + [(f"terminal ({type(terminal).__name__})", terminal)]


def check_problem_derivatives(problem, samples: int = 100, seed: int = 0):
    """Compare analytic derivative blocks against central finite differences.

    Draws `samples` random state/control points per distinct node model
    (tangent perturbations of the measured initial state, standard-normal
    controls) and differentiates them as one stack: one `calc_stack` (the
    node step the solver runs, node by node) and one `calc_diff` give the
    analytic blocks of all of them, and each perturbation of a central
    difference with step `numdiff.STEP` (1e-6) costs one `calc_stack`
    (f_x, f_u), one stacked `model.cost` (l_x, l_u) or one stacked
    `term.residual` of each cost term over all samples. Every cost term is
    Gauss-Newton, so the Hessian blocks l_xx, l_xu and l_uu are compared
    with cost_scale * sum over the terms of weight * r_a^T r_b, from the
    differences of each term's residual in x (through the state manifold)
    and in u. The error metric per block is the max over samples of
    max|analytic - fd| / max(1, max|fd|).

    Returns a list of (label, block, max_relative_error) triples, one per
    derivative block of each distinct model; a model without controls has
    no f_u, l_u, l_xu or l_uu.
    """
    state = problem.state
    rng = np.random.default_rng(seed)
    results = []
    for label, model in _unique_models(problem):
        points = [
            (
                state.integrate(problem.x0_measured, 0.3 * rng.standard_normal(state.ndx)),
                rng.standard_normal(model.nu),
            )
            for _ in range(samples)
        ]
        X = np.array([x for x, _ in points])
        U = np.array([u for _, u in points])
        stack = model.calc_stack(model.create_stack(samples), X, U)
        model.calc_diff(stack, X, U)

        # calc_stack writes only xnext and dyn, so the derivatives stay.
        def next_states(Xv, Uv):
            return model.calc_stack(stack, Xv, Uv).xnext.copy()

        ndx = state.ndx
        l_zz = np.zeros((samples, ndx + model.nu, ndx + model.nu))
        for term in model.costs:
            r_z = numdiff.jacobian(lambda Xv: term.residual(Xv, U), X, input_manifold=state)
            if model.nu:
                r_z = np.concatenate([r_z, numdiff.jacobian(lambda Uv: term.residual(X, Uv), U)], -1)
            l_zz += model.cost_scale * term.weight * (np.swapaxes(r_z, -1, -2) @ r_z)
        fd = {
            "f_x": numdiff.jacobian(
                lambda Xv: next_states(Xv, U), X, input_manifold=state, output_manifold=state
            ),
            "l_x": numdiff.jacobian(lambda Xv: model.cost(Xv, U)[:, None], X, input_manifold=state)[:, 0],
            "l_xx": l_zz[:, :ndx, :ndx],
        }
        if model.nu:
            fd["f_u"] = numdiff.jacobian(lambda Uv: next_states(X, Uv), U, output_manifold=state)
            fd["l_u"] = numdiff.jacobian(lambda Uv: model.cost(X, Uv)[:, None], U)[:, 0]
            fd["l_xu"], fd["l_uu"] = l_zz[:, :ndx, ndx:], l_zz[:, ndx:, ndx:]
        for name in ("f_x", "f_u", "l_x", "l_u", "l_xx", "l_xu", "l_uu"):
            if name in fd:
                approx = fd[name].reshape(samples, -1)
                err = np.abs(getattr(stack, name).reshape(samples, -1) - approx).max(1, initial=0.0)
                err /= np.maximum(1.0, np.abs(approx).max(1, initial=0.0))
                results.append((label, name, float(err.max())))
    return results


def cmd_check_derivatives(args) -> int:
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_CONFIG
    scenario = load_scenario(_resolve_scenario_path(args.scenario))
    results = check_problem_derivatives(build_problem(scenario), samples=args.samples, seed=args.seed)
    failed = []
    for label, block, err in results:
        ok = err <= DERIVATIVE_TOLERANCE  # false for NaN: a NaN error fails
        status = "ok" if ok else "FAIL"
        print(f"{status:4s} {scenario.name}: {label} {block}: max rel err {err:.3e}")
        if not ok:
            failed.append((label, block, err))
    if failed:
        # A non-finite error ranks above every finite one.
        worst = max(failed, key=lambda t: (not np.isfinite(t[2]), t[2]))
        print(
            f"derivative check failed: {len(failed)} block(s) over {DERIVATIVE_TOLERANCE:g}, "
            f"worst {worst[0]} {worst[1]} at {worst[2]:.3e}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    print(f"derivative check passed: {len(results)} blocks within {DERIVATIVE_TOLERANCE:g}")
    return EXIT_CONVERGED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fddp",
        description="Trajectory optimization over contact-rich mechanical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solver on a scenario and write CSV outputs")
    p_solve.add_argument("--scenario", required=True,
                         help="scenario file path or bundled scenario name")
    p_solve.add_argument("--solver", choices=("ddp", "fddp"), default=None,
                         help="override the scenario's solver choice")
    p_solve.add_argument("--max-iters", type=int, default=None, dest="max_iters")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check-derivatives",
                             help="finite-difference audit of analytic derivatives")
    p_check.add_argument("--scenario", required=True)
    p_check.add_argument("--samples", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check_derivatives)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage message; its status 2 for a usage
        # error would read here as "iteration budget exhausted".
        return EXIT_CONFIG if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except FddpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
