"""The planted-defect catalogue: which tier-1 tests catch which fault.

Each entry of DEFECTS plants one fault in the library as (file, old text,
new text, what it breaks). Run

    python tests/defects.py

from anywhere: it runs tier-1 (less the freshness check below) once on a
clean temporary copy of the repository, then applies each defect alone to a
fresh copy and runs tier-1 there, one run at a time, recording the ids of
the tests that fail. A defect is caught when at least one test fails and
every test of the clean run is still collected, so a defect that breaks
import or collection catches nothing, and neither does a run over
RUN_TIMEOUT_S. The script prints one line per defect followed by the ids of
its failing tests, one per line, and exits 1 when a defect is caught by no
test. It reads the repository and writes only in its temporary copies.

pytest does not collect this file. Tier-1 checks only that every entry still
applies (`tests/test_design_rules.py`): its file exists, its old text occurs
there exactly once, and the planted file still compiles. A change that moves
planted code updates its entry in the same change.

The catalogue decides which tests stay: a test case may be removed, or
merged into a table, only if it catches at least one defect and every
defect it catches is also caught by a test that stays. A case that catches
nothing marks a gap in the catalogue, not a redundant test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import namedtuple
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# Tier-1, less the catalogue's own freshness check, which fails on every
# planted copy by design.
FRESHNESS = "tests/test_design_rules.py::test_the_planted_defect_applies_to_the_source"
TIER1 = [
    "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
    f"--deselect={FRESHNESS}",
]
RUN_TIMEOUT_S = 900

Defect = namedtuple("Defect", "name file old new breaks")

DEFECTS = [
    # -- errors ------------------------------------------------------------
    Defect(
        "finite_tests_the_first_entry_only",
        "src/fddp/errors.py",
        "if not all(map(isfinite, array.ravel().tolist())):",
        "if not all(map(isfinite, array.ravel().tolist()[:1])):",
        "the finiteness check of numeric arguments reads only their first entry",
    ),
    # -- manifolds ---------------------------------------------------------
    Defect(
        "difference_without_wrap",
        "src/fddp/manifolds.py",
        "return self._wrapped(np.subtract(x1, x0, out=out))",
        "return np.subtract(x1, x0, out=out)",
        "difference no longer wraps its angle coordinates into (-pi, pi]",
    ),
    Defect(
        "integrate_without_wrap",
        "src/fddp/manifolds.py",
        "return self._wrapped(np.add(x, dx, out=out))",
        "return np.add(x, dx, out=out)",
        "integrate leaves angles outside (-pi, pi]",
    ),
    Defect(
        "composite_angle_offsets_dropped",
        "src/fddp/manifolds.py",
        "np.concatenate([p.angles + off for p, off in zip(self.parts, offsets)])",
        "np.concatenate([p.angles for p in self.parts])",
        "a composite manifold wraps each part's angle at the part's own index",
    ),
    # -- numdiff -----------------------------------------------------------
    Defect(
        "numdiff_output_without_difference",
        "src/fddp/numdiff.py",
        "columns.append((dp - dm) / (2.0 * STEP))",
        "columns.append((fp - fm) / (2.0 * STEP))",
        "finite differences of a manifold-valued output subtract coordinates, unwrapped",
    ),
    # -- systems -----------------------------------------------------------
    Defect(
        "pendulum_gravity_partial_sign",
        "src/fddp/systems.py",
        "dq = (self._torque * np.cos(q[..., :1]))[..., None]",
        "dq = (-self._torque * np.cos(q[..., :1]))[..., None]",
        "the pendulum's d bias/dq has the wrong sign",
    ),
    Defect(
        "leg_speed_partial_halved",
        "src/fddp/systems.py",
        "rates = np.stack([2.0 * w1, 2.0 * w2], axis=-1)",
        "rates = np.stack([w1, w2], axis=-1)",
        "the leg's d bias/dv drops the factor 2 of d w^2/dw",
    ),
    Defect(
        "leg_drift_velocity_partial_halved",
        "src/fddp/systems.py",
        "drift_v = 2.0 * (hessian @ v_row[..., None])[..., 0]",
        "drift_v = (hessian @ v_row[..., None])[..., 0]",
        "the leg's frame drift (H v) v has half its velocity partial",
    ),
    Defect(
        "lqr_chain_coupling_sign",
        "src/fddp/systems.py",
        "K[i, i - 1] = stiffness",
        "K[i, i - 1] = -stiffness",
        "the spring chain couples each mass to the one before with the wrong sign",
    ),
    Defect(
        "body_count_accepts_zero",
        "src/fddp/systems.py",
        "if not (number >= 1.0 and number.is_integer()):",
        "if not (number >= 0.0 and number.is_integer()):",
        "a system with zero dimensions or zero masses passes its parameter check",
    ),
    # -- contact -----------------------------------------------------------
    Defect(
        "baumgarte_position_sign",
        "src/fddp/contact.py",
        "- contacts.alpha * (contacts.reference - placement_current)",
        "+ contacts.alpha * (contacts.reference - placement_current)",
        "the Baumgarte position term pushes the foot away from its reference",
    ),
    Defect(
        "impulse_restitution_dropped",
        "src/fddp/contact.py",
        "z = _cholesky_solve(mhat_factor, (1.0 + e) * (Jc @ v_minus))",
        "z = _cholesky_solve(mhat_factor, Jc @ v_minus)",
        "the impulse ignores restitution: every impact is plastic",
    ),
    Defect(
        "contact_force_sign",
        "src/fddp/contact.py",
        "    return vdot, -z\n\n\ndef _kkt_solve_stacked",
        "    return vdot, z\n\n\ndef _kkt_solve_stacked",
        "the contact force is returned with the multiplier's sign",
    ),
    Defect(
        "stacked_kkt_rhs_sign",
        "src/fddp/contact.py",
        "z = np.linalg.solve(mhat, Jc @ minv_b1 - b2)",
        "z = np.linalg.solve(mhat, Jc @ minv_b1 + b2)",
        "the stacked saddle-point solve takes the constraint row with the wrong sign",
    ),
    Defect(
        "rank_pivot_test_dropped",
        "src/fddp/contact.py",
        "if pivot < RANK_PIVOT_TOL:",
        "if pivot < 0.0:",
        "a dependent constraint set passes the node solve's rank test",
    ),
    # -- costs -------------------------------------------------------------
    Defect(
        "state_scales_once_in_hessian",
        "src/fddp/costs.py",
        "self._hessian = np.diag(self._w_scales * scales)",
        "self._hessian = np.diag(self._w_scales)",
        "a scaled state regularizer's Hessian holds the scales once, not squared",
    ),
    Defect(
        "control_hessian_unweighted",
        "src/fddp/costs.py",
        "self._hessian = self.weight * np.eye(nu)",
        "self._hessian = np.eye(nu)",
        "the control regularizer's Hessian drops its weight",
    ),
    Defect(
        "tracking_jacobian_in_velocity_columns",
        "src/fddp/costs.py",
        "rx[..., : jq.shape[-1]] = jq",
        "rx[..., -jq.shape[-1] :] = jq",
        "a frame or CoM tracking Jacobian lands in the velocity columns",
    ),
    # -- action ------------------------------------------------------------
    Defect(
        "f_u_block_rows_swapped",
        "src/fddp/action.py",
        "np.multiply(dt * dt, a_u, out=f_u[:, :nv])\n"
        "            np.multiply(dt, a_u, out=f_u[:, nv:])",
        "np.multiply(dt, a_u, out=f_u[:, :nv])\n"
        "            np.multiply(dt * dt, a_u, out=f_u[:, nv:])",
        "f_u = [dt^2 a_u; dt a_u] has its two block rows exchanged (a transposed f_u)",
    ),
    Defect(
        "f_x_position_row_single_dt",
        "src/fddp/action.py",
        "np.add(self._eye_v, dt * dt * a_q, out=f_x[:, :nv, :nv])",
        "np.add(self._eye_v, dt * a_q, out=f_x[:, :nv, :nv])",
        "dq_next/dq takes dt a_q where the semi-implicit step gives dt^2 a_q",
    ),
    Defect(
        "explicit_euler_configuration",
        "src/fddp/action.py",
        "dynamics.system.config.integrate(x[:nq], dt * v_next, out=xnext[:nq])",
        "dynamics.system.config.integrate(x[:nq], dt * x[nq:], out=xnext[:nq])",
        "the configuration steps along the old velocity: not the step f_x describes",
    ),
    Defect(
        "cost_without_half",
        "src/fddp/action.py",
        'total += 0.5 * term.weight * np.einsum("ki,ki->k", r, r)',
        'total += term.weight * np.einsum("ki,ki->k", r, r)',
        "a node's cost is twice what its gradient integrates to",
    ),
    Defect(
        "baumgarte_velocity_partial_sign",
        "src/fddp/action.py",
        "da0_dv.append(drift_v - contact.beta * J)",
        "da0_dv.append(drift_v + contact.beta * J)",
        "the contact derivative has the wrong sign on the Baumgarte velocity gain",
    ),
    Defect(
        "impulse_closure_restitution_dropped",
        "src/fddp/action.py",
        "closure = v_plus + self.restitution * v",
        "closure = v_plus",
        "the impulse derivative drops the restitution term of Jc (v_plus + e v)",
    ),
    Defect(
        "calc_stack_failure_names_the_next_row",
        "src/fddp/action.py",
        "exc.row = row",
        "exc.row = row + 1",
        "a node that fails in a stack's node-by-node forward step is reported as the row after it",
    ),
    # -- problem -----------------------------------------------------------
    Defect(
        "pull_back_gap_off_by_one",
        "src/fddp/problem.py",
        "state.integrate(data.xnext, pull[k + 1], out=states[k + 1])",
        "state.integrate(data.xnext, pull[k], out=states[k + 1])",
        "the rollout pulls node k's output back along the gap of node k, not k + 1",
    ),
    Defect(
        "gap_sign",
        "src/fddp/problem.py",
        "return cost, self.state.difference(X, landed)",
        "return cost, self.state.difference(landed, X)",
        "each gap points from the landing point to the guess",
    ),
    Defect(
        "sweep_landing_copy_off_by_one",
        "src/fddp/problem.py",
        "states[lo + 1 : hi + 1] = stack.xnext",
        "states[lo:hi] = stack.xnext",
        "a sweep without a pull-back copies each run's landing points one node early",
    ),
    Defect(
        "gap_landing_gather_off_by_one",
        "src/fddp/problem.py",
        "landed[lo + 1 : hi + 1] = stack.xnext",
        "landed[lo:hi] = stack.xnext",
        "the gaps compare each run's landing points with the states one node early",
    ),
    Defect(
        "terminal_cost_dropped",
        "src/fddp/problem.py",
        "cost = float(cost + node_costs[self.N])",
        "cost = float(cost)",
        "the total cost leaves out the terminal node",
    ),
    Defect(
        "sweep_failure_names_the_next_node",
        "src/fddp/problem.py",
        "model.calc(data, x, u)\n"
        "            except NumericalFailure as exc:\n"
        "                raise NumericalFailure(str(exc), node=k) from exc",
        "model.calc(data, x, u)\n"
        "            except NumericalFailure as exc:\n"
        "                raise NumericalFailure(str(exc), node=k + 1) from exc",
        "a node that fails in a rollout or a trial is reported as the node after it",
    ),
    Defect(
        "calc_failure_names_the_run_row",
        "src/fddp/problem.py",
        "node=lo + exc.row",
        "node=exc.row",
        "a node that fails at the fddp start is named by its row in its run, not its node",
    ),
    Defect(
        "guess_state_named_one_past",
        "src/fddp/problem.py",
        '_entry(f"X[{k}]", check, x)',
        '_entry(f"X[{k + 1}]", check, x)',
        "a malformed state of a guess is reported as the entry after it",
    ),
    Defect(
        "guess_control_named_one_past",
        "src/fddp/problem.py",
        '_entry(f"U[{k}]", _check_control, *entry)',
        '_entry(f"U[{k + 1}]", _check_control, *entry)',
        "a malformed control of a guess is reported as the entry after it",
    ),
    Defect(
        "nonfinite_cost_names_the_last_node",
        "src/fddp/problem.py",
        "node=int(bad[0]) if len(bad) else None",
        "node=int(bad[-1]) if len(bad) else None",
        "a non-finite total cost names the last node whose own cost is not finite, not the first",
    ),
    # -- solver ------------------------------------------------------------
    Defect(
        "pull_back_factor_halved",
        "src/fddp/solver.py",
        "-shrink * ws.gaps if shrink else None",
        "-0.5 * shrink * ws.gaps if shrink else None",
        "fddp contracts each gap by (1 - alpha) / 2 instead of (1 - alpha)",
    ),
    Defect(
        "goldstein_ascent_uses_b1",
        "src/fddp/solver.py",
        "return change <= GOLDSTEIN_HIGH * dj",
        "return change <= GOLDSTEIN_LOW * dj",
        "the Goldstein test's ascent branch uses GOLDSTEIN_LOW instead of GOLDSTEIN_HIGH",
    ),
    Defect(
        "d2_vxx_f_sign",
        "src/fddp/solver.py",
        "2.0 * vxx_dx - vxx_f",
        "2.0 * vxx_dx + vxx_f",
        "the expected improvement's d2 adds V_xx f where it subtracts it",
    ),
    Defect(
        "mu_left_out_of_q_uu",
        "src/fddp/solver.py",
        "factor = _cholesky(add(q_uu, mu_eye, out=regularized))",
        "factor = _cholesky(q_uu)",
        "the regularizer mu is never added to Q_uu",
    ),
    Defect(
        "gap_deflection_off_by_one",
        "src/fddp/solver.py",
        "stack.Fz[:, :, 0] = ws.gaps[lo + 1 : hi + 1]",
        "stack.Fz[:, :, 0] = ws.gaps[lo:hi]",
        "the backward pass deflects node k's Value gradient across gap k, not k + 1",
    ),
    Defect(
        "indefinite_node_reported_as_node_0",
        "src/fddp/solver.py",
        "raise NotPositiveDefinite(k) from exc",
        "raise NotPositiveDefinite(0) from exc",
        "a control Hessian that fails its Cholesky is blamed on node 0",
    ),
    Defect(
        "d1_without_policy_term",
        "src/fddp/solver.py",
        'return float(d1 + np.einsum("ki,ki->", ws.k_ff, ws.Q_u))',
        "return float(d1)",
        "d1 drops k^T Q_u, so a feasible iterate stops at once",
    ),
    Defect(
        "step_lengths_cut_at_2_to_the_minus_6",
        "src/fddp/solver.py",
        "STEP_LENGTHS = tuple(0.5**i for i in range(11))",
        "STEP_LENGTHS = tuple(0.5**i for i in range(7))",
        "the line search gives up after alpha = 2^-6 instead of 2^-10",
    ),
    Defect(
        "mu_kept_on_acceptance",
        "src/fddp/solver.py",
        "mu = max(mu / 10.0, REG_MIN)",
        "mu = max(mu, REG_MIN)",
        "an accepted step leaves mu where it is, so the regularization only grows",
    ),
    Defect(
        "nonfinite_derivative_blamed_where_met",
        "src/fddp/solver.py",
        "node = next((j for j in range(last, k, -1) if not _finite_node(ws, j)), k)",
        "node = k",
        "a non-finite derivative is blamed on the node where the backward pass meets it, not "
        "the node it entered at",
    ),
    Defect(
        "derivatives_redone_after_a_rejected_search",
        "src/fddp/solver.py",
        "need_derivatives = accepted",
        "need_derivatives = True",
        "a rejected search re-derives the iterate from the last trial's dynamics solutions",
    ),
    # -- scenarios ---------------------------------------------------------
    Defect(
        "impulse_at_the_wrong_boundary",
        "src/fddp/scenarios.py",
        "if phase.start in switch_at:\n            switch = switch_at[phase.start]",
        "if phase.end in switch_at:\n            switch = switch_at[phase.end]",
        "each impulse node lands at the start of the phase before its switch",
    ),
    Defect(
        "interpolation_stops_short",
        "src/fddp/scenarios.py",
        "(np.arange(M + 1) / M)[:, None] * direction",
        "(np.arange(M + 1) / (M + 1))[:, None] * direction",
        "the interpolated warm start ends one step short of its target",
    ),
    Defect(
        "one_node_phase_gap_accepted",
        "src/fddp/scenarios.py",
        "if cur.start > prev.end:",
        "if cur.start > prev.end + 1:",
        "a scenario whose phases leave one node uncovered loads",
    ),
    Defect(
        "unknown_field_reported_at_its_parent",
        "src/fddp/scenarios.py",
        'location=key if where is None else f"{where}.{key}"',
        "location=where",
        "an unknown field is reported at its parent object's path, not its own",
    ),
    Defect(
        "scenario_number_accepts_nan",
        "src/fddp/scenarios.py",
        "if not abs(value) <= sys.float_info.max:",
        "if abs(value) > sys.float_info.max:",
        "a NaN number in a scenario document passes the loader",
    ),
    # -- cli ---------------------------------------------------------------
    Defect(
        "max_iters_exit_code",
        "src/fddp/cli.py",
        "if report.termination == \"max_iters\":\n        return EXIT_MAX_ITERS",
        "if report.termination == \"max_iters\":\n        return EXIT_SOLVER_FAILURE",
        "fddp solve exits 3 (solver failure) when the iteration budget runs out",
    ),
    Defect(
        "derivative_check_tolerance",
        "src/fddp/cli.py",
        "if err > DERIVATIVE_TOLERANCE:",
        "if err > 1.0:",
        "check-derivatives passes derivative errors up to 100 %",
    ),
    Defect(
        "derivative_audit_reads_the_first_sample",
        "src/fddp/cli.py",
        "float(err.max())",
        "float(err[0])",
        "check-derivatives reports each block's error at its first sample only",
    ),
    Defect(
        "normalized_column_one_at_zero_reference",
        "src/fddp/cli.py",
        "if reference == 0.0:\n        return 0.0",
        "if reference == 0.0:\n        return 1.0",
        "a trace column normalized by a zero first value reads 1 instead of 0",
    ),
    Defect(
        "gap_column_normalized_by_cost",
        "src/fddp/cli.py",
        "repr(float(_normalized(r.gap_l2, gap0)))",
        "repr(float(_normalized(r.gap_l2, cost0)))",
        "trace.csv's gap_l2_norm column is divided by the first cost",
    ),
]


def planted(defect: Defect, root: Path) -> None:
    """Apply `defect` to the copy of the repository at `root`."""
    path = root / defect.file
    path.write_text(path.read_text().replace(defect.old, defect.new, 1))


def tier1(root: Path) -> tuple[set[str], set[str], float]:
    """Run tier-1 in the copy at `root`: (ids run, ids failed, seconds)."""
    report = root / "tier1.xml"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *TIER1, f"--junitxml={report}"],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=RUN_TIMEOUT_S, check=False,
    )
    seconds = time.perf_counter() - start
    ran, failed = set(), set()
    if not report.exists():  # pytest stopped before it wrote its report
        return ran, failed, seconds
    for case in ET.parse(report).iter("testcase"):
        # classname "tests.test_x" and name "test_y[...]" -> tests/test_x.py::test_y[...]
        test = f"{case.get('classname').replace('.', '/')}.py::{case.get('name')}"
        ran.add(test)
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(test)
    return ran, failed, seconds


def run(defect: Defect | None) -> tuple[set[str], set[str], float]:
    """tier1 on a fresh copy of the repository, with `defect` planted."""
    with tempfile.TemporaryDirectory(prefix="fddp-defect-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(
            REPO, root, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")
        )
        if defect is not None:
            planted(defect, root)
        return tier1(root)


def main() -> int:
    tests, failed, seconds = run(None)
    if not tests or failed:
        print(f"the clean run fails {len(failed)} of {len(tests)} tests", file=sys.stderr)
        return 2
    print(f"clean: {len(tests)} tests pass in {seconds:.1f} s", flush=True)
    missed = []
    for defect in DEFECTS:
        try:
            ran, failed, seconds = run(defect)
            outcome = "caught" if failed else "missed"
            if not ran >= tests:
                failed, outcome = set(), "missed (import or collection broken)"
        except subprocess.TimeoutExpired:
            failed, seconds, outcome = set(), RUN_TIMEOUT_S, f"missed (over {RUN_TIMEOUT_S} s)"
        if outcome != "caught":
            missed.append(defect.name)
        print(f"{defect.name}: {outcome}, {len(failed)} failing, {seconds:.1f} s")
        for test in sorted(failed):
            print(f"  {test}")
        sys.stdout.flush()
    print(f"{len(DEFECTS) - len(missed)} of {len(DEFECTS)} defects caught")
    if missed:
        print(f"caught by no test: {', '.join(missed)}", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
