"""The planted-defect catalogue: which tier-1 tests catch which fault.

Each entry of DEFECTS plants one fault in the library as (file, old text,
new text, what it breaks). Run

    python tests/defects.py

from anywhere: it runs tier-1 (less the freshness check below) once on a
clean temporary copy of the repository, alone, then applies each defect
alone to a fresh copy and runs tier-1 there, recording the ids of the tests
that fail. The planted copies run concurrently, one per CPU this process
may use (`os.sched_getaffinity`), each with one BLAS thread; `taskset -c 0
python tests/defects.py` runs them one at a time. A defect is caught when
at least one test fails and every test of the clean run is still collected,
so a defect that breaks import or collection catches nothing, and neither
does a run over RUN_TIMEOUT_S. The script prints, in catalogue order, one
line per defect followed by the ids of its failing tests, one per line, and
exits 1 when a defect is caught by no test. It reads the repository and
writes only in its temporary copies.

pytest does not collect this file. Tier-1 checks only that every entry still
applies (`tests/test_design_rules.py`): its file exists, its old text occurs
there exactly once, and the planted file still compiles. A change that moves
planted code updates its entry in the same change.

The catalogue decides which tests stay. A test case may be removed, or
folded into a kept table as one more input, only if both hold: every defect
it catches is also caught by a kept case, and every assertion it makes is
made by a kept case, which the change names. A case that catches nothing
stays: it marks a gap in the catalogue, not a redundant test.
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
from concurrent.futures import ThreadPoolExecutor
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

# Each module of src/fddp with its defects: (name, old text, new text, what
# it breaks).
CATALOGUE = {
    "errors": [
        (
            "finite_tests_the_first_entry_only",
            "if not all(map(isfinite, array.ravel().tolist())):",
            "if not all(map(isfinite, array.ravel().tolist()[:1])):",
            "the finiteness check of numeric arguments reads only their first entry",
        ),
        (
            "finite_error_drops_the_name",
            'raise error(f"{name} {text}") if error else',
            "raise error(text) if error else",
            "a non-finite argument's error of a chosen type leaves out the argument's name",
        ),
        (
            "parameter_error_drops_the_name",
            'super().__init__(f"{name} {message}")',
            "super().__init__(message)",
            "a parameter error's message leaves out the parameter's name",
        ),
    ],
    "manifolds": [
        (
            "difference_without_wrap",
            "return self._wrapped(np.subtract(x1, x0, out=out))",
            "return np.subtract(x1, x0, out=out)",
            "difference no longer wraps its angle coordinates into (-pi, pi]",
        ),
        (
            "integrate_ignores_out",
            "return self._wrapped(np.add(x, dx, out=out))",
            "return self._wrapped(np.add(x, dx))",
            "integrate returns a new array and leaves the `out` it was given unwritten",
        ),
        (
            "stacked_operators_skip_the_wrap",
            "y.T[self.angles] = _wrap_angle(y.T[self.angles])",
            "y.T[self.angles] = y.T[self.angles]",
            "integrate and difference on a stack of points leave its angles unwrapped",
        ),
        (
            "check_point_tests_the_size_only",
            "if arr.shape != (self.nx,):",
            "if arr.size != self.nx:",
            "a point of the right size in the wrong shape passes the entry check",
        ),
        (
            "integrate_without_wrap",
            "return self._wrapped(np.add(x, dx, out=out))",
            "return np.add(x, dx, out=out)",
            "integrate leaves angles outside (-pi, pi]",
        ),
        (
            "composite_angle_offsets_dropped",
            "np.concatenate([p.angles + off for p, off in zip(self.parts, offsets)])",
            "np.concatenate([p.angles for p in self.parts])",
            "a composite manifold wraps each part's angle at the part's own index",
        ),
    ],
    "numdiff": [
        (
            "numdiff_output_without_difference",
            "columns.append((dp - dm) / (2.0 * STEP))",
            "columns.append((fp - fm) / (2.0 * STEP))",
            "finite differences of a manifold-valued output subtract coordinates, unwrapped",
        ),
    ],
    "systems": [
        (
            "pendulum_gravity_partial_sign",
            "dq = (self._torque * np.cos(q[..., :1]))[..., None]",
            "dq = (-self._torque * np.cos(q[..., :1]))[..., None]",
            "the pendulum's d bias/dq has the wrong sign",
        ),
        (
            "leg_speed_partial_halved",
            "rates = np.stack([2.0 * w1, 2.0 * w2], axis=-1)",
            "rates = np.stack([w1, w2], axis=-1)",
            "the leg's d bias/dv drops the factor 2 of d w^2/dw",
        ),
        (
            "leg_drift_velocity_partial_halved",
            "drift_v = 2.0 * (hessian @ v_row[..., None])[..., 0]",
            "drift_v = (hessian @ v_row[..., None])[..., 0]",
            "the leg's frame drift (H v) v has half its velocity partial",
        ),
        (
            "lqr_chain_coupling_sign",
            "K[i, i - 1] = stiffness",
            "K[i, i - 1] = -stiffness",
            "the spring chain couples each mass to the one before with the wrong sign",
        ),
        (
            "body_count_accepts_zero",
            "if not (number >= 1.0 and number.is_integer()):",
            "if not (number >= 0.0 and number.is_integer()):",
            "a system with zero dimensions or zero masses passes its parameter check",
        ),
        (
            "derived_overflow_names_the_smallest_factor",
            "name = max(factors, key=lambda n: abs(factors[n]))",
            "name = min(factors, key=lambda n: abs(factors[n]))",
            "an overflowing derived constant is reported at its smallest parameter, not its largest",
        ),
        (
            "system_matrices_left_writeable",
            "    matrix.flags.writeable = False\n",
            "",
            "a system's shared constant matrices (actuation among them) stay writeable",
        ),
        (
            "leg_jacobian_without_base_translation",
            "        jacobian[0] += self._BASE_TRANSLATION.ravel()  # b[0] = 1\n",
            "",
            "a floating leg's point Jacobians (frames and center of mass) leave out the base "
            "translation",
        ),
        (
            "leg_mass_without_spin_inertia",
            "        mass[0] += spin_inertia * np.outer(spin, spin)\n",
            "",
            "the monoped's mass matrix leaves out the base's rotational inertia",
        ),
        (
            "forward_columns_cached_by_first_frame",
            "columns = self._forward_columns.get(frames)",
            "columns = self._forward_columns.get(frames[:1])",
            "a planar leg's forward-term columns are cached by the first frame, not the frame tuple",
        ),
    ],
    "contact": [
        (
            "baumgarte_position_sign",
            "- contacts.alpha * (contacts.reference - placement_current)",
            "+ contacts.alpha * (contacts.reference - placement_current)",
            "the Baumgarte position term pushes the foot away from its reference",
        ),
        (
            "impulse_restitution_dropped",
            "z = _cholesky_solve(mhat_factor, (1.0 + e) * (Jc @ v_minus))",
            "z = _cholesky_solve(mhat_factor, Jc @ v_minus)",
            "the impulse ignores restitution: every impact is plastic",
        ),
        (
            "contact_force_sign",
            "    return vdot, -z\n\n\ndef _kkt_solve_stacked",
            "    return vdot, z\n\n\ndef _kkt_solve_stacked",
            "the contact force is returned with the multiplier's sign",
        ),
        (
            "stacked_kkt_rhs_sign",
            "z = np.linalg.solve(mhat, Jc @ minv_b1 - b2)",
            "z = np.linalg.solve(mhat, Jc @ minv_b1 + b2)",
            "the stacked saddle-point solve takes the constraint row with the wrong sign",
        ),
        (
            "rank_pivot_test_dropped",
            "if pivot < RANK_PIVOT_TOL:",
            "if pivot < 0.0:",
            "a dependent constraint set passes the node solve's rank test",
        ),
        (
            "node_solve_finite_test_reads_the_first_input",
            "for array in arrays:",
            "for array in arrays[:1]:",
            "the contact and impulse solves test only their first input for finiteness",
        ),
        (
            "baumgarte_beta_left_out_of_finite_check",
            "finite(\"Baumgarte gains\", (self.alpha, self.beta), DimensionMismatch)",
            "finite(\"Baumgarte gains\", (self.alpha,), DimensionMismatch)",
            "a contact checks its position gain for finiteness but not its velocity gain",
        ),
        (
            "node_solve_finite_test_sums_its_entries",
            "return all(map(isfinite, values))",
            "return isfinite(sum(values))",
            "the node solves test the sum of their inputs, which large finite entries overflow",
        ),
        (
            "contact_solve_skips_the_inertia_finite_test",
            '_require_finite("contact dynamics", M, rows, a0)',
            '_require_finite("contact dynamics", rows, a0)',
            "the contact node solve leaves M out of its finite test",
        ),
        (
            "contact_reference_left_writeable",
            "    array.flags.writeable = False\n",
            "",
            "a contact's reference copy stays writeable",
        ),
    ],
    "costs": [
        (
            "state_scales_once_in_hessian",
            "self._hessian = np.diag(self._w_scales * scales)",
            "self._hessian = np.diag(self._w_scales)",
            "a scaled state regularizer's Hessian holds the scales once, not squared",
        ),
        (
            "control_hessian_unweighted",
            "self._hessian = self.weight * np.eye(nu)",
            "self._hessian = np.eye(nu)",
            "the control regularizer's Hessian drops its weight",
        ),
        (
            "state_hessian_negated",
            "self._hessian = np.diag(self._w_scales * scales)",
            "self._hessian = -np.diag(self._w_scales * scales)",
            "the state regularizer's Hessian has the wrong sign",
        ),
        (
            "tracking_jacobian_in_velocity_columns",
            "rx[..., : jq.shape[-1]] = jq",
            "rx[..., -jq.shape[-1] :] = jq",
            "a frame or CoM tracking Jacobian lands in the velocity columns",
        ),
    ],
    "action": [
        (
            "f_u_block_rows_swapped",
            "np.multiply(dt * dt, a_u, out=f_u[:, :nv])\n"
            "            np.multiply(dt, a_u, out=f_u[:, nv:])",
            "np.multiply(dt, a_u, out=f_u[:, :nv])\n"
            "            np.multiply(dt * dt, a_u, out=f_u[:, nv:])",
            "f_u = [dt^2 a_u; dt a_u] has its two block rows exchanged (a transposed f_u)",
        ),
        (
            "f_x_position_row_single_dt",
            "np.add(self._eye_v, dt * dt * a_q, out=f_x[:, :nv, :nv])",
            "np.add(self._eye_v, dt * a_q, out=f_x[:, :nv, :nv])",
            "dq_next/dq takes dt a_q where the semi-implicit step gives dt^2 a_q",
        ),
        (
            "explicit_euler_configuration",
            "dynamics.system.config.integrate(x[:nq], dt * v_next, out=xnext[:nq])",
            "dynamics.system.config.integrate(x[:nq], dt * x[nq:], out=xnext[:nq])",
            "the configuration steps along the old velocity: not the step f_x describes",
        ),
        (
            "cost_without_half",
            'total += 0.5 * term.weight * np.einsum("ki,ki->k", r, r)',
            'total += term.weight * np.einsum("ki,ki->k", r, r)',
            "a node's cost is twice what its gradient integrates to",
        ),
        (
            "baumgarte_velocity_partial_sign",
            "drift_v - contact.beta * J], -1)",
            "drift_v + contact.beta * J], -1)",
            "the contact derivative has the wrong sign on the Baumgarte velocity gain",
        ),
        (
            "bias_velocity_column_sign",
            "np.concatenate([dtau_dq, -bv], -1)",
            "np.concatenate([dtau_dq, bv], -1)",
            "the shared KKT-row derivative takes d bias/dv with the wrong sign, free and contact "
            "dynamics alike",
        ),
        (
            "impulse_closure_restitution_dropped",
            "closure = v_plus + self.restitution * v",
            "closure = v_plus",
            "the impulse derivative drops the restitution term of Jc (v_plus + e v)",
        ),
        (
            "contact_check_skips_the_row_count",
            "if contacts.nf > system.nv:",
            "if contacts.nf < 0:",
            "a contact model accepts more constraint rows than its system has velocities",
        ),
        (
            "calc_stack_failure_names_the_next_row",
            "exc.row = row",
            "exc.row = row + 1",
            "a node that fails in a stack's node-by-node forward step is reported as the row after it",
        ),
    ],
    "problem": [
        (
            "pull_back_gap_off_by_one",
            "state.integrate(data.xnext, pull[k + 1], out=states[k + 1])",
            "state.integrate(data.xnext, pull[k], out=states[k + 1])",
            "the rollout pulls node k's output back along the gap of node k, not k + 1",
        ),
        (
            "gap_sign",
            "return cost, self.state.difference(X, landed)",
            "return cost, self.state.difference(landed, X)",
            "each gap points from the landing point to the guess",
        ),
        (
            "sweep_landing_copy_off_by_one",
            "states[lo + 1 : hi + 1] = stack.xnext",
            "states[lo:hi] = stack.xnext",
            "a sweep without a pull-back copies each run's landing points one node early",
        ),
        (
            "gap_landing_gather_off_by_one",
            "landed[0] = self.x0_measured\n"
            "        for (_, lo, hi), stack in zip(self.runs, self.stacks):\n"
            "            landed[lo + 1 : hi + 1] = stack.xnext",
            "landed[-1] = self.x0_measured\n"
            "        for (_, lo, hi), stack in zip(self.runs, self.stacks):\n"
            "            landed[lo:hi] = stack.xnext",
            "the gaps compare each run's landing points with the states one node early, and the "
            "measured state with the last",
        ),
        (
            "terminal_cost_dropped",
            "cost = float(cost + node_costs[self.N])",
            "cost = float(cost)",
            "the total cost leaves out the terminal node",
        ),
        (
            "sweep_failure_names_the_next_node",
            "model.calc(data, x, u)\n"
            "            except NumericalFailure as exc:\n"
            "                raise NumericalFailure(str(exc), node=k) from exc",
            "model.calc(data, x, u)\n"
            "            except NumericalFailure as exc:\n"
            "                raise NumericalFailure(str(exc), node=k + 1) from exc",
            "a node that fails in a rollout or a trial is reported as the node after it",
        ),
        (
            "calc_failure_names_the_run_row",
            "node=lo + exc.row",
            "node=exc.row",
            "a node that fails at the fddp start is named by its row in its run, not its node",
        ),
        (
            "guess_state_named_one_past",
            '_entry(f"X[{k}]", check, x)',
            '_entry(f"X[{k + 1}]", check, x)',
            "a malformed state of a guess is reported as the entry after it",
        ),
        (
            "guess_control_named_one_past",
            '_entry(f"U[{k}]", _check_control, *entry)',
            '_entry(f"U[{k + 1}]", _check_control, *entry)',
            "a malformed control of a guess is reported as the entry after it",
        ),
        (
            "nonfinite_cost_names_the_last_node",
            "node=int(bad[0]) if len(bad) else None",
            "node=int(bad[-1]) if len(bad) else None",
            "a non-finite total cost names the last node whose own cost is not finite, not the first",
        ),
    ],
    "solver": [
        (
            "pull_back_factor_halved",
            "-shrink * ws.gaps if shrink else None",
            "-0.5 * shrink * ws.gaps if shrink else None",
            "fddp contracts each gap by (1 - alpha) / 2 instead of (1 - alpha)",
        ),
        (
            "goldstein_ascent_uses_b1",
            "return change <= GOLDSTEIN_HIGH * dj",
            "return change <= GOLDSTEIN_LOW * dj",
            "the Goldstein test's ascent branch uses GOLDSTEIN_LOW instead of GOLDSTEIN_HIGH",
        ),
        (
            "d2_vxx_f_sign",
            "2.0 * vxx_dx - vxx_f",
            "2.0 * vxx_dx + vxx_f",
            "the expected improvement's d2 adds V_xx f where it subtracts it",
        ),
        (
            "mu_left_out_of_q_uu",
            "factor = _cholesky(add(q_uu, mu_eye, out=regularized))",
            "factor = _cholesky(q_uu)",
            "the regularizer mu is never added to Q_uu",
        ),
        (
            "gap_deflection_off_by_one",
            "stack.Fz[:, :, 0] = ws.gaps[lo + 1 : hi + 1]",
            "stack.Fz[:, :, 0] = ws.gaps[lo:hi]",
            "the backward pass deflects node k's Value gradient across gap k, not k + 1",
        ),
        (
            "indefinite_node_reported_as_node_0",
            "raise NotPositiveDefinite(k) from exc",
            "raise NotPositiveDefinite(0) from exc",
            "a control Hessian that fails its Cholesky is blamed on node 0",
        ),
        (
            "d1_without_policy_term",
            'return float(d1 + np.einsum("ki,ki->", ws.k_ff, ws.Q_u))',
            "return float(d1)",
            "d1 drops k^T Q_u, so a feasible iterate stops at once",
        ),
        (
            "step_lengths_cut_at_2_to_the_minus_6",
            "STEP_LENGTHS = tuple(0.5**i for i in range(11))",
            "STEP_LENGTHS = tuple(0.5**i for i in range(7))",
            "the line search gives up after alpha = 2^-6 instead of 2^-10",
        ),
        (
            "mu_kept_on_acceptance",
            "mu = max(mu / 10.0, REG_MIN)",
            "mu = max(mu, REG_MIN)",
            "an accepted step leaves mu where it is, so the regularization only grows",
        ),
        (
            "nonfinite_derivative_blamed_where_met",
            "node = next((j for j in range(last, k, -1) if not _finite_node(ws, j)), k)",
            "node = k",
            "a non-finite derivative is blamed on the node where the backward pass meets it, not "
            "the node it entered at",
        ),
        (
            "derivatives_redone_after_a_rejected_search",
            "need_derivatives = accepted",
            "need_derivatives = True",
            "a rejected search re-derives the iterate from the last trial's dynamics solutions",
        ),
        (
            "solve_warns_on_overflow",
            '@np.errstate(over="ignore", invalid="ignore")\ndef solve(',
            "def solve(",
            "an overflow in a solve's evaluations emits numpy warnings before the node is named",
        ),
        (
            "tolerance_check_drops_its_lower_bound",
            "if not 0.0 < tolerance < np.inf:",
            "if not tolerance < np.inf:",
            "solve accepts a tolerance of zero or below",
        ),
        (
            "tolerance_check_lets_nan_and_inf_through",
            "if not 0.0 < tolerance < np.inf:",
            "if tolerance <= 0.0:",
            "solve accepts a NaN or infinite tolerance",
        ),
    ],
    "scenarios": [
        (
            "impulse_at_the_wrong_boundary",
            "if phase.start in switch_at:\n            switch = switch_at[phase.start]",
            "if phase.end in switch_at:\n            switch = switch_at[phase.end]",
            "each impulse node lands at the start of the phase before its switch",
        ),
        (
            "interpolation_stops_short",
            "(np.arange(M + 1) / M)[:, None] * direction",
            "(np.arange(M + 1) / (M + 1))[:, None] * direction",
            "the interpolated warm start ends one step short of its target",
        ),
        (
            "one_node_phase_gap_accepted",
            "if cur.start > prev.end:",
            "if cur.start > prev.end + 1:",
            "a scenario whose phases leave one node uncovered loads",
        ),
        (
            "unknown_field_reported_at_its_parent",
            'location=key if where is None else f"{where}.{key}"',
            "location=where",
            "an unknown field is reported at its parent object's path, not its own",
        ),
        (
            "scenario_number_accepts_nan",
            "if not abs(value) <= sys.float_info.max:",
            "if abs(value) > sys.float_info.max:",
            "a NaN number in a scenario document passes the loader",
        ),
        (
            "integer_field_accepts_a_bool",
            "if not isinstance(value, int) or isinstance(value, bool):",
            "if not isinstance(value, int):",
            "an integer field of a scenario document accepts true or false",
        ),
        (
            "coordinate_reported_at_its_list",
            '_number(v, "coordinate", f"{where}[{i}]")',
            '_number(v, "coordinate", where)',
            "a bad coordinate is reported at its list's path, not at its own index",
        ),
        (
            "contact_rows_not_rank_tested",
            "        _factorize(M, jacobian)\n",
            "        pass\n",
            "the loader's contact rows skip their rank test at the initial configuration",
        ),
    ],
    "cli": [
        (
            "max_iters_exit_code",
            "if report.termination == \"max_iters\":\n        return EXIT_MAX_ITERS",
            "if report.termination == \"max_iters\":\n        return EXIT_SOLVER_FAILURE",
            "fddp solve exits 3 (solver failure) when the iteration budget runs out",
        ),
        (
            "solve_config_error_exit_1",
            'print(f"error: {exc}", file=sys.stderr)\n        return EXIT_CONFIG\n\n\nif',
            'print(f"error: {exc}", file=sys.stderr)\n        return EXIT_CHECK_FAILED\n\n\nif',
            "both commands exit 1 (derivative check failed) on a library error, such as a "
            "scenario that fails to load",
        ),
        (
            "derivative_audit_accepts_zero_samples",
            "if args.samples < 1:",
            "if args.samples < 0:",
            "check-derivatives accepts --samples 0",
        ),
        (
            "derivative_check_tolerance",
            "ok = err <= DERIVATIVE_TOLERANCE",
            "ok = err <= 1.0",
            "check-derivatives passes derivative errors up to 100 %",
        ),
        (
            "derivative_check_nan_passes",
            "if not ok:",
            "if err > DERIVATIVE_TOLERANCE:",
            "check-derivatives prints a NaN error as FAIL but leaves it out of its failures, and passes",
        ),
        (
            "derivative_audit_reads_the_first_sample",
            "float(err.max())",
            "float(err[0])",
            "check-derivatives reports each block's error at its first sample only",
        ),
        (
            "normalized_column_one_at_zero_reference",
            "if reference == 0.0:\n        return 0.0",
            "if reference == 0.0:\n        return 1.0",
            "a trace column normalized by a zero first value reads 1 instead of 0",
        ),
        (
            "gap_column_normalized_by_cost",
            "repr(float(_normalized(r.gap_l2, gap0)))",
            "repr(float(_normalized(r.gap_l2, cost0)))",
            "trace.csv's gap_l2_norm column is divided by the first cost",
        ),
    ],
}
DEFECTS = [
    Defect(name, f"src/fddp/{module}.py", old, new, breaks)
    for module, entries in CATALOGUE.items()
    for name, old, new, breaks in entries
]


def planted(defect: Defect, root: Path) -> None:
    """Apply `defect` to the copy of the repository at `root`."""
    path = root / defect.file
    path.write_text(path.read_text().replace(defect.old, defect.new, 1))


def tier1(root: Path) -> tuple[set[str], set[str], float]:
    """Run tier-1 in the copy at `root`: (ids run, ids failed, seconds)."""
    report = root / "tier1.xml"
    # One BLAS thread per copy: the copies, not BLAS, share the cores.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
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


def verdict(defect: Defect, tests: set[str]) -> tuple[str, set[str], float]:
    """(outcome, ids failed, seconds) of `defect`, against the clean run's ids."""
    try:
        ran, failed, seconds = run(defect)
    except subprocess.TimeoutExpired:
        return f"missed (over {RUN_TIMEOUT_S} s)", set(), RUN_TIMEOUT_S
    if not ran >= tests:
        return "missed (import or collection broken)", set(), seconds
    return ("caught" if failed else "missed"), failed, seconds


def main() -> int:
    tests, failed, seconds = run(None)
    if not tests or failed:
        print(f"the clean run fails {len(failed)} of {len(tests)} tests", file=sys.stderr)
        return 2
    print(f"clean: {len(tests)} tests pass in {seconds:.1f} s", flush=True)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    missed = []
    with ThreadPoolExecutor(max_workers=workers or 1) as pool:
        # map yields in catalogue order, whichever copy finishes first.
        outcomes = pool.map(lambda defect: verdict(defect, tests), DEFECTS)
        for defect, (outcome, failed, seconds) in zip(DEFECTS, outcomes):
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
