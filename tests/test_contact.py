"""Tests for rigid-contact forward dynamics, impulse dynamics, and derivatives.

The oracle throughout is the dense saddle-point system

    [ M  -Jc^T ] [ vdot  ]   [ tau ]        [ M  -Jc^T ] [ v_plus  ]   [ M v_minus    ]
    [ Jc   0   ] [ force ] = [ -a0 ],       [ Jc   0   ] [ impulse ] = [ -e Jc v_minus]

assembled explicitly and solved with numpy, no block elimination, plus the
frozen small-system examples and the physical invariants of impacts. The
solves sit below the validation boundary, so every input here is an ndarray.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import fddp
from fddp import contact, numdiff
from fddp.action import ConstrainedMechanicalDynamics, ImpulseActionModel, IntegratedActionModel
from fddp.contact import (
    RANK_PIVOT_TOL,
    Contact,
    ContactSet,
    _cholesky,
    _cholesky_solve,
    _require_finite,
    baumgarte_a0,
    contact_dynamics_derivatives,
    contact_forward_dynamics,
    impulse_dynamics,
    impulse_dynamics_derivatives,
)
from fddp.errors import (
    DimensionMismatch,
    FactorizationError,
    NumericalFailure,
    RankDeficientConstraint,
)
from fddp.systems import PlanarMonoped


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


# ---------------------------------------------------------------------------
# the Cholesky helper
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 6])
def test_cholesky_helper_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        a = random_spd(rng, n)
        c = _cholesky(a)
        ref = cho_factor(a, lower=True)
        np.testing.assert_array_equal(c, ref[0])
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3)), a.T):
            np.testing.assert_array_equal(_cholesky_solve(c, b), cho_solve(ref, b))


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports this checkout's fddp and
    these tests as modules; returns what it printed."""
    paths = [str(Path(fddp.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("first", ["scipy.linalg", "fddp"])
def test_cholesky_helper_matches_scipy_bit_for_bit_in_either_import_order(first):
    # The library loads LAPACK's extension module itself, and scipy.linalg
    # loads its own copy; whichever comes first, both work and agree. This
    # module imports both, so the order is set in a fresh interpreter.
    run_fresh(
        f"import {first}, sys\n"
        "from test_contact import test_cholesky_helper_matches_scipy_bit_for_bit as check\n"
        "for n in (1, 2, 6): check(n)\n"
        "assert 'scipy.linalg' in sys.modules"
    )


def test_a_solve_leaves_scipy_linalg_unimported():
    # The library and its command line take only LAPACK's Cholesky pair from
    # scipy, without importing the scipy.linalg package; this module imports
    # that package itself, so the check runs in a fresh interpreter.
    printed = run_fresh(
        "import sys\n"
        "import fddp, fddp.cli\n"
        "scenario, problem, X, U = fddp.load_and_build(fddp.bundled_scenario_path('pendulum_swingup'))\n"
        "options = scenario.solver_options\n"
        "_, _, report = fddp.solve(\n"
        "    problem, X, U, max_iters=options['max_iters'], tolerance=options['tolerance']\n"
        ")\n"
        "print(report.converged, 'scipy.linalg' in sys.modules)"
    )
    assert printed.split() == ["True", "False"]


def test_a_missing_lapack_extension_names_where_it_was_sought(monkeypatch):
    monkeypatch.setattr(contact, "PathFinder", SimpleNamespace(find_spec=lambda name, path: None))
    with pytest.raises(ImportError, match=r"scipy \S+ has no LAPACK extension _flapack in .*linalg"):
        contact._load_flapack()


def test_cholesky_helper_leaves_its_inputs_alone():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 4)
    b = rng.standard_normal((4, 2))
    a0, b0 = a.copy(), b.copy()
    _cholesky_solve(_cholesky(a), b)
    np.testing.assert_array_equal(a, a0)
    np.testing.assert_array_equal(b, b0)


def test_cholesky_helper_rejects_an_indefinite_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky(np.array([[-1.0]]))


def dense_saddle(M, Jc):
    nv, nf = M.shape[0], Jc.shape[0]
    k = np.zeros((nv + nf, nv + nf))
    k[:nv, :nv] = M
    k[:nv, nv:] = -Jc.T
    k[nv:, :nv] = Jc
    return k


# ---------------------------------------------------------------------------
# Baumgarte correction
# ---------------------------------------------------------------------------


def test_baumgarte_reduces_to_drift_at_reference_and_rest():
    c = Contact("foot", [0.3, -0.1], alpha=100.0, beta=20.0)
    drift = np.array([0.7, -2.0])
    np.testing.assert_array_equal(
        baumgarte_a0(c, np.array([0.3, -0.1]), np.zeros(2), drift), drift
    )


def test_baumgarte_reduces_to_drift_with_zero_gains():
    c = Contact("foot", [0.5], alpha=0.0, beta=0.0)
    np.testing.assert_array_equal(
        baumgarte_a0(c, np.array([0.1]), np.array([2.0]), np.array([0.9])), [0.9]
    )


def test_baumgarte_scalar_arithmetic():
    # drift 0, placement error 0.01 toward the reference, velocity 0.1:
    # a0 = 0 - 100 * 0.01 - 20 * 0.1 = -3.0
    c = Contact("point", [0.01], alpha=100.0, beta=20.0)
    np.testing.assert_allclose(
        baumgarte_a0(c, np.zeros(1), np.array([0.1]), np.zeros(1)), [-3.0]
    )


def test_baumgarte_rejects_wrong_shapes_and_gains():
    with pytest.raises(DimensionMismatch):
        Contact("foot", [0.0], alpha=-1.0)
    for gain in (np.nan, np.inf):
        with pytest.raises(DimensionMismatch, match="Baumgarte gains must be finite"):
            Contact("foot", [0.0], alpha=gain)
        with pytest.raises(DimensionMismatch, match="Baumgarte gains must be finite"):
            Contact("foot", [0.0], beta=gain)
    with pytest.raises(DimensionMismatch):
        Contact("foot", [])
    with pytest.raises(DimensionMismatch):
        ContactSet(())


def test_contact_set_counts_rows():
    cs = ContactSet((Contact("foot", [0.0, 0.0]), Contact("hip", [0.1])))
    assert cs.nf == 3


def test_contact_reference_is_a_read_only_copy():
    reference = np.array([0.0, 0.0])
    foot = Contact("foot", reference)
    assert reference.flags.writeable and not foot.reference.flags.writeable


def test_contact_set_stacks_its_rows_once():
    # Frames in contact order, and gains and references row by row, read-only;
    # the set's Baumgarte target is each contact's, stacked.
    foot = Contact("foot", [0.1, -0.2], alpha=100.0, beta=20.0)
    hip = Contact("hip", [0.3], alpha=50.0, beta=0.0)
    cs = ContactSet((foot, hip))
    assert cs.frames == ("foot", "hip")
    np.testing.assert_array_equal(cs.alpha, [100.0, 100.0, 50.0])
    np.testing.assert_array_equal(cs.beta, [20.0, 20.0, 0.0])
    np.testing.assert_array_equal(cs.reference, [0.1, -0.2, 0.3])
    for rows in (cs.alpha, cs.beta, cs.reference):
        assert not rows.flags.writeable
    rng = np.random.default_rng(49)
    placement, velocity, drift = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(
        baumgarte_a0(cs, placement, velocity, drift),
        np.concatenate([
            baumgarte_a0(foot, placement[:2], velocity[:2], drift[:2]),
            baumgarte_a0(hip, placement[2:], velocity[2:], drift[2:]),
        ]),
    )


# ---------------------------------------------------------------------------
# forward dynamics
# ---------------------------------------------------------------------------


def test_forward_dynamics_matches_dense_solve():
    rng = np.random.default_rng(50)
    for _ in range(50):
        nv = int(rng.integers(1, 9))
        nf = int(rng.integers(1, min(nv, 4) + 1))
        M = random_spd(rng, nv)
        Jc = rng.standard_normal((nf, nv))
        tau = rng.standard_normal(nv)
        a0 = rng.standard_normal(nf)
        vdot, force = contact_forward_dynamics(M, Jc, tau, a0)
        sol = np.linalg.solve(dense_saddle(M, Jc), np.concatenate([tau, -a0]))
        np.testing.assert_allclose(vdot, sol[:nv], atol=1e-10)
        np.testing.assert_allclose(force, sol[nv:], atol=1e-10)


def test_forward_dynamics_rejects_indefinite_inertia():
    with pytest.raises(FactorizationError):
        contact_forward_dynamics(
            np.diag([1.0, -1.0]), np.array([[1.0, 0.0]]), np.zeros(2), np.zeros(1)
        )


def test_forward_dynamics_rejects_dependent_constraint_rows():
    M = np.eye(3)
    Jc = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(RankDeficientConstraint):
        contact_forward_dynamics(M, Jc, np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# failure modes of the forward contact and impulse solves
# ---------------------------------------------------------------------------

def impulse_solution(M, Jc, inputs):
    return impulse_dynamics(M, Jc, *inputs, 0.5)


# Each solve as f(M, Jc, inputs) -> its solution pair: the contact solve takes
# (tau_b, a0) and gives (vdot, force), the impulse solve takes (v_minus,),
# with restitution 0.5, and gives (v_plus, impulse).
KKT_SOLVES = {
    "contact": lambda M, Jc, inputs: contact_forward_dynamics(M, Jc, *inputs),
    "impulse": impulse_solution,
}


def kkt_inputs(kind, scale=1.0):
    """A well-posed (M, Jc, inputs) of the solve `kind`. M, Jc and the contact
    solve's (tau_b, a0) are multiplied by scale, which leaves the
    accelerations, forces, post-impact velocities and impulses as they are."""
    rng = np.random.default_rng(58)
    M, Jc = random_spd(rng, 4), rng.standard_normal((2, 4))
    if kind == "contact":
        inputs = [scale * rng.standard_normal(4), scale * rng.standard_normal(2)]
    else:
        inputs = [rng.standard_normal(4)]
    return scale * M, scale * Jc, inputs


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "kind, entry",
    [("contact", name) for name in ("M", "Jc", "tau_b", "a0")]
    + [("impulse", name) for name in ("M", "Jc", "v_minus")],
)
def test_kkt_solve_rejects_a_nonfinite_input(kind, entry, bad):
    M, Jc, inputs = kkt_inputs(kind)
    target = {"M": M, "Jc": Jc}.get(entry)
    if target is None:
        target = inputs[0 if entry in ("tau_b", "v_minus") else 1]
    target.flat[1] = bad
    with pytest.raises(NumericalFailure, match=f"non-finite entries in {kind}"):
        KKT_SOLVES[kind](M, Jc, inputs)


@pytest.mark.parametrize("kind", sorted(KKT_SOLVES))
def test_kkt_solve_rejects_an_indefinite_inertia(kind):
    M, Jc, inputs = kkt_inputs(kind)
    M[0, 0] = -1.0
    with pytest.raises(FactorizationError, match="joint-space inertia"):
        KKT_SOLVES[kind](M, Jc, inputs)


@pytest.mark.parametrize("kind", sorted(KKT_SOLVES))
def test_kkt_solve_rejects_dependent_and_nearly_dependent_rows(kind):
    M, Jc, inputs = kkt_inputs(kind)
    Jc[1] = Jc[0]  # Mhat singular: its Cholesky fails
    with pytest.raises(RankDeficientConstraint, match="not positive definite"):
        KKT_SOLVES[kind](M, Jc, inputs)
    # Rows 1e-6 apart: Mhat factorizes, with a last pivot of about 1e-12.
    M, Jc = np.eye(4), np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1e-6, 0.0, 0.0]])
    assert np.linalg.eigvalsh(Jc @ Jc.T).min() < RANK_PIVOT_TOL
    with pytest.raises(RankDeficientConstraint, match="pivot .* below"):
        KKT_SOLVES[kind](M, Jc, inputs)


@pytest.mark.parametrize("scale", [1e150, 1e300])
@pytest.mark.parametrize("kind", sorted(KKT_SOLVES))
def test_kkt_solve_takes_large_finite_inputs(kind, scale):
    # Entries near 1e150 (and 1e300) are finite: the finite test must not
    # overflow on them, and the solution is the unscaled one.
    solution = KKT_SOLVES[kind](*kkt_inputs(kind, scale))
    reference = KKT_SOLVES[kind](*kkt_inputs(kind))
    for part, expected in zip(solution, reference):
        np.testing.assert_allclose(part, expected, rtol=1e-12)


def test_finite_test_does_not_overflow_on_the_largest_floats():
    # Any sum of these entries overflows; a test of the entries does not.
    top = np.finfo(float).max
    _require_finite("largest", np.full((2, 2), top), np.array([-top, top]))
    with pytest.raises(NumericalFailure, match="non-finite entries in largest inputs"):
        _require_finite("largest", np.full(3, top), np.array([np.nan]))


# ---------------------------------------------------------------------------
# forward-dynamics derivatives
# ---------------------------------------------------------------------------


def test_zero_input_partials_give_zero_blocks():
    M, Jc = np.eye(2), np.array([[1.0, 0.0]])
    y_x, y_u = contact_dynamics_derivatives(
        M[None], Jc[None], np.zeros((1, 2, 4)), np.zeros((1, 2, 2)),
        np.zeros((1, 1, 4)), np.zeros((1, 1, 2)),
    )
    np.testing.assert_array_equal(y_x, np.zeros((1, 2, 4)))
    np.testing.assert_array_equal(y_u, np.zeros((1, 2, 2)))


def test_identity_torque_gain_gives_kkt_inverse_column_block():
    # tau linear in u with unit gain: the control Jacobian of the
    # accelerations is the top block of K^-1 [I; 0].
    rng = np.random.default_rng(52)
    nv, nf = 4, 2
    M = random_spd(rng, nv)
    Jc = rng.standard_normal((nf, nv))
    y_x, y_u = contact_dynamics_derivatives(
        M[None], Jc[None], np.zeros((1, nv, nv)), np.eye(nv)[None],
        np.zeros((1, nf, nv)), np.zeros((1, nf, nv)),
    )
    rhs = np.vstack([np.eye(nv), np.zeros((nf, nv))])
    dense = np.linalg.solve(dense_saddle(M, Jc), rhs)
    np.testing.assert_allclose(y_u[0], dense[:nv], atol=1e-10)
    np.testing.assert_array_equal(y_x[0], np.zeros((nv, nv)))


def random_saddle_stack(rng, n):
    """n random (M, Jc) pairs of one random shape, stacked on a node axis."""
    nv = int(rng.integers(1, 9))
    nf = int(rng.integers(1, min(nv, 4) + 1))
    M = np.array([random_spd(rng, nv) for _ in range(n)])
    return M, rng.standard_normal((n, nf, nv))


def test_derivative_blocks_match_dense_solve():
    # Each node of a stack gets the blocks of its own dense saddle-point solve.
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        M, Jc = random_saddle_stack(rng, n)
        nv, nf = Jc.shape[1:][::-1]
        ndx, nu = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        dtau_dx = rng.standard_normal((n, nv, ndx))
        dtau_du = rng.standard_normal((n, nv, nu))
        da0_dx = rng.standard_normal((n, nf, ndx))
        da0_du = rng.standard_normal((n, nf, nu))
        y_x, y_u = contact_dynamics_derivatives(M, Jc, dtau_dx, dtau_du, da0_dx, da0_du)
        for i in range(n):
            k = dense_saddle(M[i], Jc[i])
            dense_x = np.linalg.solve(k, np.vstack([dtau_dx[i], -da0_dx[i]]))
            dense_u = np.linalg.solve(k, np.vstack([dtau_du[i], -da0_du[i]]))
            np.testing.assert_allclose(y_x[i], dense_x[:nv], atol=1e-10)
            np.testing.assert_allclose(y_u[i], dense_u[:nv], atol=1e-10)


def test_monoped_stance_partials_match_finite_differences():
    # Full pipeline check on the hardest system: the closed-form partials of
    # the foot-pinned monoped's accelerations (KKT rows assembled from the
    # bias, inertia and frame partials) must match central differences of
    # the acceleration itself.
    system = PlanarMonoped()
    contacts = ContactSet((Contact("foot", [0.0, 0.0], alpha=100.0, beta=20.0),))
    dyn = ConstrainedMechanicalDynamics(system, contacts)
    model = IntegratedActionModel(dyn, dt=0.01)
    rng = np.random.default_rng(54)
    for _ in range(5):
        x = np.concatenate(
            [rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.4, 0.4, 3), rng.uniform(-1, 1, 5)]
        )
        u = rng.uniform(-2.0, 2.0, 2)
        stack = model.create_stack(1)
        dyn.acceleration(x, u, stack.nodes[0])
        a_q, a_v, a_u = (block[0] for block in dyn.partials(stack, x[None], u[None]))

        def accel_of_x(xv):
            return dyn.acceleration(xv, u, model.create_data())

        def accel_of_u(uv):
            return dyn.acceleration(x, uv, model.create_data())

        fd_x = numdiff.jacobian(accel_of_x, x, input_manifold=system.state)
        fd_u = numdiff.jacobian(accel_of_u, u)
        np.testing.assert_allclose(a_q, fd_x[:, :5], atol=1e-4)
        np.testing.assert_allclose(a_v, fd_x[:, 5:], atol=1e-4)
        np.testing.assert_allclose(a_u, fd_u, atol=1e-4)


# ---------------------------------------------------------------------------
# impulse dynamics
# ---------------------------------------------------------------------------


def test_impulse_plastic_unit_mass():
    v_plus, impulse = impulse_dynamics(np.eye(1), np.eye(1), np.array([-1.0]), 0.0)
    np.testing.assert_allclose(v_plus, [0.0])
    np.testing.assert_allclose(impulse, [1.0])


def test_impulse_plastic_two_dof():
    v_plus, impulse = impulse_dynamics(
        np.eye(2), np.array([[1.0, 0.0]]), np.array([-1.0, 3.0]), 0.0
    )
    np.testing.assert_allclose(v_plus, [0.0, 3.0])
    np.testing.assert_allclose(impulse, [1.0])


def test_impulse_matches_dense_solve():
    rng = np.random.default_rng(55)
    for _ in range(50):
        nv = int(rng.integers(1, 9))
        nf = int(rng.integers(1, min(nv, 4) + 1))
        M = random_spd(rng, nv)
        Jc = rng.standard_normal((nf, nv))
        v_minus = rng.standard_normal(nv)
        e = float(rng.uniform(0.0, 1.0))
        v_plus, impulse = impulse_dynamics(M, Jc, v_minus, e)
        rhs = np.concatenate([M @ v_minus, -e * (Jc @ v_minus)])
        sol = np.linalg.solve(dense_saddle(M, Jc), rhs)
        np.testing.assert_allclose(v_plus, sol[:nv], atol=1e-10)
        np.testing.assert_allclose(impulse, sol[nv:], atol=1e-10)


def test_impulse_restitution_must_lie_in_unit_interval():
    stance = ContactSet((Contact("foot", [0.0, 0.0]),))
    for e in (-0.1, 1.1, float("nan")):
        with pytest.raises(DimensionMismatch, match="restitution"):
            ImpulseActionModel(PlanarMonoped(), stance, e)


def test_impulse_physics_invariants():
    # Contact-point velocity reflects with the restitution factor, plastic
    # impacts never add kinetic energy, and the momentum change lies in the
    # span of the constraint directions.
    rng = np.random.default_rng(56)
    for _ in range(200):
        nv = int(rng.integers(1, 7))
        nf = int(rng.integers(1, min(nv, 4) + 1))
        M = random_spd(rng, nv)
        Jc = rng.standard_normal((nf, nv))
        v_minus = rng.standard_normal(nv)
        e = float(rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0]))
        v_plus, _ = impulse_dynamics(M, Jc, v_minus, e)
        np.testing.assert_allclose(Jc @ v_plus, -e * (Jc @ v_minus), atol=1e-10)
        if e == 0.0:
            ke_plus = 0.5 * v_plus @ M @ v_plus
            ke_minus = 0.5 * v_minus @ M @ v_minus
            assert ke_plus <= ke_minus + 1e-12
        dp = M @ (v_plus - v_minus)
        residual = dp - Jc.T @ np.linalg.lstsq(Jc.T, dp, rcond=None)[0]
        assert np.linalg.norm(residual) <= 1e-10


# ---------------------------------------------------------------------------
# impulse derivatives
# ---------------------------------------------------------------------------


def test_impulse_velocity_jacobian_frozen_example():
    M, Jc = np.eye(2), np.array([[1.0, 0.0]])
    # Configuration-independent M and Jc: both residual partials vanish.
    dvp_dq, dvp_dv = impulse_dynamics_derivatives(
        M[None], Jc[None], 0.0, np.zeros((1, 2, 2)), np.zeros((1, 1, 2))
    )
    np.testing.assert_allclose(dvp_dv[0], np.diag([0.0, 1.0]), atol=1e-12)
    # The constrained component of v_plus is insensitive to v_minus.
    np.testing.assert_allclose(Jc @ dvp_dv[0], np.zeros((1, 2)), atol=1e-12)
    np.testing.assert_array_equal(dvp_dq[0], np.zeros((2, 2)))


def test_impulse_derivatives_match_dense_solve():
    # Each node of a stack gets the blocks of its own dense saddle-point solve.
    rng = np.random.default_rng(57)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        M, Jc = random_saddle_stack(rng, n)
        nv, nf = Jc.shape[1:][::-1]
        ndq = int(rng.integers(1, 7))
        e = float(rng.uniform(0.0, 1.0))
        dr1_dq = rng.standard_normal((n, nv, ndq))
        dr2_dq = rng.standard_normal((n, nf, ndq))
        dvp_dq, dvp_dv = impulse_dynamics_derivatives(M, Jc, e, dr1_dq, dr2_dq)
        for i in range(n):
            k = dense_saddle(M[i], Jc[i])
            dense_q = np.linalg.solve(k, np.vstack([-dr1_dq[i], -dr2_dq[i]]))
            dense_v = np.linalg.solve(k, np.vstack([M[i], -e * Jc[i]]))
            np.testing.assert_allclose(dvp_dq[i], dense_q[:nv], atol=1e-10)
            np.testing.assert_allclose(dvp_dv[i], dense_v[:nv], atol=1e-10)
