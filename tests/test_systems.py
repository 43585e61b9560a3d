"""Tests for the built-in dynamics catalogue.

Every system is checked against oracles that do not reuse the implementation
code paths: body velocities obtained by finite differences of re-derived
body positions (kinetic energy), the gradient of potential energy (gravity
bias), the mass-matrix rate (Coriolis power identity), and finite
differences of placements (frame and center-of-mass Jacobians).
"""

import numpy as np
import pytest

from fddp import numdiff
from fddp.errors import DimensionMismatch, ParameterError
from fddp.systems import (
    DoubleIntegrator,
    DoublePendulum,
    LinearDynamics,
    Pendulum,
    PlanarMonoped,
    build_system,
    lqr_chain_dynamics,
)

MECHANICAL_SYSTEMS = [
    DoubleIntegrator(dim=2),
    Pendulum(mass=1.1, length=0.8, damping=0.2),
    DoublePendulum(m1=1.2, m2=0.7, l1=0.9, l2=0.6),
    PlanarMonoped(),
]
MECHANICAL_IDS = [
    "double_integrator",
    "pendulum",
    "double_pendulum",
    "planar_monoped",
]


def random_configuration(system, rng):
    q = rng.uniform(-1.2, 1.2, size=system.nq)
    return system.config.integrate(q, np.zeros(system.nv))


def down(phi):
    return np.array([np.sin(phi), -np.cos(phi)])


# ---------------------------------------------------------------------------
# mass matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("system", MECHANICAL_SYSTEMS, ids=MECHANICAL_IDS)
def test_mass_matrix_is_symmetric_positive_definite(system):
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = random_configuration(system, rng)
        m = system.mass_matrix(q)
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        assert np.linalg.eigvalsh(m).min() > 0.0


def monoped_body_states(sys, q):
    """Body centers and absolute angles re-derived from the constructor
    geometry: base at the translation, thigh and shank hanging below it."""
    phi1 = q[2] + q[3]
    phi2 = phi1 + q[4]
    base = np.array(q[:2])
    thigh = base + sys.lc1 * down(phi1)
    shank = base + sys.l1 * down(phi1) + sys.lc2 * down(phi2)
    return [
        (sys.mB, sys.IB, base, q[2]),
        (sys.m1, sys.I1, thigh, phi1),
        (sys.m2, sys.I2, shank, phi2),
    ]


def double_pendulum_body_states(sys, q):
    phi1 = q[0]
    phi2 = q[0] + q[1]
    c1 = sys.lc1 * down(phi1)
    c2 = sys.l1 * down(phi1) + sys.lc2 * down(phi2)
    return [(sys.m1, sys.I1, c1, phi1), (sys.m2, sys.I2, c2, phi2)]


@pytest.mark.parametrize(
    "system, body_states",
    [
        (DoublePendulum(m1=1.2, m2=0.7, l1=0.9, l2=0.6), double_pendulum_body_states),
        (PlanarMonoped(), monoped_body_states),
    ],
    ids=["double_pendulum", "planar_monoped"],
)
def test_kinetic_energy_matches_per_body_sum(system, body_states):
    # 0.5 v' M v must equal the sum over bodies of translational plus
    # rotational kinetic energy, with body velocities taken by central
    # differences of the re-derived body positions along q + t v.
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(20):
        q = rng.uniform(-1.2, 1.2, size=system.nq)
        v = rng.uniform(-1.5, 1.5, size=system.nv)
        ke = 0.5 * v @ system.mass_matrix(q) @ v
        oracle = 0.0
        plus = body_states(system, q + h * v)
        minus = body_states(system, q - h * v)
        for (m, inertia, p_plus, a_plus), (_, _, p_minus, a_minus) in zip(plus, minus):
            pdot = (p_plus - p_minus) / (2.0 * h)
            adot = (a_plus - a_minus) / (2.0 * h)
            oracle += 0.5 * m * pdot @ pdot + 0.5 * inertia * adot**2
        np.testing.assert_allclose(ke, oracle, rtol=1e-7, atol=1e-8)


# ---------------------------------------------------------------------------
# bias: gravity gradient and Coriolis power
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "system, total_mass",
    [
        (Pendulum(mass=1.1, length=0.8, damping=0.2), 1.1),
        (DoublePendulum(m1=1.2, m2=0.7, l1=0.9, l2=0.6), 1.9),
        (PlanarMonoped(), PlanarMonoped().total_mass),
    ],
    ids=["pendulum", "double_pendulum", "planar_monoped"],
)
def test_zero_velocity_bias_is_potential_energy_gradient(system, total_mass):
    rng = np.random.default_rng(3)
    g = system.gravity

    def potential(q):
        return np.array([total_mass * g * system.com(q)[-1]])

    for _ in range(10):
        q = random_configuration(system, rng)
        grad = numdiff.jacobian(potential, q, input_manifold=system.config)[0]
        np.testing.assert_allclose(system.bias(q, np.zeros(system.nv)), grad, atol=1e-6)


def test_double_integrator_has_no_bias():
    system = DoubleIntegrator(dim=3)
    rng = np.random.default_rng(4)
    q, v = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_array_equal(system.bias(q, v), np.zeros(3))


@pytest.mark.parametrize(
    "system",
    [Pendulum(damping=0.0), DoublePendulum(m1=1.2, m2=0.7, l1=0.9, l2=0.6), PlanarMonoped()],
    ids=["pendulum", "double_pendulum", "planar_monoped"],
)
def test_velocity_bias_satisfies_power_identity(system):
    # For undamped mechanical systems the velocity-dependent bias terms must
    # satisfy v' (bias(q, v) - bias(q, 0)) = 0.5 v' Mdot v, with Mdot taken
    # by central differences of the mass matrix along q + t v.
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        q = rng.uniform(-1.2, 1.2, size=system.nq)
        v = rng.uniform(-1.5, 1.5, size=system.nv)
        mdot = (system.mass_matrix(q + h * v) - system.mass_matrix(q - h * v)) / (2.0 * h)
        lhs = v @ (system.bias(q, v) - system.bias(q, np.zeros(system.nv)))
        np.testing.assert_allclose(lhs, 0.5 * v @ mdot @ v, rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize(
    "system",
    [
        DoubleIntegrator(dim=2),
        Pendulum(mass=1.1, length=0.8, damping=0.2),
        DoublePendulum(m1=1.2, m2=0.7, l1=0.9, l2=0.6),
        PlanarMonoped(),
    ],
    ids=["double_integrator", "pendulum", "double_pendulum", "planar_monoped"],
)
def test_analytic_bias_partials_match_finite_differences(system):
    rng = np.random.default_rng(6)
    for _ in range(10):
        q = random_configuration(system, rng)
        v = rng.uniform(-1.5, 1.5, size=system.nv)
        dq, dv = system.bias_partials(q, v)
        fd_dq = numdiff.jacobian(
            lambda qv: system.bias(qv, v), q, input_manifold=system.config
        )
        fd_dv = numdiff.jacobian(lambda vv: system.bias(q, vv), v)
        np.testing.assert_allclose(dq, fd_dq, atol=1e-5)
        np.testing.assert_allclose(dv, fd_dv, atol=1e-5)


@pytest.mark.parametrize(
    "system",
    [
        DoubleIntegrator(dim=2),
        Pendulum(mass=1.1, length=0.8, damping=0.2),
        DoublePendulum(m1=1.2, m2=0.7, l1=0.9, l2=0.6),
        PlanarMonoped(),
    ],
    ids=["double_integrator", "pendulum", "double_pendulum", "planar_monoped"],
)
def test_inertia_contraction_partial_matches_finite_differences(system):
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = random_configuration(system, rng)
        w = rng.uniform(-1.5, 1.5, size=system.nv)
        analytic = system.inertia_contraction_partial(q, w)
        fd = numdiff.jacobian(
            lambda qv: system.mass_matrix(qv) @ w, q, input_manifold=system.config
        )
        np.testing.assert_allclose(analytic, fd, atol=1e-5)


# ---------------------------------------------------------------------------
# frames and center of mass
# ---------------------------------------------------------------------------


def frame_cases():
    return [
        (Pendulum(mass=1.1, length=0.8), "tip"),
        (DoublePendulum(m1=1.2, m2=0.7, l1=0.9, l2=0.6), "tip"),
        (PlanarMonoped(), "foot"),
        (PlanarMonoped(), "hip"),
    ]


@pytest.mark.parametrize(
    "system, frame",
    frame_cases(),
    ids=["pend_tip", "dpend_tip", "foot", "hip"],
)
def test_frame_jacobian_matches_finite_differences(system, frame):
    rng = np.random.default_rng(8)
    for _ in range(10):
        q = random_configuration(system, rng)
        fd = numdiff.jacobian(
            lambda qv: system.frame_placement(qv, frame),
            q,
            input_manifold=system.config,
        )
        np.testing.assert_allclose(system.frame_jacobian(q, frame), fd, atol=1e-5)


@pytest.mark.parametrize(
    "system, frame",
    frame_cases(),
    ids=["pend_tip", "dpend_tip", "foot", "hip"],
)
def test_frame_drift_is_jacobian_rate_times_velocity(system, frame):
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(10):
        q = rng.uniform(-1.2, 1.2, size=system.nq)
        v = rng.uniform(-1.5, 1.5, size=system.nv)
        jdot = (
            system.frame_jacobian(q + h * v, frame)
            - system.frame_jacobian(q - h * v, frame)
        ) / (2.0 * h)
        np.testing.assert_allclose(
            system.frame_drift(q, v, frame), jdot @ v, rtol=1e-6, atol=1e-7
        )


# A monoped configuration whose heading lies 5e-4 short of +pi: the
# finite-difference steps of the oracle cross the heading's wrap.
NEAR_WRAP_CONFIGURATION = np.array([0.3, -0.2, np.pi - 5e-4, 0.4, -0.7])


@pytest.mark.parametrize(
    "system, frame",
    frame_cases(),
    ids=["pend_tip", "dpend_tip", "foot", "hip"],
)
def test_frame_partials_match_finite_differences(system, frame):
    # d(J w)/dq, d(J^T f)/dq, d drift/dq and d drift/dv against central
    # differences of the frame Jacobian and drift, for fixed w and f.
    rng = np.random.default_rng(11)
    configurations = [random_configuration(system, rng) for _ in range(10)]
    if isinstance(system, PlanarMonoped):
        configurations.append(NEAR_WRAP_CONFIGURATION)
    for q in configurations:
        v = rng.uniform(-1.5, 1.5, size=system.nv)
        w = rng.uniform(-1.5, 1.5, size=system.nv)
        f = rng.uniform(-1.5, 1.5, size=system.frame_jacobian(q, frame).shape[0])
        jw_q, jtf_q, drift_q, drift_v = system.frame_partials(q, v, w, f, frame)
        oracles = [
            (jw_q, lambda qv: system.frame_jacobian(qv, frame) @ w, q, system.config),
            (jtf_q, lambda qv: system.frame_jacobian(qv, frame).T @ f, q, system.config),
            (drift_q, lambda qv: system.frame_drift(qv, v, frame), q, system.config),
            (drift_v, lambda vv: system.frame_drift(q, vv, frame), v, None),
        ]
        for analytic, fn, at, manifold in oracles:
            fd = numdiff.jacobian(fn, at, input_manifold=manifold)
            np.testing.assert_allclose(analytic, fd, atol=1e-6)


@pytest.mark.parametrize(
    "system, frame",
    frame_cases(),
    ids=["pend_tip", "dpend_tip", "foot", "hip"],
)
def test_frame_partials_take_a_leading_node_axis(system, frame):
    # A stack of (q, v, w, f) gives each node the partials of that node alone.
    rng = np.random.default_rng(12)
    n = 6
    q = np.array([random_configuration(system, rng) for _ in range(n)])
    v, w = rng.uniform(-1.5, 1.5, size=(2, n, system.nv))
    f = rng.uniform(-1.5, 1.5, size=(n, system.frame_jacobian(q[0], frame).shape[0]))
    stacked = system.frame_partials(q, v, w, f, frame)
    for i in range(n):
        alone = system.frame_partials(q[i], v[i], w[i], f[i], frame)
        for block, single in zip(stacked, alone):
            assert block.shape == (n,) + single.shape
            np.testing.assert_allclose(block[i], single, rtol=1e-14, atol=1e-14)


def test_unknown_frame_is_rejected():
    with pytest.raises(DimensionMismatch):
        Pendulum().frame_placement(np.zeros(1), "elbow")
    with pytest.raises(DimensionMismatch):
        PlanarMonoped().frame_jacobian(np.zeros(5), "head")
    for system in (DoubleIntegrator(dim=2), Pendulum(), PlanarMonoped()):
        with pytest.raises(DimensionMismatch):
            system.forward_terms(np.zeros(system.nq), np.zeros(system.nv), ("elbow",))
    with pytest.raises(DimensionMismatch):
        DoublePendulum().frame_partials(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), "elbow")


@pytest.mark.parametrize(
    "system",
    [
        Pendulum(mass=1.1, length=0.8),
        DoublePendulum(m1=1.2, m2=0.7, l1=0.9, l2=0.6),
        PlanarMonoped(),
    ],
    ids=["pendulum", "double_pendulum", "planar_monoped"],
)
def test_com_jacobian_matches_finite_differences(system):
    rng = np.random.default_rng(10)
    for _ in range(10):
        q = random_configuration(system, rng)
        fd = numdiff.jacobian(system.com, q, input_manifold=system.config)
        np.testing.assert_allclose(system.com_jacobian(q), fd, atol=1e-5)


def test_monoped_reference_geometry():
    sys = PlanarMonoped()
    q0 = np.zeros(5)
    np.testing.assert_allclose(sys.frame_placement(q0, "foot"), [0.0, -0.7], atol=1e-12)
    np.testing.assert_allclose(sys.frame_placement(q0, "hip"), [0.0, 0.0], atol=1e-12)
    # Crouched start used by the hopping setups: the foot sits on the origin.
    q_hop = np.array(
        [-0.027613664924638515, 0.6120291867818464, 0.0, 0.55, -1.0098247237571105]
    )
    np.testing.assert_allclose(sys.frame_placement(q_hop, "foot"), [0.0, 0.0], atol=1e-9)


def test_monoped_actuation_drives_only_leg_joints():
    s = PlanarMonoped().actuation()
    expected = np.zeros((5, 2))
    expected[3, 0] = 1.0
    expected[4, 1] = 1.0
    np.testing.assert_array_equal(s, expected)


@pytest.mark.parametrize("system", MECHANICAL_SYSTEMS, ids=MECHANICAL_IDS)
def test_actuation_is_built_once_and_read_only(system):
    s = system.actuation()
    np.testing.assert_array_equal(s, system.actuation())
    assert not s.flags.writeable
    with pytest.raises(ValueError):
        s[0, 0] = 2.0


# ---------------------------------------------------------------------------
# forward step: the shared one-node evaluation
# ---------------------------------------------------------------------------


def forward_terms_cases():
    """Every system with no frame and with each of its frames alone, and the
    monoped with both frames in either order."""
    for system, name in zip(MECHANICAL_SYSTEMS, MECHANICAL_IDS):
        yield pytest.param(system, (), id=f"{name}-none")
        for frame in system.frames:
            yield pytest.param(system, (frame,), id=f"{name}-{frame}")
    for frames in (("foot", "hip"), ("hip", "foot")):
        yield pytest.param(PlanarMonoped(), frames, id="planar_monoped-" + "-".join(frames))


@pytest.mark.parametrize("system, frames", forward_terms_cases())
def test_forward_terms_equal_the_separate_terms(system, frames):
    # (M, bias, placement, Jc, drift) of one call equal mass_matrix, bias and
    # the listed frames' placements, Jacobians and drifts, stacked in order,
    # to 1e-13 of each array's largest entry.
    rng = np.random.default_rng(14)
    nv = system.nv
    for _ in range(20):
        q = random_configuration(system, rng)
        v = rng.uniform(-2.0, 2.0, size=nv)
        expected = (
            system.mass_matrix(q),
            system.bias(q, v),
            np.concatenate([np.zeros(0)] + [system.frame_placement(q, f) for f in frames]),
            np.concatenate([np.zeros((0, nv))] + [system.frame_jacobian(q, f) for f in frames]),
            np.concatenate([np.zeros(0)] + [system.frame_drift(q, v, f) for f in frames]),
        )
        actual = system.forward_terms(q, v, frames)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got.shape == want.shape
            scale = np.abs(want).max(initial=0.0)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale)


# ---------------------------------------------------------------------------
# planar legs: basis form against the per-body sums
# ---------------------------------------------------------------------------


def side(phi):
    return np.array([np.cos(phi), np.sin(phi)])


class PerBodyLeg:
    """A two-link leg's terms summed body by body over per-point Jacobians.

    The layout gives the leg rows (c1, c2), whose sums of q are the absolute
    link angles phi_k = c_k q, the base translation rows E (2, nv) and the
    bodies (mass, rotational inertia, row of its angle, a1, a2). A point
    E q + a1 down(phi1) + a2 down(phi2) has J = E + sum_k a_k side_k c_k^T
    and drift -sum_k a_k down_k (c_k v)^2; M sums m J^T J + I r r^T over the
    bodies, and the bias sums m J^T (drift - g).
    """

    def __init__(self, sys, rows, base, bodies, frames):
        self.rows, self.base, self.bodies, self.frames = rows, base, bodies, frames
        self.spin = sum(inertia * np.outer(r, r) for _, inertia, r, _, _ in bodies)
        self.gravity = np.array([0.0, -sys.gravity])
        self.total_mass = sum(m for m, *_ in bodies)

    def links(self, q, a):
        return zip(a, (c @ q for c in self.rows), self.rows)

    def placement(self, q, a):
        return self.base @ q + sum(ak * down(phi) for ak, phi, _ in self.links(q, a))

    def jacobian(self, q, a):
        return self.base + sum(ak * np.outer(side(phi), c) for ak, phi, c in self.links(q, a))

    def drift(self, q, v, a):
        return -sum(ak * down(phi) * (c @ v) ** 2 for ak, phi, c in self.links(q, a))

    def point_partials(self, q, v, w, f, a):
        """d(J w)/dq, d(J^T f)/dq, d drift/dq, d drift/dv for fixed w and f."""
        nv = len(q)
        out = [np.zeros((2, nv)), np.zeros((nv, nv)), np.zeros((2, nv)), np.zeros((2, nv))]
        for ak, phi, c in self.links(q, a):
            out[0] -= ak * (c @ w) * np.outer(down(phi), c)
            out[1] -= ak * (down(phi) @ f) * np.outer(c, c)
            out[2] -= ak * (c @ v) ** 2 * np.outer(side(phi), c)
            out[3] -= 2.0 * ak * (c @ v) * np.outer(down(phi), c)
        return out

    def centers(self):
        return [(m, a) for m, _, _, *a in self.bodies]

    def mass_matrix(self, q):
        return self.spin + sum(m * self.jacobian(q, a).T @ self.jacobian(q, a) for m, a in self.centers())

    def bias(self, q, v):
        return sum(
            m * self.jacobian(q, a).T @ (self.drift(q, v, a) - self.gravity)
            for m, a in self.centers()
        )

    def bias_partials(self, q, v):
        dq, dv = np.zeros((len(q),) * 2), np.zeros((len(q),) * 2)
        for m, a in self.centers():
            j, force = self.jacobian(q, a), self.drift(q, v, a) - self.gravity
            _, jtf_q, drift_q, drift_v = self.point_partials(q, v, v, force, a)
            dq += m * (jtf_q + j.T @ drift_q)
            dv += m * j.T @ drift_v
        return dq, dv

    def inertia_contraction_partial(self, q, w):
        out = np.zeros((len(q),) * 2)
        for m, a in self.centers():
            j = self.jacobian(q, a)
            jw_q, jtf_q, _, _ = self.point_partials(q, w, w, j @ w, a)
            out += m * (jtf_q + j.T @ jw_q)
        return out

    def com(self, q):
        return sum(m * self.placement(q, a) for m, a in self.centers()) / self.total_mass

    def com_jacobian(self, q):
        return sum(m * self.jacobian(q, a) for m, a in self.centers()) / self.total_mass


def monoped_layout(sys):
    """Floating base: x, z translate it, theta turns it, phi1 = theta + hip,
    phi2 = phi1 + knee; the base, thigh and shank centers."""
    spin = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    thigh, shank = np.array([0.0, 0.0, 1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    bodies = [
        (sys.mB, sys.IB, spin, 0.0, 0.0),
        (sys.m1, sys.I1, thigh, sys.lc1, 0.0),
        (sys.m2, sys.I2, shank, sys.l1, sys.lc2),
    ]
    frames = {"foot": (sys.l1, sys.l2), "hip": (0.0, 0.0)}
    return PerBodyLeg(sys, (thigh, shank), np.eye(2, 5), bodies, frames)


def double_pendulum_layout(sys):
    """Welded base: phi1 = q1, phi2 = q1 + q2; the two link centers."""
    upper, lower = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    bodies = [(sys.m1, sys.I1, upper, sys.lc1, 0.0), (sys.m2, sys.I2, lower, sys.l1, sys.lc2)]
    frames = {"tip": (sys.l1, sys.l2)}
    return PerBodyLeg(sys, (upper, lower), np.zeros((2, 2)), bodies, frames)


@pytest.mark.parametrize(
    "system, layout",
    [
        (
            PlanarMonoped(
                base_mass=1.7,
                thigh_mass=0.4,
                shank_mass=0.2,
                thigh_length=0.5,
                shank_length=0.3,
                base_inertia=0.09,
            ),
            monoped_layout,
        ),
        (
            DoublePendulum(m1=1.2, m2=0.7, l1=0.9, l2=0.6, lc1=0.3, lc2=0.4, gravity=4.0),
            double_pendulum_layout,
        ),
    ],
    ids=["non_default", "double_pendulum_non_default"],
)
def test_monoped_basis_terms_equal_per_body_sums(system, layout):
    # Every term of the monoped and of the double pendulum (the same leg on a
    # welded base), at angles within +-10 rad (across the heading's +-pi
    # wrap), agrees with the per-body sums to rounding.
    oracle = layout(system)
    rng = np.random.default_rng(12)
    translation = 2 if oracle.base.any() else 0

    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    for _ in range(50):
        q = np.concatenate(
            [rng.uniform(-2.0, 2.0, translation), rng.uniform(-10.0, 10.0, system.nq - translation)]
        )
        v, w = rng.uniform(-3.0, 3.0, system.nv), rng.uniform(-3.0, 3.0, system.nv)
        f = rng.uniform(-3.0, 3.0, 2)
        close(system.mass_matrix(q), oracle.mass_matrix(q))
        close(system.bias(q, v), oracle.bias(q, v))
        for actual, expected in zip(system.bias_partials(q, v), oracle.bias_partials(q, v)):
            close(actual, expected)
        close(system.inertia_contraction_partial(q, w), oracle.inertia_contraction_partial(q, w))
        close(system.com(q), oracle.com(q))
        close(system.com_jacobian(q), oracle.com_jacobian(q))
        for frame, a in oracle.frames.items():
            close(system.frame_placement(q, frame), oracle.placement(q, a))
            close(system.frame_jacobian(q, frame), oracle.jacobian(q, a))
            close(system.frame_drift(q, v, frame), oracle.drift(q, v, a))
            partials = zip(
                system.frame_partials(q, v, w, f, frame), oracle.point_partials(q, v, w, f, a)
            )
            for actual, expected in partials:
                close(actual, expected)
    assert set(oracle.frames) == set(system.frames)


def test_state_helpers():
    sys = PlanarMonoped()
    assert sys.state.nx == 10 and sys.state.ndx == 10
    np.testing.assert_array_equal(sys.nominal_state(), np.zeros(10))
    q, v = sys.split_state(np.arange(10.0))
    np.testing.assert_array_equal(q, np.arange(5.0))
    np.testing.assert_array_equal(v, np.arange(5.0, 10.0))


# ---------------------------------------------------------------------------
# linear flows
# ---------------------------------------------------------------------------


def test_lqr_chain_default_structure():
    dyn = lqr_chain_dynamics()
    assert (dyn.nx, dyn.nu) == (6, 3)
    k_expected = np.array([[-8.0, 4.0, 0.0], [4.0, -8.0, 4.0], [0.0, 4.0, -8.0]])
    np.testing.assert_array_equal(dyn.A[:3, :3], np.zeros((3, 3)))
    np.testing.assert_array_equal(dyn.A[:3, 3:], np.eye(3))
    np.testing.assert_array_equal(dyn.A[3:, :3], k_expected)
    np.testing.assert_array_equal(dyn.A[3:, 3:], -0.4 * np.eye(3))
    np.testing.assert_array_equal(dyn.B[:3, :], np.zeros((3, 3)))
    np.testing.assert_array_equal(dyn.B[3:, :], np.eye(3))
    np.testing.assert_array_equal(dyn.c, np.zeros(6))


def test_lqr_chain_rejects_empty_chain():
    with pytest.raises(ParameterError, match="masses must be a whole number >= 1, got 0"):
        lqr_chain_dynamics(masses=0)


def test_physical_parameters_must_be_finite():
    # inf passes the range check "> 0"; NaN and both infinities are rejected
    # as non-finite, with their own wording.
    builders = [
        ("mass", lambda v: Pendulum(mass=v)),
        ("damping", lambda v: Pendulum(damping=v)),
        ("l1", lambda v: DoublePendulum(l1=v)),
        ("base_mass", lambda v: PlanarMonoped(base_mass=v)),
        ("damping", lambda v: lqr_chain_dynamics(damping=v)),
    ]
    for name, build in builders:
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ParameterError, match=f"{name} must be finite, got {value}"):
                build(value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("system", [Pendulum, DoublePendulum, PlanarMonoped])
def test_gravity_must_be_finite(system, value):
    # Gravity takes any sign, zero included; only a non-finite value is
    # rejected, with the other parameters' wording.
    with pytest.raises(ParameterError, match=f"gravity must be finite, got {value}") as caught:
        system(gravity=value)
    assert caught.value.name == "gravity"
    for finite in (0.0, -2.5):
        assert system(gravity=finite).gravity == finite


def test_linear_dynamics_validates_shapes():
    with pytest.raises(DimensionMismatch):
        LinearDynamics(np.zeros((2, 3)), np.zeros((2, 1)))
    with pytest.raises(DimensionMismatch):
        LinearDynamics(np.eye(2), np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch):
        LinearDynamics(np.eye(2), np.zeros((2, 1)), c=[1.0, 2.0, 3.0])


def test_linear_dynamics_flow():
    dyn = LinearDynamics([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], c=[0.0, -1.0])
    np.testing.assert_allclose(dyn.flow([1.0, 2.0], [3.0]), [2.0, 2.0])


# ---------------------------------------------------------------------------
# catalogue lookup
# ---------------------------------------------------------------------------


def test_build_system_by_identifier():
    sys = build_system("pendulum", {"mass": 2.0, "length": 0.5})
    assert isinstance(sys, Pendulum)
    assert sys.mass == 2.0 and sys.length == 0.5
    chain = build_system("lqr_chain", {"masses": 2})
    assert chain.nx == 4


def test_build_system_rejects_unknown_identifier():
    with pytest.raises(DimensionMismatch, match="unknown model id"):
        build_system("hexapod")
