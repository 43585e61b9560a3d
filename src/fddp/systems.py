"""Built-in dynamics catalogue.

Second-order mechanical systems follow the convention

    M(q) vdot + bias(q, v) = S u + Jc(q)^T force

with bias = Coriolis/centrifugal terms plus gravity. Everything here is
hand-derived: mass matrices and bias forces come from per-body velocity
Jacobians (planar kinematics), never from a generic tree algorithm.

Every system also gives the closed-form partials that the action models
need: the bias partials, the inertia contraction d(M w)/dq, and for each frame
the contact partials d(J w)/dq, d(J^T f)/dq and the drift partials (after
Carpentier & Mansard, "Analytical derivatives of rigid body dynamics
algorithms", RSS 2018, cut down to planar chains). Finite differences
only audit them (`fddp check-derivatives` and the tests).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .manifolds import (
    CompositeManifold,
    Manifold,
    Rotation2D,
    VectorSpace,
)

GRAVITY = 9.81


def _unit_down(phi: float) -> np.ndarray:
    # Leg direction: points straight down at phi = 0.
    return np.array([np.sin(phi), -np.cos(phi)])


def _unit_side(phi: float) -> np.ndarray:
    # Derivative of _unit_down w.r.t. phi.
    return np.array([np.cos(phi), np.sin(phi)])


def _chain_partials(links, v, w, f):
    """Contact partials of a planar chain point p = base + sum_i a_i down(phi_i).

    Each link is (a_i, phi_i, c_i), where c_i is the 0/1 row of the tangent
    coordinates that sum to the absolute angle phi_i. Then
    J = dbase/dq + sum_i a_i side(phi_i) c_i and drift = Jdot v =
    -sum_i a_i down(phi_i) (c_i v)^2; with d side/dphi = -down and
    d down/dphi = side, the base (linear in q) drops out of every partial.
    Returns (d(J w)/dq, d(J^T f)/dq, d drift/dq, d drift/dv) for fixed w, f.
    """
    nv = v.size
    jw_q = np.zeros((2, nv))
    jtf_q = np.zeros((nv, nv))
    drift_q = np.zeros((2, nv))
    drift_v = np.zeros((2, nv))
    for a, phi, c in links:
        down, side = _unit_down(phi), _unit_side(phi)
        cw, cv = c @ w, c @ v
        jw_q -= np.outer((a * cw) * down, c)
        jtf_q -= (a * (down @ f)) * np.outer(c, c)
        drift_q -= np.outer((a * cv * cv) * side, c)
        drift_v -= np.outer((2.0 * a * cv) * down, c)
    return jw_q, jtf_q, drift_q, drift_v


class MechanicalSystem:
    """Base for (q, v) systems. Subclasses fill the kinematic/dynamic terms."""

    nq: int
    nv: int
    nu: int
    config: Manifold
    frames: tuple[str, ...] = ()

    def __init__(self):
        if self.config.nx != self.nq or self.config.ndx != self.nv:
            raise DimensionMismatch("configuration manifold does not match nq/nv")
        self.state = CompositeManifold([self.config, VectorSpace(self.nv)])

    # -- mandatory dynamics terms ------------------------------------------

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bias(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def actuation(self) -> np.ndarray:
        raise NotImplementedError

    # -- analytic partials (configuration tangent coordinates) --------------

    def bias_partials(self, q, v) -> tuple[np.ndarray, np.ndarray]:
        """(d bias/dq, d bias/dv)."""
        raise NotImplementedError

    def inertia_contraction_partial(self, q, w) -> np.ndarray:
        """d/dq [M(q) w] for a fixed vector w, in configuration tangent coords."""
        raise NotImplementedError

    # -- frames (point frames: placement in R^2 or R^1) ---------------------

    def frame_placement(self, q, frame: str) -> np.ndarray:
        raise DimensionMismatch(f"system has no frame {frame!r}")

    def frame_jacobian(self, q, frame: str) -> np.ndarray:
        raise DimensionMismatch(f"system has no frame {frame!r}")

    def frame_drift(self, q, v, frame: str) -> np.ndarray:
        """Frame acceleration at zero joint acceleration (Jdot v)."""
        raise DimensionMismatch(f"system has no frame {frame!r}")

    def frame_partials(self, q, v, w, f, frame: str):
        """Contact partials of a frame for a fixed w and f:
        (d(J w)/dq, d(J^T f)/dq, d drift/dq, d drift/dv)."""
        raise DimensionMismatch(f"system has no frame {frame!r}")

    def com(self, q) -> np.ndarray:
        raise NotImplementedError

    def com_jacobian(self, q) -> np.ndarray:
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def split_state(self, x) -> tuple[np.ndarray, np.ndarray]:
        return x[: self.nq], x[self.nq :]

    def nominal_state(self) -> np.ndarray:
        return np.concatenate([self.config.neutral(), np.zeros(self.nv)])


class LinearDynamics:
    """First-order linear flow xdot = A x + B u + c (the LQR oracle model)."""

    def __init__(self, A, B, c=None):
        self.A = np.atleast_2d(np.asarray(A, float))
        self.B = np.atleast_2d(np.asarray(B, float))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape[0] != n:
            raise DimensionMismatch("A must be square and B row-compatible")
        self.c = np.zeros(n) if c is None else np.asarray(c, float)
        if self.c.shape != (n,):
            raise DimensionMismatch("c must match the state dimension")
        self.nx = n
        self.nu = self.B.shape[1]
        self.state = VectorSpace(n)

    def flow(self, x, u) -> np.ndarray:
        return self.A @ x + self.B @ u + self.c


class DoubleIntegrator(MechanicalSystem):
    """n independent unit masses, direct force control, no gravity."""

    def __init__(self, dim: int = 2):
        self.nq = self.nv = self.nu = int(dim)
        self.config = VectorSpace(dim)
        super().__init__()

    def mass_matrix(self, q):
        return np.eye(self.nv)

    def bias(self, q, v):
        return np.zeros(self.nv)

    def actuation(self):
        return np.eye(self.nv)

    def bias_partials(self, q, v):
        z = np.zeros((self.nv, self.nv))
        return z, z.copy()

    def inertia_contraction_partial(self, q, w):
        return np.zeros((self.nv, self.nv))


class PointMass(MechanicalSystem):
    """Point mass with direct force control; gravity pulls the last coordinate.

    Frames: "point" (full position) and, for dim >= 2, "height" (last
    coordinate only, the vertical pin used by the hopper's stance phase).
    """

    def __init__(self, dim: int = 2, mass: float = 1.0, gravity: float = GRAVITY):
        self.nq = self.nv = self.nu = int(dim)
        self.mass = float(mass)
        self.gravity = float(gravity)
        self.config = VectorSpace(dim)
        self.frames = ("point", "height") if dim >= 2 else ("point",)
        super().__init__()

    def mass_matrix(self, q):
        return self.mass * np.eye(self.nv)

    def bias(self, q, v):
        h = np.zeros(self.nv)
        h[-1] = self.mass * self.gravity
        return h

    def actuation(self):
        return np.eye(self.nv)

    def bias_partials(self, q, v):
        z = np.zeros((self.nv, self.nv))
        return z, z.copy()

    def inertia_contraction_partial(self, q, w):
        return np.zeros((self.nv, self.nv))

    def frame_placement(self, q, frame):
        if frame == "point":
            return np.array(q, float)
        if frame == "height" and self.nv >= 2:
            return np.array([q[-1]])
        return super().frame_placement(q, frame)

    def frame_jacobian(self, q, frame):
        if frame == "point":
            return np.eye(self.nv)
        if frame == "height" and self.nv >= 2:
            j = np.zeros((1, self.nv))
            j[0, -1] = 1.0
            return j
        return super().frame_jacobian(q, frame)

    def frame_drift(self, q, v, frame):
        if frame == "point":
            return np.zeros(self.nv)
        if frame == "height" and self.nv >= 2:
            return np.zeros(1)
        return super().frame_drift(q, v, frame)

    def frame_partials(self, q, v, w, f, frame):
        if frame not in self.frames:
            return super().frame_partials(q, v, w, f, frame)
        nf, nv = self.frame_jacobian(q, frame).shape
        zero = np.zeros((nf, nv))
        return zero, np.zeros((nv, nv)), zero.copy(), zero.copy()

    def com(self, q):
        return np.array(q, float)

    def com_jacobian(self, q):
        return np.eye(self.nv)


class Pendulum(MechanicalSystem):
    """Single planar link, angle measured from the hanging-down position."""

    frames = ("tip",)

    def __init__(self, mass=1.0, length=1.0, damping=0.0, gravity=GRAVITY):
        self.nq = self.nv = self.nu = 1
        self.mass = float(mass)
        self.length = float(length)
        self.damping = float(damping)
        self.gravity = float(gravity)
        self.config = VectorSpace(1)
        super().__init__()
        self._inertia = self.mass * self.length**2

    def mass_matrix(self, q):
        return np.array([[self._inertia]])

    def bias(self, q, v):
        return np.array(
            [
                self.mass * self.gravity * self.length * np.sin(q[0])
                + self.damping * v[0]
            ]
        )

    def actuation(self):
        return np.eye(1)

    def bias_partials(self, q, v):
        dq = np.array([[self.mass * self.gravity * self.length * np.cos(q[0])]])
        dv = np.array([[self.damping]])
        return dq, dv

    def inertia_contraction_partial(self, q, w):
        return np.zeros((1, 1))

    def frame_placement(self, q, frame):
        if frame != "tip":
            return super().frame_placement(q, frame)
        return self.length * _unit_down(q[0])

    def frame_jacobian(self, q, frame):
        if frame != "tip":
            return super().frame_jacobian(q, frame)
        return (self.length * _unit_side(q[0])).reshape(2, 1)

    def frame_drift(self, q, v, frame):
        if frame != "tip":
            return super().frame_drift(q, v, frame)
        return -self.length * _unit_down(q[0]) * v[0] ** 2

    def frame_partials(self, q, v, w, f, frame):
        if frame != "tip":
            return super().frame_partials(q, v, w, f, frame)
        return _chain_partials(((self.length, q[0], np.ones(1)),), v, w, f)

    def com(self, q):
        return self.length * _unit_down(q[0])

    def com_jacobian(self, q):
        return (self.length * _unit_side(q[0])).reshape(2, 1)


class DoublePendulum(MechanicalSystem):
    """Two planar links with both joints actuated, angles from hanging down."""

    frames = ("tip",)

    def __init__(
        self,
        m1=1.0,
        m2=1.0,
        l1=1.0,
        l2=1.0,
        lc1=0.5,
        lc2=0.5,
        gravity=GRAVITY,
    ):
        self.nq = self.nv = self.nu = 2
        self.m1, self.m2 = float(m1), float(m2)
        self.l1, self.l2 = float(l1), float(l2)
        self.lc1, self.lc2 = float(lc1), float(lc2)
        self.I1 = self.m1 * self.l1**2 / 12.0
        self.I2 = self.m2 * self.l2**2 / 12.0
        self.gravity = float(gravity)
        self.config = VectorSpace(2)
        super().__init__()
        self._coupling = self.m2 * self.l1 * self.lc2

    def mass_matrix(self, q):
        c2 = np.cos(q[1])
        b = self._coupling
        a11 = (
            self.I1
            + self.I2
            + self.m1 * self.lc1**2
            + self.m2 * (self.l1**2 + self.lc2**2 + 2.0 * self.l1 * self.lc2 * c2)
        )
        a12 = self.I2 + self.m2 * self.lc2**2 + b * c2
        a22 = self.I2 + self.m2 * self.lc2**2
        return np.array([[a11, a12], [a12, a22]])

    def _gravity_torque(self, q):
        g = self.gravity
        s1 = np.sin(q[0])
        s12 = np.sin(q[0] + q[1])
        k1 = self.m1 * self.lc1 + self.m2 * self.l1
        k2 = self.m2 * self.lc2
        return np.array([k1 * g * s1 + k2 * g * s12, k2 * g * s12])

    def bias(self, q, v):
        b = self._coupling
        s2 = np.sin(q[1])
        coriolis = np.array(
            [-b * s2 * (2.0 * v[0] * v[1] + v[1] ** 2), b * s2 * v[0] ** 2]
        )
        return coriolis + self._gravity_torque(q)

    def actuation(self):
        return np.eye(2)

    def bias_partials(self, q, v):
        b = self._coupling
        g = self.gravity
        s2, c2 = np.sin(q[1]), np.cos(q[1])
        c1 = np.cos(q[0])
        c12 = np.cos(q[0] + q[1])
        k1 = self.m1 * self.lc1 + self.m2 * self.l1
        k2 = self.m2 * self.lc2
        dq = np.array(
            [
                [
                    k1 * g * c1 + k2 * g * c12,
                    -b * c2 * (2.0 * v[0] * v[1] + v[1] ** 2) + k2 * g * c12,
                ],
                [k2 * g * c12, b * c2 * v[0] ** 2 + k2 * g * c12],
            ]
        )
        dv = np.array(
            [
                [-2.0 * b * s2 * v[1], -2.0 * b * s2 * (v[0] + v[1])],
                [2.0 * b * s2 * v[0], 0.0],
            ]
        )
        return dq, dv

    def inertia_contraction_partial(self, q, w):
        s2 = np.sin(q[1])
        b = self._coupling
        dcol2 = np.array(
            [-2.0 * b * s2 * w[0] - b * s2 * w[1], -b * s2 * w[0]]
        )
        out = np.zeros((2, 2))
        out[:, 1] = dcol2
        return out

    def frame_placement(self, q, frame):
        if frame != "tip":
            return super().frame_placement(q, frame)
        return self.l1 * _unit_down(q[0]) + self.l2 * _unit_down(q[0] + q[1])

    def frame_jacobian(self, q, frame):
        if frame != "tip":
            return super().frame_jacobian(q, frame)
        e1 = _unit_side(q[0])
        e12 = _unit_side(q[0] + q[1])
        j = np.zeros((2, 2))
        j[:, 0] = self.l1 * e1 + self.l2 * e12
        j[:, 1] = self.l2 * e12
        return j

    def frame_drift(self, q, v, frame):
        if frame != "tip":
            return super().frame_drift(q, v, frame)
        w1 = v[0]
        w12 = v[0] + v[1]
        return -self.l1 * _unit_down(q[0]) * w1**2 - self.l2 * _unit_down(
            q[0] + q[1]
        ) * w12**2

    def frame_partials(self, q, v, w, f, frame):
        if frame != "tip":
            return super().frame_partials(q, v, w, f, frame)
        links = (
            (self.l1, q[0], np.array([1.0, 0.0])),
            (self.l2, q[0] + q[1], np.array([1.0, 1.0])),
        )
        return _chain_partials(links, v, w, f)

    def com(self, q):
        p1 = self.lc1 * _unit_down(q[0])
        p2 = self.l1 * _unit_down(q[0]) + self.lc2 * _unit_down(q[0] + q[1])
        return (self.m1 * p1 + self.m2 * p2) / (self.m1 + self.m2)

    def com_jacobian(self, q):
        e1 = _unit_side(q[0])
        e12 = _unit_side(q[0] + q[1])
        j = np.zeros((2, 2))
        j[:, 0] = (self.m1 * self.lc1 + self.m2 * self.l1) * e1 + self.m2 * self.lc2 * e12
        j[:, 1] = self.m2 * self.lc2 * e12
        return j / (self.m1 + self.m2)


# Tangent rows whose sums are the monoped's absolute leg angles: the thigh
# angle phi1 = theta + hip and the shank angle phi2 = phi1 + knee.
_THIGH_ROW = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
_SHANK_ROW = np.array([0.0, 0.0, 1.0, 1.0, 1.0])


class PlanarMonoped(MechanicalSystem):
    """Floating planar base with a two-link leg; only the leg joints actuated.

    Configuration (x, z, theta, hip, knee): base translation in R^2, wrapped
    base heading, then the two relative joint angles. Every point used here
    (the base, thigh and shank centers and the foot) has the form
    base + a1 down(phi1) + a2 down(phi2), so the point helpers, parametrised
    by (a1, a2), give the body Jacobians behind M and the bias, and the frames
    with their contact partials. Summed over the bodies, the bias and inertia
    partials depend on the (a1, a2) only through the bodies' mass moments.
    The heading's tangent is the plain angle increment, so tangent partials
    equal coordinate partials.
    """

    frames = ("foot", "hip")

    def __init__(
        self,
        base_mass=1.0,
        base_inertia=0.05,
        thigh_mass=0.25,
        shank_mass=0.15,
        thigh_length=0.35,
        shank_length=0.35,
        gravity=GRAVITY,
    ):
        self.nq = self.nv = 5
        self.nu = 2
        self.mB = float(base_mass)
        self.IB = float(base_inertia)
        self.m1 = float(thigh_mass)
        self.m2 = float(shank_mass)
        self.l1 = float(thigh_length)
        self.l2 = float(shank_length)
        self.lc1 = 0.5 * self.l1
        self.lc2 = 0.5 * self.l2
        self.I1 = self.m1 * self.l1**2 / 12.0
        self.I2 = self.m2 * self.l2**2 / 12.0
        self.gravity = float(gravity)
        self.config = CompositeManifold([VectorSpace(2), Rotation2D(), VectorSpace(2)])
        super().__init__()
        self.total_mass = self.mB + self.m1 + self.m2
        # (mass, a1, a2) of the base, thigh and shank centers.
        self._bodies = (
            (self.mB, 0.0, 0.0),
            (self.m1, self.lc1, 0.0),
            (self.m2, self.l1, self.lc2),
        )
        self._frame_points = {"foot": (self.l1, self.l2), "hip": (0.0, 0.0)}
        # Body angular velocities are theta, phi1 and phi2 rates: constant rows.
        w_base = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        self._rotational_inertia = (
            self.IB * np.outer(w_base, w_base)
            + self.I1 * np.outer(_THIGH_ROW, _THIGH_ROW)
            + self.I2 * np.outer(_SHANK_ROW, _SHANK_ROW)
        )
        self._gravity_vec = np.array([0.0, -self.gravity])
        # Mass moments of the bodies' leg coefficients (see bias_partials):
        # mu[k] = sum_b m_b a_kb and mu2[k, l] = sum_b m_b a_kb a_lb.
        masses = np.array([m for m, _, _ in self._bodies])
        coeffs = np.array([(a1, a2) for _, a1, a2 in self._bodies])
        self._mu = masses @ coeffs
        self._mu2 = coeffs.T @ (masses[:, None] * coeffs)

    # -- points base + a1 down(phi1) + a2 down(phi2) ------------------------------

    @staticmethod
    def _angles(q):
        phi1 = q[2] + q[3]
        return phi1, phi1 + q[4]

    def _point_placement(self, q, a1, a2):
        phi1, phi2 = self._angles(q)
        return q[:2] + a1 * _unit_down(phi1) + a2 * _unit_down(phi2)

    def _point_jacobian(self, q, a1, a2):
        phi1, phi2 = self._angles(q)
        s2 = a2 * _unit_side(phi2)
        s = a1 * _unit_side(phi1) + s2
        j = np.zeros((2, 5))
        j[:, :2] = np.eye(2)
        j[:, 2] = s
        j[:, 3] = s
        j[:, 4] = s2
        return j

    def _point_drift(self, q, v, a1, a2):
        phi1, phi2 = self._angles(q)
        w1 = v[2] + v[3]
        w2 = w1 + v[4]
        return -a1 * _unit_down(phi1) * w1**2 - a2 * _unit_down(phi2) * w2**2

    def _frame_point(self, frame):
        try:
            return self._frame_points[frame]
        except KeyError:
            raise DimensionMismatch(f"system has no frame {frame!r}") from None

    # -- dynamics ------------------------------------------------------------------

    def _body_jacobians(self, q):
        return [self._point_jacobian(q, a1, a2) for _, a1, a2 in self._bodies]

    def mass_matrix(self, q):
        jB, j1, j2 = self._body_jacobians(q)
        m = self.mB * jB.T @ jB + self.m1 * j1.T @ j1 + self.m2 * j2.T @ j2
        m += self._rotational_inertia
        return m

    def bias(self, q, v):
        # Sum over bodies of m J^T (Jdot v - g); the spin terms are constant.
        h = np.zeros(5)
        for m, a1, a2 in self._bodies:
            drift = self._point_drift(q, v, a1, a2)
            h += m * self._point_jacobian(q, a1, a2).T @ (drift - self._gravity_vec)
        return h

    def actuation(self):
        s = np.zeros((5, 2))
        s[3, 0] = 1.0
        s[4, 1] = 1.0
        return s

    def _links(self, q, w):
        """Per leg link k: down_k, side_k, its tangent row c_k and c_k w."""
        phi1, phi2 = self._angles(q)
        w1 = w[2] + w[3]
        return (
            (_unit_down(phi1), _unit_side(phi1), _THIGH_ROW, w1),
            (_unit_down(phi2), _unit_side(phi2), _SHANK_ROW, w1 + w[4]),
        )

    def _moment_transpose(self, k, links, x):
        """G_k^T x for the link-k moment Jacobian G_k = sum_b m_b a_kb J_b,
        which is mu_k [I 0] + sum_l mu_kl side_l c_l^T."""
        out = self._mu2[k, 0] * (links[0][1] @ x) * _THIGH_ROW
        out += self._mu2[k, 1] * (links[1][1] @ x) * _SHANK_ROW
        out[:2] += self._mu[k] * x
        return out

    def bias_partials(self, q, v):
        # Per body, J_b = [I 0] + sum_k a_kb side_k c_k^T and
        # drift_b = -sum_k a_kb down_k (c_k v)^2, and bias = sum_b m_b J_b^T
        # (drift_b - g). Summed over the bodies, the partials (see
        # _chain_partials) depend on the coefficients only through mu and mu2:
        #   d/dq = -sum_k [down_k . F_k] c_k c_k^T + (c_k v)^2 G_k^T side_k c_k^T
        #   d/dv = -sum_k 2 (c_k v) G_k^T down_k c_k^T
        # with F_k = sum_b m_b a_kb (drift_b - g).
        links = self._links(q, v)
        dq = np.zeros((5, 5))
        dv = np.zeros((5, 5))
        for k, (down, side, row, rate) in enumerate(links):
            force = -self._mu[k] * self._gravity_vec
            for l, (down_l, _, _, rate_l) in enumerate(links):
                force -= (self._mu2[k, l] * rate_l**2) * down_l
            dq -= (down @ force) * np.outer(row, row)
            dq -= np.outer(rate**2 * self._moment_transpose(k, links, side), row)
            dv -= np.outer(2.0 * rate * self._moment_transpose(k, links, down), row)
        return dq, dv

    def inertia_contraction_partial(self, q, w):
        # M w = sum_b m_b J_b^T J_b w + (constant spin terms) w, so
        #   d/dq = -sum_k [down_k . G_k w] c_k c_k^T + (c_k w) G_k^T down_k c_k^T.
        links = self._links(q, w)
        out = np.zeros((5, 5))
        for k, (down, _, row, rate) in enumerate(links):
            gw = self._mu[k] * w[:2]
            for l, (_, side_l, _, rate_l) in enumerate(links):
                gw += (self._mu2[k, l] * rate_l) * side_l
            out -= (down @ gw) * np.outer(row, row)
            out -= np.outer(rate * self._moment_transpose(k, links, down), row)
        return out

    # -- frames and center of mass ---------------------------------------------------

    def frame_placement(self, q, frame):
        return self._point_placement(q, *self._frame_point(frame))

    def frame_jacobian(self, q, frame):
        return self._point_jacobian(q, *self._frame_point(frame))

    def frame_drift(self, q, v, frame):
        return self._point_drift(q, v, *self._frame_point(frame))

    def frame_partials(self, q, v, w, f, frame):
        a1, a2 = self._frame_point(frame)
        phi1, phi2 = self._angles(q)
        return _chain_partials(((a1, phi1, _THIGH_ROW), (a2, phi2, _SHANK_ROW)), v, w, f)

    def com(self, q):
        return (
            sum(m * self._point_placement(q, a1, a2) for m, a1, a2 in self._bodies)
            / self.total_mass
        )

    def com_jacobian(self, q):
        jB, j1, j2 = self._body_jacobians(q)
        return (self.mB * jB + self.m1 * j1 + self.m2 * j2) / self.total_mass


def lqr_chain_dynamics(masses: int = 3, stiffness: float = 4.0, damping: float = 0.4):
    """Spring-mass chain as a first-order linear flow; every mass actuated."""
    if masses < 1:
        raise DimensionMismatch("chain needs at least one mass")
    n = int(masses)
    K = np.zeros((n, n))
    for i in range(n):
        K[i, i] = -2.0 * stiffness
        if i > 0:
            K[i, i - 1] = stiffness
        if i < n - 1:
            K[i, i + 1] = stiffness
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = K
    A[n:, n:] = -damping * np.eye(n)
    B = np.zeros((2 * n, n))
    B[n:, :] = np.eye(n)
    return LinearDynamics(A, B)


SYSTEM_BUILDERS = {
    "double_integrator": DoubleIntegrator,
    "point_mass": PointMass,
    "pendulum": Pendulum,
    "double_pendulum": DoublePendulum,
    "planar_monoped": PlanarMonoped,
}


def build_system(model_id: str, params: dict | None = None):
    """Instantiate a catalogue system (or the LQR chain) by identifier."""
    params = dict(params or {})
    if model_id == "lqr_chain":
        return lqr_chain_dynamics(**params)
    try:
        builder = SYSTEM_BUILDERS[model_id]
    except KeyError:
        known = ", ".join(sorted([*SYSTEM_BUILDERS, "lqr_chain"]))
        raise DimensionMismatch(f"unknown model id {model_id!r}; known: {known}") from None
    return builder(**params)
