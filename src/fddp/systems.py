"""Built-in dynamics catalogue.

Second-order mechanical systems follow the convention

    M(q) vdot + bias(q, v) = S u + Jc(q)^T force

with bias = Coriolis/centrifugal terms plus gravity. Everything here is
hand-derived, never from a generic tree algorithm: the pendulum in closed
form; the monoped and the double pendulum as one two-link leg (`_PlanarLeg`)
on a floating or a welded base, each term constant coefficients times a
trigonometric basis of the leg angles.

Every system also gives the closed-form partials that the action models
need: the bias partials and the inertia contraction d(M w)/dq. Only a leg
holds contacts (`action.check_contacts` rejects a pendulum's tip pin, two
rows on one velocity, when its model is built), so only a leg gives the
contact partials d(J w)/dq, d(J^T f)/dq and the drift partials of a frame
(after Carpentier & Mansard, "Analytical derivatives of rigid body dynamics
algorithms", RSS 2018, cut down to planar chains). Finite differences
only audit them (`fddp check-derivatives` and the tests).

The terms of the stacked derivative pass (`mass_matrix`, `bias_partials`,
`inertia_contraction_partial`, `frame_placement`, `frame_jacobian`,
`frame_partials`, `com`, `com_jacobian`) broadcast over leading node axes of
q, v, w and f; a constant term may return one unstacked array. The forward
step takes one node through one call, `forward_terms(q, v, frames)`: M, the
bias, and the stacked placements, Jacobians and drifts of the listed frames,
the data that its dynamics, contacts and impulses share. A leg makes it one
evaluation of its basis, for any frames; the other systems compose M and
the bias, with no frame rows. A leg gives its bias through `forward_terms`
alone: `bias`, the one-node term of a free step over a constant inertia,
is the pendulum's and the double integrator's.

A constructor checks each parameter, then the constants derived from them
(under errstate): an overflow raises `ParameterError` naming a factor. An
inertia that does not depend on q (pendulum, double integrator) is
`constant_inertia`, checked when the system is built and factored once by
free dynamics, whose node step then evaluates only the bias.
"""

from __future__ import annotations

from math import cos, isfinite, sin
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ParameterError, finite
from .manifolds import CompositeManifold, Manifold, Rotation2D, VectorSpace

GRAVITY = 9.81


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


def _parameter(name: str, value, zero_ok=False) -> float:
    """A mass, length or inertia must be > 0; a damping (zero_ok) >= 0."""
    value = finite(name, float(value))
    if not (value >= 0.0 if zero_ok else value > 0.0):
        raise ParameterError(name, f"must be {'>=' if zero_ok else '>'} 0, got {value}")
    return value


def _derived(value: float, factors: dict, positive=False) -> float:
    """value, computed under errstate from the finite parameters `factors`
    ({name: value}), checked: an overflow (or NaN) names the largest factor,
    and a zero where it must be `positive` (an underflow) the smallest."""
    if not isfinite(value):
        name = max(factors, key=lambda n: abs(factors[n]))
        raise ParameterError(name, f"overflows a constant derived from it, got {factors[name]}")
    if positive and not value > 0.0:
        name = min(factors, key=lambda n: abs(factors[n]))
        raise ParameterError(name, f"underflows a constant derived from it, got {factors[name]}")
    return value


def _rod_inertia(mass: float, length: float) -> float:
    with np.errstate(over="ignore"):  # the leg's check names an overflow
        return float(mass * np.float64(length) ** 2 / 12.0)


def _count(name: str, value) -> int:
    """A dimension or a number of bodies must be a whole number >= 1."""
    number = float(value)
    if not (number >= 1.0 and number.is_integer()):
        raise ParameterError(name, f"must be a whole number >= 1, got {value}")
    return int(number)


def _unit_down(phi) -> np.ndarray:
    # Leg direction: points straight down at phi = 0. Shape phi.shape + (2,).
    return np.stack([np.sin(phi), -np.cos(phi)], axis=-1)


def _unit_side(phi) -> np.ndarray:
    # Derivative of _unit_down w.r.t. phi.
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


class MechanicalSystem:
    """Base for (q, v) systems. Subclasses fill the kinematic/dynamic terms."""

    nq: int
    nv: int
    nu: int
    config: Manifold
    frames: tuple[str, ...] = ()
    # M when it does not depend on q, read-only and positive definite; None otherwise.
    constant_inertia: np.ndarray | None = None

    def __init__(self, actuated=None):
        if self.config.nx != self.nq or self.config.ndx != self.nv:
            raise DimensionMismatch("configuration manifold does not match nq/nv")
        self.state = CompositeManifold([self.config, VectorSpace(self.nv)])
        # The columns of S pick the actuated velocity coordinates (all by default).
        joints = slice(None) if actuated is None else actuated
        self._actuation = _read_only(np.eye(self.nv)[:, joints])
        # The placement, Jacobian and drift of an empty frame list.
        self._no_frames = (
            _read_only(np.zeros(0)), _read_only(np.zeros((0, self.nv))), _read_only(np.zeros(0))
        )

    # -- mandatory dynamics terms ------------------------------------------

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        """M(q), broadcast over leading axes of q, or the constant inertia."""
        if self.constant_inertia is None:
            raise NotImplementedError
        return self.constant_inertia

    def bias(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def actuation(self) -> np.ndarray:
        """S in M vdot + bias = S u, built once and read-only."""
        return self._actuation

    def forward_terms(self, q, v, frames: tuple[str, ...] = ()):
        """(M, bias, placement, Jc, drift) at (q, v), broadcast over leading
        node axes of q and v; M may be one unstacked constant.

        placement, Jc and drift stack the frame placements, Jacobians and
        drifts (Jdot v) of `frames`, in order, row on row. No frame of a
        system without a leg holds a contact, so here `frames` is empty and
        they have no rows.
        """
        if frames:
            raise DimensionMismatch(f"system holds no contact at frame {frames[0]!r}")
        return (self.mass_matrix(q), self.bias(q, v)) + self._no_frames

    # -- analytic partials (configuration tangent coordinates) --------------

    def bias_partials(self, q, v) -> tuple[np.ndarray, np.ndarray]:
        """(d bias/dq, d bias/dv)."""
        raise NotImplementedError

    def inertia_contraction_partial(self, q, w) -> np.ndarray:
        """d/dq [M(q) w] for a fixed vector w, in configuration tangent coords."""
        if self.constant_inertia is None:
            raise NotImplementedError
        return np.zeros(q.shape[:-1] + (self.nv, self.nv))

    # -- frames (point frames: placement in R^2 or R^1) ---------------------

    def frame_placement(self, q, frame: str) -> np.ndarray:
        raise DimensionMismatch(f"system has no frame {frame!r}")

    def frame_jacobian(self, q, frame: str) -> np.ndarray:
        raise DimensionMismatch(f"system has no frame {frame!r}")

    def com(self, q) -> np.ndarray:
        raise DimensionMismatch("system has no center-of-mass model")

    def com_jacobian(self, q) -> np.ndarray:
        raise DimensionMismatch("system has no center-of-mass model")

    # -- helpers -------------------------------------------------------------

    def split_state(self, x) -> tuple[np.ndarray, np.ndarray]:
        return x[: self.nq], x[self.nq :]

    def nominal_state(self) -> np.ndarray:
        return np.zeros(self.state.nx)


class LinearDynamics:
    """First-order linear flow xdot = A x + B u + c (the LQR oracle model)."""

    def __init__(self, A, B, c=None):
        self.A = np.atleast_2d(finite("A", A))
        self.B = np.atleast_2d(finite("B", B))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape[0] != n:
            raise DimensionMismatch("A must be square and B row-compatible")
        self.c = np.zeros(n) if c is None else finite("c", c)
        if self.c.shape != (n,):
            raise DimensionMismatch("c must match the state dimension")
        self.nx = n
        self.nu = self.B.shape[1]
        self.state = VectorSpace(n)

    def flow(self, x, u) -> np.ndarray:
        return self.A @ x + self.B @ u + self.c

    def flow_stack(self, X, U) -> np.ndarray:
        """The flows (n, nx) of n nodes at X (n, nx), U (n, nu)."""
        return X @ self.A.T + U @ self.B.T + self.c


class DoubleIntegrator(MechanicalSystem):
    """n independent unit masses, direct force control, no gravity."""

    def __init__(self, dim: int = 2):
        self.nq = self.nv = self.nu = _count("dim", dim)
        self.config = VectorSpace(self.nv)
        super().__init__()
        self.constant_inertia = self._actuation  # unit masses: M = S = I

    def bias(self, q, v):
        return np.zeros(v.shape)

    def bias_partials(self, q, v):
        z = np.zeros(q.shape[:-1] + (self.nv, self.nv))
        return z, z.copy()


class Pendulum(MechanicalSystem):
    """Single planar link, angle measured from the hanging-down position."""

    frames = ("tip",)

    def __init__(self, mass=1.0, length=1.0, damping=0.0, gravity=GRAVITY):
        self.nq = self.nv = self.nu = 1
        self.mass = _parameter("mass", mass)
        self.length = _parameter("length", length)
        self.damping = _parameter("damping", damping, zero_ok=True)
        self.gravity = finite("gravity", float(gravity))
        self.config = VectorSpace(1)
        super().__init__()
        with np.errstate(over="ignore"):
            inertia = self.mass * np.float64(self.length) ** 2
        factors = {"mass": self.mass, "length": self.length}
        self.constant_inertia = _read_only(np.array([[_derived(inertia, factors, positive=True)]]))
        factors["gravity"] = self.gravity
        self._torque = _derived(self.mass * self.gravity * self.length, factors)

    def bias(self, q, v):
        if q.ndim == 1:  # one node, as in every forward step: math's sin on floats
            sine = sin(q.item(0)) if isfinite(q.item(0)) else np.nan  # numpy's at inf
            bias = np.empty(1)
            bias[0] = self._torque * sine + self.damping * v.item(0)
            return bias
        return self._torque * np.sin(q[..., :1]) + self.damping * v[..., :1]

    def bias_partials(self, q, v):
        dq = (self._torque * np.cos(q[..., :1]))[..., None]
        return dq, np.full(dq.shape, self.damping)

    def frame_placement(self, q, frame):
        if frame != "tip":
            return super().frame_placement(q, frame)
        return self.length * _unit_down(q[..., 0])

    def frame_jacobian(self, q, frame):
        if frame != "tip":
            return super().frame_jacobian(q, frame)
        return (self.length * _unit_side(q[..., 0]))[..., None]

    def com(self, q):
        return self.length * _unit_down(q[..., 0])

    def com_jacobian(self, q):
        return (self.length * _unit_side(q[..., 0]))[..., None]


# D_j with D_j b = d b/d phi_j for the leg basis b = [1, cos phi1, sin phi1,
# cos phi2, sin phi2, cos(phi1 - phi2), sin(phi1 - phi2)]: each (cos, sin) index
# pair turns at the rate of its angle. The D_j commute, because the span of b is
# closed under both derivatives.
_BASIS_RATES = np.zeros((2, 7, 7))
for _j, _c, _s, _rate in ((0, 1, 2, 1.0), (0, 5, 6, 1.0), (1, 3, 4, 1.0), (1, 5, 6, -1.0)):
    _BASIS_RATES[_j, _c, _s], _BASIS_RATES[_j, _s, _c] = -_rate, _rate
_read_only(_BASIS_RATES)


def _rows_times(rows, matrices):
    """rows[..., :] @ matrices[..., :, :] for each leading index, as (..., n) rows.

    Each row of a stack takes the same vector-matrix product as a single row,
    which takes it directly, so a node's terms come out bit for bit the same
    whatever stack it sits in.
    """
    if rows.ndim == 1:
        return rows @ matrices
    return (rows[..., None, :] @ matrices)[..., 0, :]


class _PointTerms(NamedTuple):
    """Constant terms of a point p = E q + a1 down(phi1) + a2 down(phi2).

    b @ place is a1 down(phi1) + a2 down(phi2), for down = (sin, -cos), and
    b @ jacobian, b @ hessian, b @ third reshape to the Jacobian dp/dq (2, nv),
    its q-derivative (2, nv, nv) and that one's (2, nv, nv, nv). drift (7, 3, 2)
    gives the drift Jdot v = -a1 down(phi1) w1^2 - a2 down(phi2) w2^2 as
    s @ (b @ drift) for s = [1, w1^2, w2^2], the speed form of the bias.
    """

    place: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray
    third: np.ndarray
    drift: np.ndarray


class _PlanarLeg(MechanicalSystem):
    """A two-link planar leg on a base, the monoped's and the double pendulum's.

    Every term depends on q only through the absolute leg angles
    phi = [c1; c2] q, by way of the 7-term basis b(q) = [1, cos phi1,
    sin phi1, cos phi2, sin phi2, cos(phi1 - phi2), sin(phi1 - phi2)], and on
    v only through the leg rates omega = [c1; c2] v. So each term is one
    evaluation of b times constant coefficients: M = C_M b and
    bias = T (b (x) [1, w1^2, w2^2]). The constructor derives them, with no
    fitting, from the total mass, the rotational inertias, gravity and the
    mass moments mu_k = sum_b m_b a_kb and mu_kl = sum_b m_b a_kb a_lb of
    the body centers E q + a1 down(phi1) + a2 down(phi2). The q-partials
    use d b/d phi_j = D_j b for constant 7x7 matrices D_j, right-multiplied
    by [c1; c2], both folded into coefficients of their own. The frames and
    the center of mass are points of the same form (`_point_terms`).

    A node's forward step (`forward_terms`) is one product of b with the
    columns [C_M | speed block | placements | Jacobians] of its frames; the
    speed block stacks T with the frames' drift coefficients, which take the
    same s = [1, w1^2, w2^2]. The columns of each frame tuple are gathered
    from the point terms once, on its first call.

    A subclass gives its coordinate layout: the leg rows `_LEG_ROWS`
    ([c1; c2]), the base-translation rows `_BASE_TRANSLATION` (E, either
    [I 0], whose translation is q[:2], or zero on a welded base), the base
    heading's row `_SPIN` and `_leg`, which applies c1 and c2.
    """

    _LEG_ROWS: np.ndarray
    _BASE_TRANSLATION: np.ndarray
    _SPIN: np.ndarray

    @staticmethod
    def _leg(values):
        """(c1 . values, c2 . values), for one point as floats or, unpacked
        along the first axis, for a stack as arrays."""
        raise NotImplementedError

    def __init__(self, masses, centers, spin_inertia, points, parameters, actuated=None):
        """Bodies of `masses` centered at (a1, a2) = `centers`, the base turning
        with `spin_inertia`, and frames `points` = {name: (a1, a2)}; the
        subclass sets gravity, the link inertias I1 and I2 and its manifold,
        and gives its checked `parameters` ({name: value})."""
        super().__init__(actuated)
        self.total_mass = sum(masses)
        self._floating = bool(self._BASE_TRANSLATION.any())
        masses = np.array(masses)
        coeffs = np.array(centers)
        with np.errstate(over="ignore", invalid="ignore"):
            self._mu = masses @ coeffs
            self._mu2 = coeffs.T @ (masses[:, None] * coeffs)
            self._mass_coeffs, self._bias_coeffs = self._dynamics_coefficients(spin_inertia)
            self._mass_partials = self._q_partials(self._mass_coeffs)
            self._bias_partials = self._q_partials(self._bias_coeffs)
            self._points = {name: self._point_terms(*a) for name, a in points.items()}
            self._com_point = self._point_terms(*(self._mu / self.total_mass))
        terms = [self._mass_coeffs, self._bias_coeffs, self._mass_partials, self._bias_partials]
        terms += [term for point in (self._com_point, *self._points.values()) for term in point]
        _derived(np.abs(np.concatenate([term.ravel() for term in terms])).max(), parameters)
        self._forward_columns = {}  # frame tuple -> its forward_terms columns

    def _q_partials(self, coeffs):
        """P with (b @ P).reshape(n, nv) = d(b @ coeffs)/dq for coeffs (7, n): by
        the chain rule through phi = [c1; c2] q, sum_l (b @ D_l^T coeffs) c_l^T."""
        per_angle = _BASIS_RATES.transpose(0, 2, 1) @ coeffs
        return _read_only(np.einsum("lin,lv->inv", per_angle, self._LEG_ROWS).reshape(7, -1))

    def _point_terms(self, a1, a2) -> _PointTerms:
        links = np.zeros((2, 7, 2))  # b @ links[k] = a_k down(phi_k)
        links[0, 2, 0], links[0, 1, 1] = a1, -a1
        links[1, 4, 0], links[1, 3, 1] = a2, -a2
        place = links.sum(axis=0)
        drift = np.zeros((7, 3, 2))
        drift[:, 1:] = -links.transpose(1, 0, 2)
        jacobian = np.array(self._q_partials(place))
        jacobian[0] += self._BASE_TRANSLATION.ravel()  # b[0] = 1
        hessian = self._q_partials(jacobian)
        third = self._q_partials(hessian)
        return _PointTerms(_read_only(place), _read_only(jacobian), hessian, third, _read_only(drift))

    def _dynamics_coefficients(self, spin_inertia):
        """C_M (7, nv nv) and T (7, 3 nv) with M = b @ C_M and bias = s @ (b @ T).

        With J_b = E + sum_k a_kb side_k c_k^T, side = (cos, sin), the sum
        M = sum_b m_b J_b^T J_b + (spin terms) is
            m E^T E + sum_k mu_k (E^T side_k c_k^T + c_k side_k^T E)
            + sum_kl mu_kl cos(phi_k - phi_l) c_k c_l^T + R,
        and bias = sum_b m_b J_b^T (drift_b - g), with
        drift_b = -sum_k a_kb down_k w_k^2, is
            m g e_z + sum_k mu_k g sin(phi_k) c_k
            - sum_k w_k^2 [mu_k E^T down_k + sum_l mu_kl (side_l . down_k) c_l],
        where side_l . down_k = sin(phi_k - phi_l). T is indexed by
        (basis term, s term, coordinate) for s = [1, w1^2, w2^2].
        """
        mu, mu2, g, nv = self._mu, self._mu2, self.gravity, self.nv
        e_x, e_z = self._BASE_TRANSLATION
        spin = self._SPIN

        def sym(a, b):
            return np.outer(a, b) + np.outer(b, a)

        mass = np.zeros((7, nv, nv))
        bias = np.zeros((7, 3, nv))
        mass[0] = self.total_mass * (np.outer(e_x, e_x) + np.outer(e_z, e_z))
        mass[0] += spin_inertia * np.outer(spin, spin)
        mass[5] = mu2[0, 1] * sym(*self._LEG_ROWS)
        bias[0, 0] = self.total_mass * g * e_z
        for k, (cos_k, sin_k) in enumerate(((1, 2), (3, 4))):
            row, other = self._LEG_ROWS[k], self._LEG_ROWS[1 - k]
            mass[0] += (mu2[k, k] + (self.I1, self.I2)[k]) * np.outer(row, row)
            mass[cos_k] = mu[k] * sym(e_x, row)
            mass[sin_k] = mu[k] * sym(e_z, row)
            bias[sin_k, 0] = mu[k] * g * row
            bias[sin_k, 1 + k] = -mu[k] * e_x
            bias[cos_k, 1 + k] = mu[k] * e_z
            # sin(phi_k - phi_other) is -sin(phi1 - phi2) for k = 1, +sin for k = 2.
            bias[6, 1 + k] = (2 * k - 1) * mu2[0, 1] * other
        return _read_only(mass.reshape(7, -1)), _read_only(bias.reshape(7, -1))

    def _basis(self, q):
        """b(q), of shape (..., 7) for q of shape (..., nq)."""
        if q.ndim > 1:
            # The transposes unpack the coordinates along the first axis.
            angles = np.empty(q.shape[:-1] + (3,))
            by_angle = angles.T
            by_angle[0], by_angle[1] = self._leg(q.T)
            np.subtract(by_angle[0], by_angle[1], out=by_angle[2])
            b = np.empty(q.shape[:-1] + (7,))
            b[..., 0] = 1.0
            np.cos(angles, out=b[..., 1::2])
            np.sin(angles, out=b[..., 2::2])
            return b
        # One configuration, as in every forward step: math's cos and sin on
        # floats cost a tenth of numpy's on one element (and agree with them).
        phi1, phi2 = self._leg(q.tolist())
        try:
            c1, s1, c2, s2 = cos(phi1), sin(phi1), cos(phi2), sin(phi2)
            return np.array([1.0, c1, s1, c2, s2, cos(phi1 - phi2), sin(phi1 - phi2)])
        except ValueError:  # an infinite angle, whose cos and sin numpy makes NaN
            return np.full(7, np.nan)

    def _translated(self, q, points):
        """E q + points, for points of shape (..., 2)."""
        return q[..., :2] + points if self._floating else points

    def _point(self, frame) -> _PointTerms:
        try:
            return self._points[frame]
        except KeyError:
            raise DimensionMismatch(f"system has no frame {frame!r}") from None

    def _gather_forward_columns(self, frames):
        """The read-only (7, nv nv + 3 (nv + nf) + nf + nv nf) columns of
        forward_terms for `frames`, nf = 2 rows per frame: C_M, the speed block
        [T | drifts] (s-major), the placements and the Jacobians (row-major)."""
        points = [self._point(frame) for frame in frames]
        speed = np.concatenate(
            [self._bias_coeffs.reshape(7, 3, self.nv)] + [p.drift for p in points], axis=2
        )
        return _read_only(
            np.concatenate(
                [self._mass_coeffs, speed.reshape(7, -1)]
                + [p.place for p in points]
                + [p.jacobian for p in points],
                axis=1,
            )
        )

    # -- dynamics --------------------------------------------------------------------

    def mass_matrix(self, q):
        return _rows_times(self._basis(q), self._mass_coeffs).reshape(q.shape[:-1] + (self.nv,) * 2)

    def forward_terms(self, q, v, frames=()):
        columns = self._forward_columns.get(frames)
        if columns is None:
            columns = self._forward_columns[frames] = self._gather_forward_columns(frames)
        nv, nf = self.nv, 2 * len(frames)
        mass_end = nv * nv
        speed_end = mass_end + 3 * (nv + nf)
        if q.ndim == 1:  # one node, as in every forward step
            lead = ()
            terms = self._basis(q) @ columns
            w1, w2 = self._leg(v.tolist())
            speeds = np.array([1.0, w1 * w1, w2 * w2]) @ terms[mass_end:speed_end].reshape(3, nv + nf)
        else:
            lead = q.shape[:-1]
            terms = _rows_times(self._basis(q), columns)
            w1, w2 = (rate.T for rate in self._leg(v.T))
            s = np.stack([np.ones(lead), w1 * w1, w2 * w2], axis=-1)
            speeds = _rows_times(s, terms[..., mass_end:speed_end].reshape(lead + (3, nv + nf)))
        placement = terms[..., speed_end : speed_end + nf].reshape(lead + (-1, 2))
        if self._floating:
            placement = q[..., None, :2] + placement
        return (
            terms[..., :mass_end].reshape(lead + (nv, nv)),
            speeds[..., :nv],
            placement.reshape(lead + (nf,)),
            terms[..., speed_end + nf :].reshape(lead + (nf, nv)),
            speeds[..., nv:],
        )

    def bias_partials(self, q, v):
        lead, nv = q.shape[:-1], self.nv
        b = self._basis(q)
        w1, w2 = (rate.T for rate in self._leg(v.T))
        speeds = np.stack([np.ones_like(w1), w1 * w1, w2 * w2], axis=-1)
        dq = _rows_times(speeds, _rows_times(b, self._bias_partials).reshape(lead + (3, nv * nv)))
        # d bias/d w_k^2, one row per leg angle.
        speed_terms = _rows_times(b, self._bias_coeffs).reshape(lead + (3, nv))[..., 1:, :]
        rates = np.stack([2.0 * w1, 2.0 * w2], axis=-1)
        dv = (np.swapaxes(speed_terms, -1, -2) * rates[..., None, :]) @ self._LEG_ROWS
        return dq.reshape(lead + (nv, nv)), dv

    def inertia_contraction_partial(self, q, w):
        partials = _rows_times(self._basis(q), self._mass_partials)
        return _rows_times(w[..., None, :], partials.reshape(q.shape[:-1] + (self.nv,) * 3))

    # -- frames and center of mass ---------------------------------------------------

    def frame_placement(self, q, frame):
        return self._translated(q, _rows_times(self._basis(q), self._point(frame).place))

    def frame_jacobian(self, q, frame):
        jacobian = _rows_times(self._basis(q), self._point(frame).jacobian)
        return jacobian.reshape(q.shape[:-1] + (2, self.nv))

    def frame_partials(self, q, v, w, f, frame):
        """Contact partials of a frame for a fixed w and f:
        (d(J w)/dq, d(J^T f)/dq, d drift/dq, d drift/dv)."""
        # With H = d^2 p/dq^2: d(J w)/dq = H w, d(J^T f)/dq = f H, drift = (H v) v.
        _, _, hessian, third, _ = self._point(frame)
        lead, nv = q.shape[:-1], self.nv
        b = self._basis(q)
        hessian = _rows_times(b, hessian).reshape(lead + (2, nv, nv))
        third = _rows_times(b, third).reshape(lead + (2, nv, nv * nv))
        jtf_q = _rows_times(f, hessian.reshape(lead + (2, nv * nv))).reshape(lead + (nv, nv))
        v_row = v[..., None, :]
        drift_q = _rows_times(v_row, _rows_times(v_row, third).reshape(hessian.shape))
        drift_v = 2.0 * (hessian @ v_row[..., None])[..., 0]
        return _rows_times(w[..., None, :], hessian), jtf_q, drift_q, drift_v

    def com(self, q):
        return self._translated(q, _rows_times(self._basis(q), self._com_point.place))

    def com_jacobian(self, q):
        jacobian = _rows_times(self._basis(q), self._com_point.jacobian)
        return jacobian.reshape(q.shape[:-1] + (2, self.nv))


class DoublePendulum(_PlanarLeg):
    """Two planar links with both joints actuated, angles from hanging down.

    The leg on a welded base: configuration (q1, q2), the shoulder angle and
    the elbow angle, so the absolute link angles are phi1 = q1 and
    phi2 = q1 + q2. The links' centers sit at lc1 and lc2 along them, and
    the frame "tip" is the end of the second link.
    """

    frames = ("tip",)
    _LEG_ROWS = _read_only(np.array([[1.0, 0.0], [1.0, 1.0]]))
    _BASE_TRANSLATION = _read_only(np.zeros((2, 2)))
    _SPIN = _read_only(np.zeros(2))

    @staticmethod
    def _leg(values):
        shoulder, elbow = values
        return shoulder, shoulder + elbow

    def __init__(self, m1=1.0, m2=1.0, l1=1.0, l2=1.0, lc1=0.5, lc2=0.5, gravity=GRAVITY):
        self.nq = self.nv = self.nu = 2
        self.m1, self.m2 = _parameter("m1", m1), _parameter("m2", m2)
        self.l1, self.l2 = _parameter("l1", l1), _parameter("l2", l2)
        self.lc1, self.lc2 = _parameter("lc1", lc1), _parameter("lc2", lc2)
        self.I1, self.I2 = _rod_inertia(self.m1, self.l1), _rod_inertia(self.m2, self.l2)
        self.gravity = finite("gravity", float(gravity))
        self.config = VectorSpace(2)
        super().__init__(
            masses=(self.m1, self.m2),
            centers=((self.lc1, 0.0), (self.l1, self.lc2)),
            spin_inertia=0.0,
            points={"tip": (self.l1, self.l2)},
            parameters=dict(m1=self.m1, m2=self.m2, l1=self.l1, l2=self.l2, lc1=self.lc1,
                            lc2=self.lc2, gravity=self.gravity),
        )


class PlanarMonoped(_PlanarLeg):
    """Floating planar base with a two-link leg; only the leg joints actuated.

    Configuration (x, z, theta, hip, knee): base translation in R^2, wrapped
    base heading, then the two relative joint angles. The heading's tangent
    is the plain angle increment, so tangent partials equal coordinate
    partials. The leg angles are the thigh angle phi1 = theta + hip and the
    shank angle phi2 = phi1 + knee; the base center is the base translation
    itself, and the frames are the foot and the hip.
    """

    frames = ("foot", "hip")
    _LEG_ROWS = _read_only(np.array([[0.0, 0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0, 1.0]]))
    _BASE_TRANSLATION = _read_only(np.eye(2, 5))
    _SPIN = _read_only(np.array([0.0, 0.0, 1.0, 0.0, 0.0]))

    @staticmethod
    def _leg(values):
        _, _, theta, hip, knee = values
        thigh = theta + hip
        return thigh, thigh + knee

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
        self.nq, self.nv, self.nu = 5, 5, 2
        self.mB = _parameter("base_mass", base_mass)
        self.IB = _parameter("base_inertia", base_inertia)
        self.m1 = _parameter("thigh_mass", thigh_mass)
        self.m2 = _parameter("shank_mass", shank_mass)
        self.l1 = _parameter("thigh_length", thigh_length)
        self.l2 = _parameter("shank_length", shank_length)
        self.lc1 = 0.5 * self.l1
        self.lc2 = 0.5 * self.l2
        self.I1, self.I2 = _rod_inertia(self.m1, self.l1), _rod_inertia(self.m2, self.l2)
        self.gravity = finite("gravity", float(gravity))
        self.config = CompositeManifold([VectorSpace(2), Rotation2D(), VectorSpace(2)])
        super().__init__(
            masses=(self.mB, self.m1, self.m2),
            centers=((0.0, 0.0), (self.lc1, 0.0), (self.l1, self.lc2)),
            spin_inertia=self.IB,
            points={"foot": (self.l1, self.l2), "hip": (0.0, 0.0)},
            parameters=dict(base_mass=self.mB, base_inertia=self.IB, thigh_mass=self.m1,
                            shank_mass=self.m2, thigh_length=self.l1, shank_length=self.l2,
                            gravity=self.gravity),
            actuated=[3, 4],
        )


def lqr_chain_dynamics(masses: int = 3, stiffness: float = 4.0, damping: float = 0.4):
    """Spring-mass chain as a first-order linear flow; every mass actuated."""
    n = _count("masses", masses)
    damping = _parameter("damping", damping, zero_ok=True)
    # K holds stiffness and -2 * stiffness: both must be finite, of any sign.
    stiffness = float(stiffness)
    finite("stiffness", [stiffness, -2.0 * stiffness])
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
