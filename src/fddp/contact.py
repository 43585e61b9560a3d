"""Rigid-contact forward dynamics, impulse dynamics, and their derivatives.

Both problems share one saddle-point structure,

    [ M   Jc^T ] [  w ]   [ b1 ]
    [ Jc   0   ] [ -z ] = [ b2 ],

solved by block elimination through two Cholesky factorizations (M and the
operational-space inertia Mhat = Jc M^-1 Jc^T). Derivatives reuse the same
factors: only triangular solves happen per right-hand-side column.

Sign conventions, fixed once for the whole library:
  forward dynamics   M vdot - Jc^T force   = tau_b,   Jc vdot   = -a0
  impulse dynamics   M v_plus - Jc^T imp   = M v_minus, Jc v_plus = -e Jc v_minus
The returned force/impulse Jacobians are the Jacobians of exactly those
returned quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    DimensionMismatch,
    FactorizationError,
    NumericalFailure,
    RankDeficientConstraint,
)

# Cholesky pivots of Mhat below this flag a redundant constraint set.
RANK_PIVOT_TOL = 1e-10

DEFAULT_ALPHA = 100.0
DEFAULT_BETA = 20.0


@dataclass(frozen=True)
class Contact:
    """One point contact: frame name, reference placement, Baumgarte gains.

    Placements of the planar toy systems are plain translation vectors, so the
    reference mismatch term is vector subtraction (no rotational placement part).
    """

    frame: str
    reference: np.ndarray
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        object.__setattr__(self, "reference", np.atleast_1d(np.asarray(self.reference, float)))
        if self.alpha < 0.0 or self.beta < 0.0:
            raise DimensionMismatch("Baumgarte gains must be >= 0")
        if self.nf < 1:
            raise DimensionMismatch("contact constraint dimension must be >= 1")

    @property
    def nf(self) -> int:
        return self.reference.size


@dataclass(frozen=True)
class ContactSet:
    contacts: tuple[Contact, ...]

    def __post_init__(self):
        object.__setattr__(self, "contacts", tuple(self.contacts))
        if self.nf < 1:
            raise DimensionMismatch("a contact set needs nf >= 1")

    @property
    def nf(self) -> int:
        return sum(c.nf for c in self.contacts)


def baumgarte_a0(contact: Contact, placement_current, velocity_current, drift_acceleration):
    """Desired constraint-space acceleration with placement/velocity correction.

    a0 = a_drift - alpha * (reference - current) - beta * v_frame
    """
    cur = np.asarray(placement_current, float)
    vel = np.asarray(velocity_current, float)
    drift = np.asarray(drift_acceleration, float)
    if cur.shape != (contact.nf,) or vel.shape != (contact.nf,) or drift.shape != (contact.nf,):
        raise DimensionMismatch(
            f"placement/velocity/drift must all have shape ({contact.nf},)"
        )
    return drift - contact.alpha * (contact.reference - cur) - contact.beta * vel


@dataclass
class ContactWorkspace:
    """Holds one solved contact-dynamics instance plus its Cholesky factors."""

    M: np.ndarray
    Jc: np.ndarray
    tau_b: np.ndarray
    a0: np.ndarray
    Mhat: np.ndarray
    vdot: np.ndarray
    force: np.ndarray
    m_factor: object = field(repr=False, default=None)
    mhat_factor: object = field(repr=False, default=None)

    @property
    def nv(self) -> int:
        return self.M.shape[0]

    @property
    def nf(self) -> int:
        return self.Jc.shape[0]

    def apply_inverse(self, b1, b2):
        """(w, z) with [w; -z] = K^-1 [b1; b2], through the stored factors."""
        return _kkt_apply_inverse(self.m_factor, self.Jc, self.mhat_factor, b1, b2)


@dataclass
class ImpulseWorkspace:
    """Solved impulse instance. dr1_dq/dr2_dq are the configuration partials of
    the two residual rows at the solution; the impulse action model fills them
    from the system's closed-form partials before asking for derivatives, and
    left unset they count as zero (configuration-independent M and Jc)."""

    M: np.ndarray
    Jc: np.ndarray
    v_minus: np.ndarray
    e: float
    v_plus: np.ndarray
    impulse: np.ndarray
    m_factor: object = field(repr=False, default=None)
    mhat_factor: object = field(repr=False, default=None)
    dr1_dq: np.ndarray | None = None
    dr2_dq: np.ndarray | None = None

    @property
    def nv(self) -> int:
        return self.M.shape[0]

    @property
    def nf(self) -> int:
        return self.Jc.shape[0]


def _check_kkt_inputs(M, Jc) -> tuple[np.ndarray, np.ndarray]:
    M = np.asarray(M, float)
    Jc = np.atleast_2d(np.asarray(Jc, float))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"inertia must be square, got shape {M.shape}")
    if Jc.shape[1] != M.shape[0]:
        raise DimensionMismatch(
            f"contact Jacobian has {Jc.shape[1]} columns, inertia is {M.shape[0]}x{M.shape[0]}"
        )
    if not (np.isfinite(M).all() and np.isfinite(Jc).all()):
        raise NumericalFailure("non-finite entries in contact dynamics inputs")
    return M, Jc


def _factorize(M: np.ndarray, Jc: np.ndarray):
    try:
        m_factor = cho_factor(M, lower=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("joint-space inertia is not positive definite") from exc
    minv_jt = cho_solve(m_factor, Jc.T)
    mhat = Jc @ minv_jt
    mhat = 0.5 * (mhat + mhat.T)
    try:
        mhat_factor = cho_factor(mhat, lower=True)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientConstraint(
            "operational-space inertia is not positive definite (constraint rows dependent?)"
        ) from exc
    pivots = np.diag(mhat_factor[0]) ** 2
    if pivots.size and pivots.min() < RANK_PIVOT_TOL:
        raise RankDeficientConstraint(
            f"operational-space inertia pivot {pivots.min():.3e} below {RANK_PIVOT_TOL:.0e}"
        )
    return m_factor, mhat, mhat_factor


def _kkt_apply_inverse(m_factor, Jc, mhat_factor, b1, b2):
    """Solve M w + Jc^T z_neg = b1, Jc w = b2 with z_neg = -z; returns (w, z).

    Equivalently: [w; -z] = K^-1 [b1; b2] for the saddle-point matrix K.
    Works columnwise on matrices too.
    """
    z = cho_solve(mhat_factor, Jc @ cho_solve(m_factor, b1) - b2)
    w = cho_solve(m_factor, b1 - Jc.T @ z)
    return w, z


def contact_forward_dynamics(M, Jc, tau_b, a0) -> ContactWorkspace:
    """Constrained accelerations and contact forces for one rigid-contact node.

    Returns a workspace whose (vdot, force) satisfy
    M vdot - Jc^T force = tau_b and Jc vdot = -a0.
    """
    M, Jc = _check_kkt_inputs(M, Jc)
    tau_b = np.asarray(tau_b, float)
    a0 = np.asarray(a0, float)
    if not (np.isfinite(tau_b).all() and np.isfinite(a0).all()):
        raise NumericalFailure("non-finite entries in contact dynamics inputs")
    if tau_b.shape != (M.shape[0],):
        raise DimensionMismatch(f"tau_b must have shape ({M.shape[0]},), got {tau_b.shape}")
    if a0.shape != (Jc.shape[0],):
        raise DimensionMismatch(f"a0 must have shape ({Jc.shape[0]},), got {a0.shape}")

    m_factor, mhat, mhat_factor = _factorize(M, Jc)
    # Right-hand side [tau_b; -a0]; the eliminated multiplier block is -force.
    # Ill-conditioned but factorizable systems can overflow to inf during the
    # triangular solves; surface that as a recoverable numerical failure.
    try:
        vdot, z = _kkt_apply_inverse(m_factor, Jc, mhat_factor, tau_b, -a0)
    except ValueError as exc:
        raise NumericalFailure("non-finite contact solve") from exc
    if not np.isfinite(vdot).all():
        raise NumericalFailure("non-finite contact accelerations")
    return ContactWorkspace(
        M=M,
        Jc=Jc,
        tau_b=tau_b,
        a0=a0,
        Mhat=mhat,
        vdot=vdot,
        force=-z,
        m_factor=m_factor,
        mhat_factor=mhat_factor,
    )


def contact_dynamics_derivatives(
    workspace: ContactWorkspace, dtau_dx, dtau_du, da0_dx, da0_du
):
    """Jacobian blocks (y_x, y_u, g_x, g_u) of (vdot, force).

    Input partials are total derivatives of the two KKT rows at the solution,
    holding (vdot, force) fixed:

        dtau_d* = d/d* [ tau_b - M vdot + Jc^T force ]
        da0_d*  = d/d* [ a0 + Jc vdot ]

    For configuration-independent M and Jc these are just the partials of
    tau_b and a0. The factored KKT inverse is applied to the stacked
    right-hand sides; no refactorization happens here.
    """
    nv, nf = workspace.nv, workspace.nf
    dtau_dx = np.atleast_2d(np.asarray(dtau_dx, float))
    dtau_du = np.atleast_2d(np.asarray(dtau_du, float))
    da0_dx = np.atleast_2d(np.asarray(da0_dx, float))
    da0_du = np.atleast_2d(np.asarray(da0_du, float))
    if dtau_dx.shape[0] != nv or dtau_du.shape[0] != nv:
        raise DimensionMismatch("dtau_dx/dtau_du must have nv rows")
    if da0_dx.shape[0] != nf or da0_du.shape[0] != nf:
        raise DimensionMismatch("da0_dx/da0_du must have nf rows")
    if dtau_dx.shape[1] != da0_dx.shape[1] or dtau_du.shape[1] != da0_du.shape[1]:
        raise DimensionMismatch("state/control partial column counts disagree")

    y_x, zx = workspace.apply_inverse(dtau_dx, -da0_dx)
    y_u, zu = workspace.apply_inverse(dtau_du, -da0_du)
    return y_x, y_u, -zx, -zu


def impulse_dynamics(M, Jc, v_minus, e: float) -> ImpulseWorkspace:
    """Post-impact velocity and contact impulse for a contact-gain switch.

    Solves M v_plus - Jc^T impulse = M v_minus with Jc v_plus = -e Jc v_minus.
    e = 0 is a perfectly inelastic impact (contact-point velocity zeroed).
    """
    M, Jc = _check_kkt_inputs(M, Jc)
    v_minus = np.asarray(v_minus, float)
    if v_minus.shape != (M.shape[0],):
        raise DimensionMismatch(f"v_minus must have shape ({M.shape[0]},), got {v_minus.shape}")
    if not np.isfinite(v_minus).all():
        raise NumericalFailure("non-finite entries in impulse dynamics inputs")
    if not 0.0 <= e <= 1.0:
        raise DimensionMismatch(f"restitution must lie in [0, 1], got {e}")

    m_factor, _, mhat_factor = _factorize(M, Jc)
    jv = Jc @ v_minus
    try:
        v_plus, z = _kkt_apply_inverse(m_factor, Jc, mhat_factor, M @ v_minus, -e * jv)
    except ValueError as exc:
        raise NumericalFailure("non-finite impulse solve") from exc
    if not np.isfinite(v_plus).all():
        raise NumericalFailure("non-finite post-impact velocity")
    return ImpulseWorkspace(
        M=M,
        Jc=Jc,
        v_minus=v_minus,
        e=float(e),
        v_plus=v_plus,
        impulse=-z,
        m_factor=m_factor,
        mhat_factor=mhat_factor,
    )


def impulse_dynamics_derivatives(workspace: ImpulseWorkspace):
    """Jacobians of (v_plus, impulse) w.r.t. tangent state (q, v_minus).

    Configuration dependence enters through workspace.dr1_dq / dr2_dq, the
    fixed-solution partials of the residual rows

        r1 = M(q) (v_plus - v_minus) - Jc(q)^T impulse
        r2 = Jc(q) (v_plus + e v_minus)

    left as zeros when M, Jc do not depend on q. Returns
    (dvplus_dq, dvplus_dv, dimp_dq, dimp_dv).
    """
    nv, nf = workspace.nv, workspace.nf
    ndq = nv if workspace.dr1_dq is None else np.atleast_2d(workspace.dr1_dq).shape[1]
    dr1_dq = (
        np.zeros((nv, ndq)) if workspace.dr1_dq is None else np.atleast_2d(workspace.dr1_dq)
    )
    dr2_dq = (
        np.zeros((nf, ndq)) if workspace.dr2_dq is None else np.atleast_2d(workspace.dr2_dq)
    )
    if dr1_dq.shape[0] != nv or dr2_dq.shape[0] != nf or dr1_dq.shape[1] != dr2_dq.shape[1]:
        raise DimensionMismatch("residual configuration partials have inconsistent shapes")

    args = (workspace.m_factor, workspace.Jc, workspace.mhat_factor)
    dvplus_dq, zq = _kkt_apply_inverse(*args, -dr1_dq, -dr2_dq)
    # v_minus block: r1 gives -M, r2 gives e*Jc.
    dvplus_dv, zv = _kkt_apply_inverse(*args, workspace.M, -workspace.e * workspace.Jc)
    return dvplus_dq, dvplus_dv, -zq, -zv
