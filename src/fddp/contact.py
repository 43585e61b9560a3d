"""Rigid-contact forward dynamics, impulse dynamics, and their derivatives.

Both problems share one saddle-point structure,

    [ M   Jc^T ] [  w ]   [ b1 ]
    [ Jc   0   ] [ -z ] = [ b2 ],

solved by block elimination through the operational-space inertia
Mhat = Jc M^-1 Jc^T. The forward solve of one node goes through two Cholesky
factorizations (M and Mhat), whose rank and pivot tests reject a dependent
constraint set; every Cholesky factorization of the library goes through
`_cholesky` and `_cholesky_solve` here. The derivatives take a stack of n
nodes that the forward solves have already checked, and eliminate all of
them at once (`_kkt_solve_stacked`): two batched LU solves, one with M and
one with Mhat, for all right-hand-side columns of all nodes.

Sign conventions, fixed once for the whole library:
  forward dynamics   M vdot - Jc^T force   = tau_b,   Jc vdot   = -a0
  impulse dynamics   M v_plus - Jc^T imp   = M v_minus, Jc v_plus = -e Jc v_minus

The functions here sit below the validation boundary: the action models hand
them float ndarrays of consistent shapes and they do not check shapes again.
`Contact` and `ContactSet` are constructors and check their arguments. What
the solves do check is the computation itself: non-finite inputs or results
raise `NumericalFailure`, failed factorizations `FactorizationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

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
    return (
        drift_acceleration
        - contact.alpha * (contact.reference - placement_current)
        - contact.beta * velocity_current
    )


@dataclass
class ContactWorkspace:
    """One solved contact-dynamics instance plus its Cholesky factors, which
    the quasi-static control's Newton steps reuse."""

    Jc: np.ndarray
    Mhat: np.ndarray
    vdot: np.ndarray
    force: np.ndarray
    m_factor: object = field(repr=False, default=None)
    mhat_factor: object = field(repr=False, default=None)

    @property
    def nf(self) -> int:
        return self.Jc.shape[0]

    def apply_inverse(self, b1, b2):
        """(w, z) with [w; -z] = K^-1 [b1; b2], through the stored factors."""
        return _kkt_apply_inverse(self.m_factor, self.Jc, self.mhat_factor, b1, b2)


@dataclass
class ImpulseWorkspace:
    """One solved impulse instance: the post-impact velocity and the impulse."""

    v_plus: np.ndarray
    impulse: np.ndarray


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Calls LAPACK's dpotrf directly, the routine scipy's Cholesky wrapper
    calls, so the factor is the same to the bit. Only the lower triangle of
    a is read, and the strict upper triangle of the result is left over from
    a. Nothing is checked for finiteness: a NaN can pass through unflagged,
    so callers check where a non-finite value can first appear. Raises
    `np.linalg.LinAlgError` when a leading minor is not positive definite.
    """
    c, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    return c


def _cholesky_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b, for L = _cholesky(a) and a vector or matrix b."""
    return dpotrs(c, b, lower=1)[0]


def _require_finite(what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalFailure(f"non-finite entries in {what} inputs")


def _factorize(M: np.ndarray, Jc: np.ndarray):
    try:
        m_factor = _cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("joint-space inertia is not positive definite") from exc
    minv_jt = _cholesky_solve(m_factor, Jc.T)
    mhat = Jc @ minv_jt
    mhat = 0.5 * (mhat + mhat.T)
    try:
        mhat_factor = _cholesky(mhat)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientConstraint(
            "operational-space inertia is not positive definite (constraint rows dependent?)"
        ) from exc
    pivots = np.diag(mhat_factor) ** 2
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
    z = _cholesky_solve(mhat_factor, Jc @ _cholesky_solve(m_factor, b1) - b2)
    w = _cholesky_solve(m_factor, b1 - Jc.T @ z)
    return w, z


def contact_forward_dynamics(M, Jc, tau_b, a0) -> ContactWorkspace:
    """Constrained accelerations and contact forces for one rigid-contact node.

    Returns a workspace whose (vdot, force) satisfy
    M vdot - Jc^T force = tau_b and Jc vdot = -a0.
    """
    _require_finite("contact dynamics", M, Jc, tau_b, a0)
    m_factor, mhat, mhat_factor = _factorize(M, Jc)
    # Right-hand side [tau_b; -a0]; the eliminated multiplier block is -force.
    # Ill-conditioned but factorizable systems can overflow to inf during the
    # triangular solves, and the force feeds vdot, so checking vdot covers both.
    vdot, z = _kkt_apply_inverse(m_factor, Jc, mhat_factor, tau_b, -a0)
    if not np.isfinite(vdot).all():
        raise NumericalFailure("non-finite contact accelerations")
    return ContactWorkspace(
        Jc=Jc, Mhat=mhat, vdot=vdot, force=-z, m_factor=m_factor, mhat_factor=mhat_factor
    )


def _kkt_solve_stacked(M, Jc, b1, b2):
    """w with M w + Jc^T z_neg = b1, Jc w = b2 for a stack of n saddle points.

    M (n, nv, nv), Jc (n, nf, nv), b1 (n, nv, k), b2 (n, nf, k). One batched
    solve with M gives M^-1 [Jc^T | b1], one with Mhat = Jc M^-1 Jc^T gives
    the multipliers z = Mhat^-1 (Jc M^-1 b1 - b2), and w = M^-1 b1 -
    M^-1 Jc^T z. The forward solves have checked every node's factors, so
    nothing is checked again.
    """
    nf = Jc.shape[-2]
    solved = np.linalg.solve(M, np.concatenate([np.swapaxes(Jc, -1, -2), b1], axis=-1))
    minv_jt, minv_b1 = solved[..., :nf], solved[..., nf:]
    z = np.linalg.solve(Jc @ minv_jt, Jc @ minv_b1 - b2)
    return minv_b1 - minv_jt @ z


def contact_dynamics_derivatives(M, Jc, dtau_dx, dtau_du, da0_dx, da0_du):
    """Jacobian blocks (y_x, y_u) of vdot for a stack of n contact nodes.

    M (n, nv, nv) and Jc (n, nf, nv) are each node's inertia and constraint
    Jacobian. The input partials, (n, nv, ·) and (n, nf, ·), are total
    derivatives of the two KKT rows at the solution, holding (vdot, force)
    fixed:

        dtau_d* = d/d* [ tau_b - M vdot + Jc^T force ]
        da0_d*  = d/d* [ a0 + Jc vdot ]

    For configuration-independent M and Jc these are just the partials of
    tau_b and a0. All columns of all nodes go through one stacked
    elimination.
    """
    nx = dtau_dx.shape[-1]
    y = _kkt_solve_stacked(
        M, Jc, np.concatenate([dtau_dx, dtau_du], -1), -np.concatenate([da0_dx, da0_du], -1)
    )
    return y[..., :nx], y[..., nx:]


def impulse_dynamics(M, Jc, v_minus, e: float) -> ImpulseWorkspace:
    """Post-impact velocity and contact impulse for a contact-gain switch.

    Solves M v_plus - Jc^T impulse = M v_minus with Jc v_plus = -e Jc v_minus.
    e = 0 is a perfectly inelastic impact (contact-point velocity zeroed); the
    impulse action model checks that e lies in [0, 1].
    """
    _require_finite("impulse dynamics", M, Jc, v_minus)
    m_factor, _, mhat_factor = _factorize(M, Jc)
    jv = Jc @ v_minus
    v_plus, z = _kkt_apply_inverse(m_factor, Jc, mhat_factor, M @ v_minus, -e * jv)
    if not np.isfinite(v_plus).all():
        raise NumericalFailure("non-finite post-impact velocity")
    return ImpulseWorkspace(v_plus=v_plus, impulse=-z)


def impulse_dynamics_derivatives(M, Jc, e: float, dr1_dq, dr2_dq):
    """Jacobians (dvplus_dq, dvplus_dv) of v_plus w.r.t. tangent state (q, v_minus),
    for a stack of n impulse nodes with restitution e.

    M (n, nv, nv) and Jc (n, nf, nv) are each node's inertia and constraint
    Jacobian; dr1_dq (n, nv, ndq) and dr2_dq (n, nf, ndq) are the
    configuration partials of the residual rows at the solution, holding
    (v_plus, impulse) fixed:

        r1 = M(q) (v_plus - v_minus) - Jc(q)^T impulse
        r2 = Jc(q) (v_plus + e v_minus)
    """
    ndq = dr1_dq.shape[-1]
    # v_minus block: r1 gives -M, r2 gives e*Jc.
    y = _kkt_solve_stacked(
        M, Jc, np.concatenate([-dr1_dq, M], -1), np.concatenate([-dr2_dq, -e * Jc], -1)
    )
    return y[..., :ndq], y[..., ndq:]
