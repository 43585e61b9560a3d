"""Rigid-contact forward dynamics, impulse dynamics, and their derivatives.

Both problems share one saddle-point structure,

    [ M   Jc^T ] [  w ]   [ b1 ]
    [ Jc   0   ] [ -z ] = [ b2 ],

solved by block elimination through the operational-space inertia
Mhat = Jc M^-1 Jc^T. The forward solve of one node makes one finite test over
all its inputs, two Cholesky factorizations (M and Mhat), one solve with M's
factor against [Jc^T | b1] and one product of Jc with its result, which
gives [Mhat | Jc M^-1 b1] for the elimination; the factorizations and the
pivots on the diagonal of Mhat's factor reject a dependent constraint set.
No factor outlives its solve: a node keeps only its solution.
Every Cholesky factorization of the library goes through `_cholesky` and
`_cholesky_solve` here, which call LAPACK's dpotrf and dpotrs from scipy's
compiled extension `_flapack`. It is loaded straight from scipy/linalg/:
importing it through `scipy.linalg` would run that whole package, which
costs more memory and import time than a solve needs. The derivatives
take a stack of n nodes that the forward solves have already checked, and
eliminate all of them at once (`_kkt_solve_stacked`): two batched LU solves,
one with M and one with Mhat (none for free nodes, which have no constraint
rows), for all right-hand-side columns of all nodes.

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

import os
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from math import isfinite

import numpy as np
import scipy

from .errors import (
    DimensionMismatch,
    FactorizationError,
    NumericalFailure,
    RankDeficientConstraint,
    finite,
)

# Cholesky pivots of Mhat below this flag a redundant constraint set.
RANK_PIVOT_TOL = 1e-10

DEFAULT_ALPHA = 100.0
DEFAULT_BETA = 20.0


def _load_flapack():
    """scipy's compiled LAPACK extension, loaded from scipy/linalg/ without
    running that package's __init__. scipy's own sys.modules entries are
    left alone, so scipy.linalg still loads its copy, in either order."""
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = PathFinder.find_spec("_flapack", [where])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no LAPACK extension _flapack in {where}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


@dataclass(frozen=True, eq=False)
class Contact:
    """One point contact: frame name, reference placement, Baumgarte gains.

    Placements of the planar toy systems are plain translation vectors, so the
    reference mismatch term is vector subtraction (no rotational placement part).
    The reference is a read-only copy. Contacts compare by identity: the
    generated value equality would compare the reference array, which
    numpy does not reduce to one truth value.
    """

    frame: str
    reference: np.ndarray
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        reference = finite("contact reference", self.reference, DimensionMismatch)
        object.__setattr__(self, "reference", _read_only(np.array(reference, ndmin=1)))
        finite("Baumgarte gains", (self.alpha, self.beta), DimensionMismatch)
        if self.alpha < 0.0 or self.beta < 0.0:
            raise DimensionMismatch("Baumgarte gains must be >= 0")
        if self.nf < 1:
            raise DimensionMismatch("contact constraint dimension must be >= 1")

    @property
    def nf(self) -> int:
        return self.reference.size


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ContactSet:
    """Contacts imposed together, their rows stacked once in contact order:
    the frame of each contact, and for each constraint row its Baumgarte
    gains and reference (read-only)."""

    contacts: tuple[Contact, ...]
    frames: tuple[str, ...] = field(init=False, compare=False)
    alpha: np.ndarray = field(init=False, repr=False, compare=False)
    beta: np.ndarray = field(init=False, repr=False, compare=False)
    reference: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        contacts = tuple(self.contacts)
        rows = [c.nf for c in contacts]
        if sum(rows) < 1:
            raise DimensionMismatch("a contact set needs nf >= 1")
        for name, value in (
            ("contacts", contacts),
            ("frames", tuple(c.frame for c in contacts)),
            ("alpha", _read_only(np.repeat([c.alpha for c in contacts], rows))),
            ("beta", _read_only(np.repeat([c.beta for c in contacts], rows))),
            ("reference", _read_only(np.concatenate([c.reference for c in contacts]))),
        ):
            object.__setattr__(self, name, value)

    @property
    def nf(self) -> int:
        return self.reference.size


def baumgarte_a0(contacts, placement_current, velocity_current, drift_acceleration):
    """Desired constraint-space acceleration with placement/velocity correction,
    for one `Contact` or, row by row, a whole `ContactSet`:

    a0 = a_drift - alpha * (reference - current) - beta * v_frame
    """
    return (
        drift_acceleration
        - contacts.alpha * (contacts.reference - placement_current)
        - contacts.beta * velocity_current
    )


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Calls LAPACK's dpotrf directly, from the extension module that
    scipy.linalg.lapack re-exports (loaded here without scipy.linalg), so
    the factor is the one scipy's Cholesky wrapper gives, to the bit. Only
    the lower triangle of a is read, and the strict upper triangle of the
    result is left over from a. Nothing is checked for finiteness: a NaN
    can pass through unflagged, so callers check where a non-finite value
    can first appear. Raises `np.linalg.LinAlgError` when a leading minor
    is not positive definite.
    """
    # lower=1, clean=0: positional, which the f2py wrapper parses faster.
    c, info = dpotrf(a, 1, 0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    return c


def _cholesky_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b, for L = _cholesky(a) and a vector or matrix b."""
    return dpotrs(c, b, 1)[0]  # lower=1


def _all_finite(*arrays: np.ndarray) -> bool:
    """Whether every entry of the arrays is finite, in one test of their
    entries gathered as floats. Each entry is tested, not a sum or product
    of them, so large finite entries cannot overflow the test; on the few
    entries of one node, math.isfinite over them costs a fraction of a numpy
    reduction."""
    values = []
    for array in arrays:
        values += array.ravel().tolist()
    return all(map(isfinite, values))


def _require_finite(what: str, *arrays) -> None:
    """One finite test of every entry of the arrays."""
    if not _all_finite(*arrays):
        raise NumericalFailure(f"non-finite entries in {what} inputs")


def _factorize(M: np.ndarray, Jc: np.ndarray, rows=None):
    """Rank-tested Cholesky factors of M and Mhat = Jc M^-1 Jc^T.

    One solve with M's factor takes rows^T = [Jc^T | b1], or Jc^T alone
    without rows, and Jc times its result is [Mhat | Jc M^-1 b1]. Only the
    lower triangles of M and Mhat are read. The pivots of Mhat are the
    squares of its factor's diagonal. Returns (mhat_factor, M^-1 [Jc^T | b1],
    [Mhat | Jc M^-1 b1]).
    """
    try:
        m_factor = _cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("joint-space inertia is not positive definite") from exc
    # [Jc; b1^T] transposed: the columns in the Fortran order LAPACK takes.
    solved = _cholesky_solve(m_factor, (Jc if rows is None else rows).T)
    products = Jc @ solved
    try:
        mhat_factor = _cholesky(products[:, : len(Jc)])
    except np.linalg.LinAlgError as exc:
        raise RankDeficientConstraint(
            "operational-space inertia is not positive definite (constraint rows dependent?)"
        ) from exc
    pivot = min(mhat_factor.diagonal().tolist(), default=np.inf) ** 2
    if pivot < RANK_PIVOT_TOL:
        raise RankDeficientConstraint(
            f"operational-space inertia pivot {pivot:.3e} below {RANK_PIVOT_TOL:.0e}"
        )
    return mhat_factor, solved, products


def contact_forward_dynamics(M, Jc, tau_b, a0):
    """Constrained accelerations and contact forces for one rigid-contact node:
    (vdot, force) with M vdot - Jc^T force = tau_b and Jc vdot = -a0.
    """
    rows = np.concatenate((Jc, tau_b[None]))
    _require_finite("contact dynamics", M, rows, a0)
    mhat_factor, solved, products = _factorize(M, Jc, rows)
    # Right-hand side [tau_b; -a0]; the eliminated multiplier z is -force.
    # Ill-conditioned but factorizable systems can overflow to inf during the
    # triangular solves, and the force feeds vdot, so checking vdot covers both.
    z = _cholesky_solve(mhat_factor, products[:, -1] + a0)
    vdot = solved[:, -1] - solved[:, :-1] @ z
    if not _all_finite(vdot):
        raise NumericalFailure("non-finite contact accelerations")
    return vdot, -z


def _kkt_solve_stacked(M, Jc, b1, b2):
    """(w, z, Mhat) with M w + Jc^T z = b1, Jc w = b2 for a stack of n saddle
    points.

    M (n, nv, nv), Jc (n, nf, nv), b1 (n, nv, k), b2 (n, nf, k). One batched
    solve with M gives M^-1 [Jc^T | b1], one with Mhat = Jc M^-1 Jc^T gives
    the multipliers z = Mhat^-1 (Jc M^-1 b1 - b2), and w = M^-1 b1 -
    M^-1 Jc^T z. Nothing is checked: the derivatives take stacks whose
    forward solves have passed, and `_kkt_solve_checked` tests the others.
    With nf = 0 rows (free dynamics) it returns after the solve with M,
    w = np.linalg.solve(M, b1), with z and Mhat empty.
    """
    nf = Jc.shape[-2]
    solved = np.linalg.solve(M, np.concatenate([np.swapaxes(Jc, -1, -2), b1], axis=-1))
    minv_jt, minv_b1 = solved[..., :nf], solved[..., nf:]
    mhat = Jc @ minv_jt
    if nf == 0:
        return minv_b1, b2, mhat
    z = np.linalg.solve(mhat, Jc @ minv_b1 - b2)
    return minv_b1 - minv_jt @ z, z, mhat


def _kkt_solve_checked(M, Jc, b1, b2):
    """(w, z) of `_kkt_solve_stacked` for the quasi-static warm start's
    solve at rest, with the node solve's tests made on all nodes at once:
    None when any node would fail one (a non-finite input or solution, an M
    or Mhat that is not positive definite, a pivot of Mhat below
    RANK_PIVOT_TOL). A batched solve does not say which node failed, so the
    warm start then steps its nodes one by one, which raises for the first
    failing one.
    """
    with np.errstate(all="ignore"):
        if not _stack_finite(M, Jc, b1, b2):
            return None
        try:
            np.linalg.cholesky(M)
            w, z, mhat = _kkt_solve_stacked(M, Jc, b1, b2)
            pivots = np.linalg.cholesky(mhat).diagonal(0, -2, -1)
        except np.linalg.LinAlgError:
            return None
        if pivots.min(initial=np.inf) ** 2 < RANK_PIVOT_TOL or not _stack_finite(w, z):
            return None
    return w, z


def _stack_finite(*arrays) -> bool:
    """Whether every entry of the stacked arrays is finite."""
    return all(np.isfinite(array).all() for array in arrays)


def contact_dynamics_derivatives(M, Jc, dtau_dx, dtau_du, da0_dx, da0_du):
    """Jacobian blocks (y_x, y_u) of vdot for a stack of n contact nodes, or
    free ones (nf = 0).

    M (n, nv, nv), or one (nv, nv) for all nodes, and Jc (n, nf, nv) are
    each node's inertia and constraint Jacobian. The input partials, (n, nv, ·) and (n, nf, ·), are total
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
    )[0]
    return y[..., :nx], y[..., nx:]


def impulse_dynamics(M, Jc, v_minus, e: float):
    """Post-impact velocity and contact impulse (v_plus, impulse) for a
    contact-gain switch.

    Solves M v_plus - Jc^T impulse = M v_minus with Jc v_plus = -e Jc v_minus.
    e = 0 is a perfectly inelastic impact (contact-point velocity zeroed); the
    impulse action model checks that e lies in [0, 1].
    """
    _require_finite("impulse dynamics", M, Jc, v_minus)
    mhat_factor, minv_jt, _ = _factorize(M, Jc)
    # Right-hand side [M v_minus; -e Jc v_minus], whose M^-1 b1 is v_minus
    # itself: z = Mhat^-1 (1 + e) Jc v_minus is -impulse.
    z = _cholesky_solve(mhat_factor, (1.0 + e) * (Jc @ v_minus))
    v_plus = v_minus - minv_jt @ z
    if not _all_finite(v_plus):
        raise NumericalFailure("non-finite post-impact velocity")
    return v_plus, -z


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
    )[0]
    return y[..., :ndq], y[..., ndq:]
