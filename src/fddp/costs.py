"""Weighted least-squares cost terms with Gauss-Newton derivatives.

Every term evaluates 0.5 * weight * ||r||^2 for some residual r and returns
Gauss-Newton blocks (residual-curvature terms dropped), so values are always
nonnegative and l_xx / l_uu are symmetric positive semidefinite. Each residual
depends on x alone or on u alone: a term returns only that argument's blocks.

`residual` and `derivatives` take stacked x (..., nx) and u (..., nu) and
give residuals and blocks with the same leading axes: an action model's
`cost` sums the terms' 0.5 * weight * ||r||^2 over a stack of nodes, and
its `calc_diff` their blocks. The regularizers' residual Jacobians are
constant (the manifold difference's is the identity), so their blocks are
in closed form and their Hessians are one unstacked matrix, which
broadcasts.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, finite
from .manifolds import Manifold

class CostTerm:
    """Base: subclasses fill residual(x, u) and, unless they override
    `derivatives` (as a residual in u must), its Jacobian in x. The term's
    value is 0.5 * weight * ||residual||^2."""

    def __init__(self, weight: float, ndx: int, nu: int):
        self.weight = finite("cost weight", float(weight), DimensionMismatch)
        if self.weight < 0.0:
            raise DimensionMismatch(f"cost weight must be >= 0, got {weight}")
        self.ndx = ndx
        self.nu = nu

    def derivatives(self, x, u) -> dict[str, np.ndarray]:
        """The Gauss-Newton gradient and Hessian of a residual in x."""
        r = self.residual(x, u)
        j = self._residual_jacobian(x, u)
        wjt = self.weight * np.swapaxes(j, -1, -2)
        return {"l_x": (wjt @ r[..., None])[..., 0], "l_xx": wjt @ j}

    def residual(self, x, u) -> np.ndarray:
        raise NotImplementedError

    def _residual_jacobian(self, x, u) -> np.ndarray:
        raise NotImplementedError


class StateRegularization(CostTerm):
    """Penalizes the manifold difference from a reference state.

    Optional per-coordinate scales stretch the residual (diagonal weighting).
    """

    def __init__(self, manifold: Manifold, reference, weight: float, nu: int, scales=None):
        super().__init__(weight, manifold.ndx, nu)
        self.manifold = manifold
        reference = finite("state reference", reference, DimensionMismatch)
        self.reference = manifold.check_point(reference)
        if scales is None:
            self.scales = None
        else:
            self.scales = finite("state cost scales", scales, DimensionMismatch)
            if self.scales.shape != (manifold.ndx,):
                raise DimensionMismatch(
                    f"state cost scales must have shape ({manifold.ndx},)"
                )
            if (self.scales < 0.0).any():
                raise DimensionMismatch("state cost scales must be >= 0")
        # The residual's Jacobian is diag(scales) (the identity without them),
        # so l_x = (w s) * r and l_xx = diag((w s) * s), shared by every node.
        scales = np.ones(manifold.ndx) if self.scales is None else self.scales
        self._w_scales = self.weight * scales
        self._hessian = np.diag(self._w_scales * scales)
        self._hessian.flags.writeable = False

    def residual(self, x, u):
        r = self.manifold.difference(self.reference, x)
        return r if self.scales is None else self.scales * r

    def derivatives(self, x, u):
        return {"l_x": self._w_scales * self.residual(x, u), "l_xx": self._hessian}


class ControlRegularization(CostTerm):
    def __init__(self, nu: int, weight: float, ndx: int, reference=None):
        super().__init__(weight, ndx, nu)
        if reference is not None:
            reference = finite("control reference", reference, DimensionMismatch)
        self.reference = reference
        if self.reference is not None and self.reference.shape != (nu,):
            raise DimensionMismatch(f"control reference must have shape ({nu},)")
        # The residual's Jacobian is the identity: l_u = w r, l_uu = w I.
        self._hessian = self.weight * np.eye(nu)
        self._hessian.flags.writeable = False

    def residual(self, x, u):
        return u if self.reference is None else u - self.reference

    def derivatives(self, x, u):
        return {"l_u": self.weight * self.residual(x, u), "l_uu": self._hessian}


class FrameTranslationTracking(CostTerm):
    """Tracks a body-frame point position (planar translation target)."""

    def __init__(self, system, frame: str, target, weight: float, ndx: int, nu: int):
        super().__init__(weight, ndx, nu)
        self.system = system
        self.frame = frame
        self.target = np.atleast_1d(finite("target", target, DimensionMismatch))
        probe = system.frame_placement(system.nominal_state()[: system.nq], frame)
        if probe.shape != self.target.shape:
            raise DimensionMismatch(
                f"frame {frame!r} placement has shape {probe.shape}, target {self.target.shape}"
            )

    def residual(self, x, u):
        q = x[..., : self.system.nq]
        return self.system.frame_placement(q, self.frame) - self.target

    def _residual_jacobian(self, x, u):
        q = x[..., : self.system.nq]
        return _state_jacobian(self.system.frame_jacobian(q, self.frame), x, self.ndx)


class ComTracking(CostTerm):
    def __init__(self, system, target, weight: float, ndx: int, nu: int):
        super().__init__(weight, ndx, nu)
        self.system = system
        self.target = np.atleast_1d(finite("target", target, DimensionMismatch))
        probe = system.com(system.nominal_state()[: system.nq])
        if probe.shape != self.target.shape:
            raise DimensionMismatch(
                f"center of mass has shape {probe.shape}, target {self.target.shape}"
            )

    def residual(self, x, u):
        return self.system.com(x[..., : self.system.nq]) - self.target

    def _residual_jacobian(self, x, u):
        return _state_jacobian(self.system.com_jacobian(x[..., : self.system.nq]), x, self.ndx)


def _state_jacobian(jq, x, ndx: int) -> np.ndarray:
    """A configuration Jacobian (..., r, nv) padded with zero velocity columns
    to (..., r, ndx), with the leading axes of x; jq may be unstacked."""
    rx = np.zeros(x.shape[:-1] + (jq.shape[-2], ndx))
    rx[..., : jq.shape[-1]] = jq
    return rx

