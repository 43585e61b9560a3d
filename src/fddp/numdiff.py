"""Central finite differences, aware of manifold-valued inputs and outputs,
at one point or at a stack of points in as many calls of f."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .manifolds import Manifold

# The central-difference step, in tangent coordinates.
STEP = 1e-6


def jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    *,
    input_manifold: Manifold | None = None,
    output_manifold: Manifold | None = None,
) -> np.ndarray:
    """Tangent-space Jacobian of f at x by central differences.

    x is one point (nx,) or a stack (n, nx), which f maps to (m,) or (n, m)
    (one point's scalar counts as (1,)); the Jacobian is (m, ndx) or
    (n, m, ndx), ndx being the input manifold's, else x.shape[-1]. Each
    perturbation moves every point, and point i's Jacobian has the bits of
    its own when f treats the points apart.

    When `input_manifold` is given, perturbations are applied with integrate();
    when `output_manifold` is given, results are compared with difference()
    against the unperturbed value, so both sides stay second-order accurate.
    """
    x = np.asarray(x, dtype=float)
    n_in = input_manifold.ndx if input_manifold is not None else x.shape[-1]
    base = np.atleast_1d(np.asarray(f(x), dtype=float)) if output_manifold is not None else None

    def perturb(i: int, sign: float) -> np.ndarray:
        e = np.zeros(n_in)
        e[i] = sign * STEP
        if input_manifold is not None:
            return input_manifold.integrate(x, e)
        return x + e

    columns = []
    for i in range(n_in):
        fp = np.atleast_1d(np.asarray(f(perturb(i, +1.0)), dtype=float))
        fm = np.atleast_1d(np.asarray(f(perturb(i, -1.0)), dtype=float))
        if output_manifold is not None:
            dp = output_manifold.difference(base, fp)
            dm = output_manifold.difference(base, fm)
            columns.append((dp - dm) / (2.0 * STEP))
        else:
            columns.append((fp - fm) / (2.0 * STEP))
    return np.stack(columns, axis=-1)
