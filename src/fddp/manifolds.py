"""Differential-geometry primitives for state spaces.

Points live in coordinate arrays of size ``nx``; perturbations live in tangent
arrays of size ``ndx``. Every manifold implements the two operators

    integrate(x, dx)      retract a tangent step onto the manifold
    difference(x0, x1)    tangent vector at x0 pointing to x1

with the right-handed convention: on a rotation group,
integrate(x, dx) = x * exp(dx) and difference(x0, x1) = log(x0^-1 * x1).
Both take a leading node axis: points and tangents of shape (..., nx)
broadcast against each other, so one call serves a whole stack of nodes.

The manifolds are flat vector spaces, planar rotations and composites of
them. A planar rotation is stored as one angle wrapped into (-pi, pi], and
its tangent as the angle increment, so every manifold here has nx == ndx and
is flat coordinates plus the index array `angles` of the coordinates that are
wrapped angles. A `CompositeManifold` collects the angles of its parts,
nested composites included; integrate and difference are one add or subtract
followed by one wrap of those coordinates, whatever the nesting: on a stack
of points one vectorized wrap, and on one point (every node of a sweep) the
few angles taken out as floats and wrapped one by one, at a tenth of the cost
of numpy on a gathered view. Both run the one expression of `_wrap_angle`,
whose float `%` and `np.remainder` follow the same rule, so they agree to the
bit.
The wrap is locally the identity, so the Jacobians of integrate are (I, I)
and those of difference (-I, I); callers use them in closed form and no
operator returns them.

Inputs are checked once, where they enter the library: the scenario loader,
the model and problem constructors and `ShootingProblem.check_trajectories`
call `check_point`. Below those entry points every point and tangent is a
float ndarray of the right shape, and the operators do not check it again.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

_PI = np.pi
_TWO_PI = 2.0 * _PI


def _wrap_angle(theta):
    # Normal form (-pi, pi]; theta = -pi maps to +pi. On a float or,
    # elementwise, on an array.
    return _PI - (_PI - theta) % _TWO_PI


class Manifold:
    """Flat coordinates of size nx == ndx; the `angles` coordinates wrap."""

    def __init__(self, dim: int, angles):
        self.nx = self.ndx = int(dim)
        self.angles = np.asarray(angles, dtype=np.intp)
        self._angle_list = tuple(self.angles.tolist())

    # -- validation -------------------------------------------------------

    def check_point(self, x) -> np.ndarray:
        """x as a float array of shape (nx,); the entry points call this."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.nx,):
            raise DimensionMismatch(f"point must have shape ({self.nx},), got {arr.shape}")
        return arr

    # -- operators --------------------------------------------------------

    def _wrapped(self, y: np.ndarray) -> np.ndarray:
        """y with its angle coordinates wrapped in place, over any leading axes."""
        if y.ndim == 1:
            for i in self._angle_list:
                y[i] = _wrap_angle(y.item(i))
        elif self._angle_list:
            # y.T[angles] is y[..., angles] at any rank.
            y.T[self.angles] = _wrap_angle(y.T[self.angles])
        return y

    def neutral(self) -> np.ndarray:
        """Canonical origin point."""
        return np.zeros(self.nx)

    def integrate(self, x, dx) -> np.ndarray:
        return self._wrapped(x + dx)

    def difference(self, x0, x1, out=None) -> np.ndarray:
        return self._wrapped(np.subtract(x1, x0, out=out))

    # -- sampling (deterministic given the rng state) ----------------------

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def random_tangent(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return scale * rng.standard_normal(self.ndx)


class VectorSpace(Manifold):
    """Flat R^n; integrate/difference are plain addition/subtraction."""

    def __init__(self, dim: int):
        if dim < 0:
            raise DimensionMismatch(f"vector space dimension must be >= 0, got {dim}")
        super().__init__(dim, ())

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.nx)

    def __eq__(self, other):
        return isinstance(other, VectorSpace) and other.nx == self.nx

    def __repr__(self):
        return f"VectorSpace({self.nx})"


class Rotation2D(Manifold):
    """Planar rotations stored as a single wrapped angle in (-pi, pi]."""

    def __init__(self):
        super().__init__(1, (0,))

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([rng.uniform(-np.pi, np.pi)])

    def __eq__(self, other):
        return isinstance(other, Rotation2D)

    def __repr__(self):
        return "Rotation2D()"


class CompositeManifold(Manifold):
    """Cartesian product of manifolds; coordinates and tangents concatenate."""

    def __init__(self, parts: list[Manifold]):
        if not parts:
            raise DimensionMismatch("composite manifold needs at least one part")
        self.parts = list(parts)
        offsets = np.cumsum([0] + [p.nx for p in self.parts])
        super().__init__(
            offsets[-1],
            np.concatenate([p.angles + off for p, off in zip(self.parts, offsets)]),
        )

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return np.concatenate([p.random_point(rng) for p in self.parts])

    def random_tangent(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return np.concatenate([p.random_tangent(rng, scale) for p in self.parts])

    def __eq__(self, other):
        return (
            isinstance(other, CompositeManifold)
            and len(other.parts) == len(self.parts)
            and all(a == b for a, b in zip(self.parts, other.parts))
        )

    def __repr__(self):
        inner = ", ".join(repr(p) for p in self.parts)
        return f"CompositeManifold([{inner}])"
