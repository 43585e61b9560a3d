"""Differential-geometry primitives for state spaces.

Points live in coordinate arrays of size ``nx``; perturbations live in tangent
arrays of size ``ndx``. Every manifold implements the two operators

    integrate(x, dx)      retract a tangent step onto the manifold
    difference(x0, x1)    tangent vector at x0 pointing to x1

with the right-handed convention: on a rotation group,
integrate(x, dx) = x * exp(dx) and difference(x0, x1) = log(x0^-1 * x1).
Both take a leading node axis: points and tangents of shape (..., nx)
broadcast against each other, so one call serves a whole stack of nodes.

One class, `Manifold`, holds every behaviour: a state space is its size
nx == ndx and the index array `angles` of its coordinates that are planar
rotations, each one angle wrapped into (-pi, pi] whose tangent is the angle
increment. Two manifolds are equal when size and angles agree, since that
is all the operators read. `VectorSpace` (flat R^n), `Rotation2D` (one
angle) and `CompositeManifold` (the concatenated parts, nested or not) are
only its constructors. Integrate and difference are one add or subtract and
one wrap of the angles: vectorized on a stack of points, and on one point
(every node of a sweep) angle by angle as floats, at a tenth of the cost of
numpy on a gathered view. Both run `_wrap_angle`, whose float `%` and
`np.remainder` follow the same rule, so they agree to the bit.
The wrap is locally the identity, so the Jacobians of integrate are (I, I)
and those of difference (-I, I); callers use them in closed form and no
operator returns them.

Inputs are checked once, where they enter the library: the scenario loader
and the model and problem constructors call `check_point`, and
`ShootingProblem.check_trajectories` checks a guess's states with one shape
test of their stack. Below those entry points every point and tangent is a
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

    def __eq__(self, other):
        same_size = isinstance(other, Manifold) and other.nx == self.nx
        return same_size and other._angle_list == self._angle_list

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

    def integrate(self, x, dx, out=None) -> np.ndarray:
        return self._wrapped(np.add(x, dx, out=out))

    def difference(self, x0, x1, out=None) -> np.ndarray:
        return self._wrapped(np.subtract(x1, x0, out=out))

    # -- sampling (deterministic given the rng state) ----------------------

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """One draw per coordinate, in order: uniform on [-pi, pi) at an
        angle, N(0, 1) elsewhere."""
        angles, draw = self._angle_list, rng.standard_normal
        return np.array([rng.uniform(-_PI, _PI) if i in angles else draw() for i in range(self.nx)])

    def random_tangent(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return scale * rng.standard_normal(self.ndx)


class VectorSpace(Manifold):
    """Flat R^n; integrate/difference are plain addition/subtraction."""

    def __init__(self, dim: int):
        if dim < 0:
            raise DimensionMismatch(f"vector space dimension must be >= 0, got {dim}")
        super().__init__(dim, ())


class Rotation2D(Manifold):
    """Planar rotations stored as a single wrapped angle in (-pi, pi]."""

    def __init__(self):
        super().__init__(1, (0,))


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
