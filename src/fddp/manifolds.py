"""Differential-geometry primitives for state spaces.

Points live in coordinate arrays of size ``nx``; perturbations live in tangent
arrays of size ``ndx``. Every manifold implements the four operators

    integrate(x, dx)      retract a tangent step onto the manifold
    difference(x0, x1)    tangent vector at x0 pointing to x1
    jintegrate(x, dx)     Jacobians of integrate w.r.t. (x, dx)
    jdifference(x0, x1)   Jacobians of difference w.r.t. (x0, x1)

with the right-handed convention: on a rotation group,
integrate(x, dx) = x * exp(dx) and difference(x0, x1) = log(x0^-1 * x1).
Planar rotations are stored as one angle wrapped into (-pi, pi], and their
tangents as the angle increment.

Inputs are checked once, where they enter the library: the scenario loader,
the model and problem constructors and `ShootingProblem.check_trajectories`
call `check_point`. Below those entry points every point and tangent is a
float ndarray of the right shape, and the operators do not check it again.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import DimensionMismatch

_TWO_PI = 2.0 * np.pi


class Manifold(ABC):
    """Base class; concrete manifolds define nx, ndx and the four operators."""

    nx: int
    ndx: int

    # -- validation -------------------------------------------------------

    def check_point(self, x) -> np.ndarray:
        """x as a float array of shape (nx,); the entry points call this."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.nx,):
            raise DimensionMismatch(f"point must have shape ({self.nx},), got {arr.shape}")
        return arr

    # -- operators --------------------------------------------------------

    @abstractmethod
    def neutral(self) -> np.ndarray:
        """Canonical origin point."""

    @abstractmethod
    def integrate(self, x, dx) -> np.ndarray: ...

    @abstractmethod
    def difference(self, x0, x1) -> np.ndarray: ...

    @abstractmethod
    def jintegrate(self, x, dx) -> tuple[np.ndarray, np.ndarray]: ...

    @abstractmethod
    def jdifference(self, x0, x1) -> tuple[np.ndarray, np.ndarray]: ...

    def normalize(self, x) -> np.ndarray:
        """Map coordinates to their normal form (wrapped angles)."""
        return self.check_point(x)

    # -- sampling (deterministic given the rng state) ----------------------

    @abstractmethod
    def random_point(self, rng: np.random.Generator) -> np.ndarray: ...

    def random_tangent(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return scale * rng.standard_normal(self.ndx)

    def zero_tangent(self) -> np.ndarray:
        return np.zeros(self.ndx)


class VectorSpace(Manifold):
    """Flat R^n; integrate/difference are plain addition/subtraction."""

    def __init__(self, dim: int):
        if dim < 0:
            raise DimensionMismatch(f"vector space dimension must be >= 0, got {dim}")
        self.nx = int(dim)
        self.ndx = int(dim)

    def neutral(self) -> np.ndarray:
        return np.zeros(self.nx)

    def integrate(self, x, dx) -> np.ndarray:
        return x + dx

    def difference(self, x0, x1) -> np.ndarray:
        return x1 - x0

    def jintegrate(self, x, dx):
        return np.eye(self.ndx), np.eye(self.ndx)

    def jdifference(self, x0, x1):
        return -np.eye(self.ndx), np.eye(self.ndx)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.nx)

    def __eq__(self, other):
        return isinstance(other, VectorSpace) and other.nx == self.nx

    def __repr__(self):
        return f"VectorSpace({self.nx})"


def _wrap_angle(theta: float) -> float:
    # Normal form (-pi, pi]; theta = -pi maps to +pi.
    return np.pi - np.remainder(np.pi - theta, _TWO_PI)


class Rotation2D(Manifold):
    """Planar rotations stored as a single wrapped angle in (-pi, pi]."""

    nx = 1
    ndx = 1

    def neutral(self) -> np.ndarray:
        return np.zeros(1)

    def normalize(self, x) -> np.ndarray:
        x = self.check_point(x)
        return np.array([_wrap_angle(x[0])])

    def integrate(self, x, dx) -> np.ndarray:
        return np.array([_wrap_angle(x[0] + dx[0])])

    def difference(self, x0, x1) -> np.ndarray:
        return np.array([_wrap_angle(x1[0] - x0[0])])

    def jintegrate(self, x, dx):
        return np.eye(1), np.eye(1)

    def jdifference(self, x0, x1):
        return -np.eye(1), np.eye(1)

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
        self.nx = sum(p.nx for p in parts)
        self.ndx = sum(p.ndx for p in parts)
        self._x_slices: list[slice] = []
        self._dx_slices: list[slice] = []
        ix = idx = 0
        for p in parts:
            self._x_slices.append(slice(ix, ix + p.nx))
            self._dx_slices.append(slice(idx, idx + p.ndx))
            ix += p.nx
            idx += p.ndx

    def neutral(self) -> np.ndarray:
        return np.concatenate([p.neutral() for p in self.parts])

    def normalize(self, x) -> np.ndarray:
        x = self.check_point(x)
        return np.concatenate(
            [p.normalize(x[s]) for p, s in zip(self.parts, self._x_slices)]
        )

    def integrate(self, x, dx) -> np.ndarray:
        return np.concatenate(
            [
                p.integrate(x[sx], dx[sd])
                for p, sx, sd in zip(self.parts, self._x_slices, self._dx_slices)
            ]
        )

    def difference(self, x0, x1) -> np.ndarray:
        return np.concatenate(
            [p.difference(x0[s], x1[s]) for p, s in zip(self.parts, self._x_slices)]
        )

    def jintegrate(self, x, dx):
        jx = np.zeros((self.ndx, self.ndx))
        jd = np.zeros((self.ndx, self.ndx))
        for p, sx, sd in zip(self.parts, self._x_slices, self._dx_slices):
            a, b = p.jintegrate(x[sx], dx[sd])
            jx[sd, sd] = a
            jd[sd, sd] = b
        return jx, jd

    def jdifference(self, x0, x1):
        j0 = np.zeros((self.ndx, self.ndx))
        j1 = np.zeros((self.ndx, self.ndx))
        for p, sx, sd in zip(self.parts, self._x_slices, self._dx_slices):
            a, b = p.jdifference(x0[sx], x1[sx])
            j0[sd, sd] = a
            j1[sd, sd] = b
        return j0, j1

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
