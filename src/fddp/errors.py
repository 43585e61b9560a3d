"""Exception types shared across the library, and the finiteness check
that raises them where a number enters it."""

from __future__ import annotations

from math import isfinite

import numpy as np


class FddpError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(FddpError, ValueError):
    """An input array has the wrong shape for the operation."""


class ParameterError(FddpError, ValueError):
    """A system parameter lies outside its physical range; `name` names it."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name} {message}")
        self.name = name


class NumericalFailure(FddpError, RuntimeError):
    """A computation produced non-finite values.

    Carries the node index when raised from a per-node evaluation.
    """

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message if node is None else f"{message} (node {node})")
        self.node = node


class FactorizationError(NumericalFailure):
    """A matrix required to be positive definite failed its Cholesky: a node
    failure like any other, which the scenario loader's rank test tells apart."""


class RankDeficientConstraint(FactorizationError):
    """The constraint block lost row rank (singular operational-space inertia)."""


class NotPositiveDefinite(FddpError, RuntimeError):
    """Regularized control Hessian not positive definite at some node."""

    def __init__(self, node: int):
        super().__init__(f"control Hessian not positive definite at node {node}")
        self.node = node


class ScenarioError(FddpError, ValueError):
    """A scenario file failed parsing or validation.

    The message names the offending field or invariant; `location` optionally
    carries a 'line N' or dotted field path for CLI reporting.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location


def finite(name: str, value, error=None):
    """value as a float, or a float array, whose every entry must be finite;
    otherwise raises "<name> must be finite, got <value>" as `error`, or as a
    ParameterError naming `name` by default."""
    array = np.asarray(value, dtype=float)
    if not all(map(isfinite, array.ravel().tolist())):
        text = f"must be finite, got {array.tolist()}"
        raise error(f"{name} {text}") if error else ParameterError(name, text)
    return array.item() if array.ndim == 0 else array
