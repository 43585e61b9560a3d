"""Seeded random points and tangents of a manifold, for the tests' inputs.

Each draw is deterministic given the generator's state, one coordinate at a
time, so a seed fixes the inputs of every test that samples.
"""

import numpy as np


def random_point(manifold, rng: np.random.Generator) -> np.ndarray:
    """One draw per coordinate, in order: uniform on [-pi, pi) at an angle,
    N(0, 1) elsewhere."""
    angles = set(manifold.angles.tolist())
    point = np.empty(manifold.nx)
    for i in range(manifold.nx):
        point[i] = rng.uniform(-np.pi, np.pi) if i in angles else rng.standard_normal()
    return point


def random_tangent(manifold, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal(manifold.ndx)


def node_data(model):
    """A lone node's container for `calc`: the row of a stack of one."""
    return model.create_stack(1).nodes[0]
