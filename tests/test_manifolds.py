"""Unit tests for the manifold primitives.

Covers the four operators (integrate, difference, jintegrate, jdifference)
on vector spaces, planar rotations, and the composite product the planar
monoped's configuration lives on: fixed-point examples, roundtrip identities,
finite-difference checks of the operator Jacobians, and chain-rule
consistency, including steps that carry the heading across the +-pi wrap.
"""

import numpy as np
import pytest

from fddp import CompositeManifold, Rotation2D, VectorSpace
from fddp import numdiff
from fddp.errors import DimensionMismatch
from fddp.systems import PlanarMonoped

# Base translation, base heading, two leg joints: the planar monoped's
# configuration manifold. Its first two parts alone are the planar
# free-flyer, which ends on a rotation.
MONOPED_CONFIG = CompositeManifold([VectorSpace(2), Rotation2D(), VectorSpace(2)])
ALL_MANIFOLDS = [
    VectorSpace(3),
    Rotation2D(),
    CompositeManifold([VectorSpace(2), Rotation2D()]),
    MONOPED_CONFIG,
]
MANIFOLD_IDS = ["vector3", "rotation2d", "free_flyer", "composite"]

# A monoped configuration whose heading lies 5e-4 short of +pi, and a step
# that turns it 2e-3 further, so integrate wraps the heading to near -pi.
NEAR_WRAP_POINT = np.array([0.3, -0.2, np.pi - 5e-4, 0.4, -0.7])
NEAR_WRAP_STEP = np.array([0.05, 0.1, 2e-3, -0.03, 0.02])


def point_tangent_pairs(manifold, rng, count):
    """`count` random (point, tangent) pairs; on the monoped configuration
    one more pair whose step crosses the heading wrap."""
    pairs = [(manifold.random_point(rng), manifold.random_tangent(rng)) for _ in range(count)]
    if manifold is MONOPED_CONFIG:
        pairs.append((NEAR_WRAP_POINT, NEAR_WRAP_STEP))
    return pairs


# ---------------------------------------------------------------------------
# integrate / difference, fixed examples
# ---------------------------------------------------------------------------


def test_vector_integrate_is_elementwise_addition():
    m = VectorSpace(2)
    x, dx = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    np.testing.assert_array_equal(m.integrate(x, dx), [1.5, 1.0])


def test_vector_difference_is_subtraction():
    m = VectorSpace(2)
    x0, x1 = np.array([1.0, 2.0]), np.array([1.5, 1.0])
    np.testing.assert_array_equal(m.difference(x0, x1), [0.5, -1.0])


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_integrate_zero_tangent_is_identity(manifold):
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = manifold.random_point(rng)
        np.testing.assert_allclose(
            manifold.integrate(x, manifold.zero_tangent()), x, atol=1e-14
        )


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_difference_of_identical_points_is_zero(manifold):
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = manifold.random_point(rng)
        np.testing.assert_allclose(
            manifold.difference(x, x), np.zeros(manifold.ndx), atol=1e-14
        )


def test_rotation2d_wraps_into_principal_interval():
    m = Rotation2D()
    np.testing.assert_allclose(m.integrate(np.array([3.0]), np.array([0.5])), [3.5 - 2.0 * np.pi])
    # difference takes the short way around the circle
    np.testing.assert_allclose(
        m.difference(np.array([3.0]), np.array([-3.0])), [2.0 * np.pi - 6.0]
    )


# ---------------------------------------------------------------------------
# roundtrip identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_roundtrip_recovers_tangent(manifold):
    # difference(x, integrate(x, dx)) == dx while dx stays inside the
    # injectivity radius (rotation blocks shorter than a half turn).
    rng = np.random.default_rng(21)
    for x, dx in point_tangent_pairs(manifold, rng, 50):
        back = manifold.difference(x, manifold.integrate(x, dx))
        np.testing.assert_allclose(back, dx, atol=1e-10)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_inverse_roundtrip_reproduces_point(manifold):
    # integrate(x0, difference(x0, x1)) lands back on x1. Coordinates are
    # compared where x1 is reachable inside the injectivity radius; for
    # arbitrary pairs the manifold difference of the roundtrip must vanish.
    rng = np.random.default_rng(22)
    for x0, dx in point_tangent_pairs(manifold, rng, 25):
        x1 = manifold.integrate(x0, dx)
        again = manifold.integrate(x0, manifold.difference(x0, x1))
        np.testing.assert_allclose(again, x1, atol=1e-10)
    for _ in range(25):
        x0 = manifold.random_point(rng)
        x1 = manifold.random_point(rng)
        again = manifold.integrate(x0, manifold.difference(x0, x1))
        np.testing.assert_allclose(
            manifold.difference(again, x1), np.zeros(manifold.ndx), atol=1e-10
        )


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------


def test_jintegrate_vector_space_returns_identities():
    m = VectorSpace(3)
    jx, jdx = m.jintegrate(np.ones(3), np.ones(3))
    np.testing.assert_array_equal(jx, np.eye(3))
    np.testing.assert_array_equal(jdx, np.eye(3))


def test_jdifference_vector_space_returns_signed_identities():
    m = VectorSpace(3)
    j0, j1 = m.jdifference(np.ones(3), np.zeros(3))
    np.testing.assert_array_equal(j0, -np.eye(3))
    np.testing.assert_array_equal(j1, np.eye(3))


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_jintegrate_zero_tangent_gives_identity_in_x(manifold):
    rng = np.random.default_rng(31)
    x = manifold.random_point(rng)
    jx, _ = manifold.jintegrate(x, manifold.zero_tangent())
    np.testing.assert_allclose(jx, np.eye(manifold.ndx), atol=1e-14)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_jdifference_at_equal_points_gives_identity_j1(manifold):
    rng = np.random.default_rng(32)
    x = manifold.random_point(rng)
    _, j1 = manifold.jdifference(x, x)
    np.testing.assert_allclose(j1, np.eye(manifold.ndx), atol=1e-14)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_jintegrate_matches_finite_differences(manifold):
    rng = np.random.default_rng(33)
    for x, dx in point_tangent_pairs(manifold, rng, 10):
        jx, jdx = manifold.jintegrate(x, dx)
        fd_jx = numdiff.jacobian(
            lambda xv: manifold.integrate(xv, dx),
            x,
            input_manifold=manifold,
            output_manifold=manifold,
        )
        fd_jdx = numdiff.jacobian(
            lambda d: manifold.integrate(x, d), dx, output_manifold=manifold
        )
        np.testing.assert_allclose(jx, fd_jx, atol=1e-5)
        np.testing.assert_allclose(jdx, fd_jdx, atol=1e-5)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_jdifference_matches_finite_differences(manifold):
    rng = np.random.default_rng(34)
    for x0, dx in point_tangent_pairs(manifold, rng, 10):
        x1 = manifold.integrate(x0, dx)
        j0, j1 = manifold.jdifference(x0, x1)
        fd_j0 = numdiff.jacobian(
            lambda xv: manifold.difference(xv, x1), x0, input_manifold=manifold
        )
        fd_j1 = numdiff.jacobian(
            lambda xv: manifold.difference(x0, xv), x1, input_manifold=manifold
        )
        np.testing.assert_allclose(j0, fd_j0, atol=1e-5)
        np.testing.assert_allclose(j1, fd_j1, atol=1e-5)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_chain_rule_of_difference_after_integrate_is_identity(manifold):
    # d/d(dx) difference(x0, integrate(x0, dx)) must be the identity, which
    # ties jdifference and jintegrate together.
    rng = np.random.default_rng(35)
    for x0, dx in point_tangent_pairs(manifold, rng, 10):
        _, j_dx = manifold.jintegrate(x0, dx)
        _, j_1 = manifold.jdifference(x0, manifold.integrate(x0, dx))
        np.testing.assert_allclose(j_1 @ j_dx, np.eye(manifold.ndx), atol=1e-8)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_composite_jacobians_are_block_diagonal():
    m = CompositeManifold([VectorSpace(2), Rotation2D()])
    rng = np.random.default_rng(42)
    x = m.random_point(rng)
    dx = m.random_tangent(rng)
    jx, jdx = m.jintegrate(x, dx)
    np.testing.assert_array_equal(jx[:2, 2:], np.zeros((2, 1)))
    np.testing.assert_array_equal(jx[2:, :2], np.zeros((1, 2)))
    np.testing.assert_array_equal(jx[:2, :2], np.eye(2))
    np.testing.assert_array_equal(jdx[:2, :2], np.eye(2))


def per_part(manifold, op, a, b):
    """integrate (op="+") or difference (op="-") part by part, from each
    part's definition: vector spaces add or subtract, planar rotations wrap
    the sum or difference into (-pi, pi]."""
    if isinstance(manifold, CompositeManifold):
        out, i = [], 0
        for part in manifold.parts:
            out.append(per_part(part, op, a[i : i + part.nx], b[i : i + part.nx]))
            i += part.nx
        return np.concatenate(out)
    y = a + b if op == "+" else b - a
    if isinstance(manifold, Rotation2D):
        y = np.pi - np.remainder(np.pi - y, 2.0 * np.pi)
    return y


def test_composite_operators_equal_the_per_part_definitions():
    # The monoped state nests its configuration composite (translation,
    # heading, joints) inside the (q, v) composite; its one angle sits at
    # coordinate 2.
    state = PlanarMonoped().state
    np.testing.assert_array_equal(state.angles, [2])
    rng = np.random.default_rng(36)
    pairs = [(state.random_point(rng), state.random_tangent(rng)) for _ in range(10)]
    velocity = rng.standard_normal(5)
    pairs.append(
        (np.concatenate([NEAR_WRAP_POINT, velocity]), np.concatenate([NEAR_WRAP_STEP, velocity]))
    )
    for x, dx in pairs:
        x1 = state.integrate(x, dx)
        np.testing.assert_array_equal(x1, per_part(state, "+", x, dx))
        np.testing.assert_array_equal(state.difference(x, x1), per_part(state, "-", x, x1))
    # The last pair crossed the wrap: the heading came out near -pi.
    assert x1[2] < -np.pi + 2e-3
    np.testing.assert_allclose(state.difference(x, x1), dx, atol=1e-12)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_operator_jacobians_reject_writes(manifold):
    rng = np.random.default_rng(37)
    x, dx = manifold.random_point(rng), manifold.random_tangent(rng)
    for jacobian in (*manifold.jintegrate(x, dx), *manifold.jdifference(x, x)):
        with pytest.raises(ValueError):
            jacobian[0, 0] = 2.0
    assert manifold.jintegrate(x, dx)[0] is manifold.jintegrate(x, -dx)[0]


def test_dimension_mismatches_are_rejected():
    # Points are checked where they enter (check_point); the operators
    # themselves trust their arguments.
    with pytest.raises(DimensionMismatch):
        VectorSpace(3).check_point([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        Rotation2D().check_point([1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        CompositeManifold([])
