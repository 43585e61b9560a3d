"""Unit tests for the manifold primitives.

Covers the two operators (integrate, difference) on vector spaces, planar
rotations, and the composite product the planar monoped's configuration
lives on: fixed-point examples, roundtrip identities, stacked evaluation
over a leading node axis, equality by size and angle coordinates, the
seeded draw order of the tests' sampling helper, and finite-difference
checks of the operator Jacobians, including steps that carry an angle
across the +-pi wrap. The library uses those Jacobians in closed form,
without computing them: jintegrate = (I, I) with respect to (x, dx) and
jdifference = (-I, I) with respect to (x0, x1); the tests below check these
identities.
"""

import numpy as np
import pytest

from fddp import CompositeManifold, Rotation2D, VectorSpace
from fddp import numdiff
from fddp.errors import DimensionMismatch
from fddp.manifolds import _wrap_angle
from fddp.systems import PlanarMonoped
from sampling import random_point, random_tangent

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
    pairs = [(random_point(manifold, rng), random_tangent(manifold, rng)) for _ in range(count)]
    if manifold is MONOPED_CONFIG:
        pairs.append((NEAR_WRAP_POINT, NEAR_WRAP_STEP))
    return pairs


def wrap_crossing_pairs(manifold, rng, count):
    """point_tangent_pairs plus, on a manifold with angles, a pair whose
    every angle starts 5e-4 short of +pi and turns 2e-3 further, and a pair
    whose every angle sits at +pi with a zero step, so that a central
    difference's two samples land on either side of the wrap."""
    pairs = point_tangent_pairs(manifold, rng, count)
    if manifold.angles.size:
        x, dx = random_point(manifold, rng), random_tangent(manifold, rng, scale=0.1)
        x[manifold.angles], dx[manifold.angles] = np.pi - 5e-4, 2e-3
        on_wrap = random_point(manifold, rng)
        on_wrap[manifold.angles] = np.pi
        pairs += [(x, dx), (on_wrap, np.zeros(manifold.ndx))]
    return pairs


def jacobians_of_integrate(manifold, x, dx):
    """Finite-difference Jacobians of integrate(x, dx) w.r.t. x and dx."""
    jx = numdiff.jacobian(
        lambda xv: manifold.integrate(xv, dx), x, input_manifold=manifold, output_manifold=manifold
    )
    jdx = numdiff.jacobian(lambda d: manifold.integrate(x, d), dx, output_manifold=manifold)
    return jx, jdx


def jacobians_of_difference(manifold, x0, x1):
    """Finite-difference Jacobians of difference(x0, x1) w.r.t. x0 and x1."""
    j0 = numdiff.jacobian(lambda xv: manifold.difference(xv, x1), x0, input_manifold=manifold)
    j1 = numdiff.jacobian(lambda xv: manifold.difference(x0, xv), x1, input_manifold=manifold)
    return j0, j1


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
        x = random_point(manifold, rng)
        np.testing.assert_allclose(
            manifold.integrate(x, np.zeros(manifold.ndx)), x, atol=1e-14
        )


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_difference_of_identical_points_is_zero(manifold):
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = random_point(manifold, rng)
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


# Angles the wrap must treat exactly: both ends of (-pi, pi], signed zeros,
# multiples of 2 pi, large magnitudes, and the non-finite values, which wrap
# to NaN.
WRAP_EDGE_ANGLES = [
    np.pi, -np.pi, 0.0, -0.0, 2.0 * np.pi, -2.0 * np.pi, 6.0 * np.pi, -4.0 * np.pi,
    1e6, -1e6, np.inf, -np.inf, np.nan,
]


def test_one_point_wrap_matches_the_array_wrap_to_the_bit():
    # One point wraps its angles as floats, a stack of points through numpy;
    # both give the elementwise array wrap bit for bit, for every manifold
    # whose angles sit at different offsets.
    rng = np.random.default_rng(44)
    angles = np.concatenate(
        [WRAP_EDGE_ANGLES, rng.uniform(-20.0, 20.0, 60), 1e6 * rng.standard_normal(10)]
    )
    with np.errstate(invalid="ignore"):
        reference = _wrap_angle(angles)
    finite = np.isfinite(angles)
    assert np.isnan(reference[~finite]).all()
    assert (np.abs(reference[finite]) <= np.pi).all() and (reference[finite] != -np.pi).all()
    assert reference[0] == reference[1] == np.pi
    for manifold in ALL_MANIFOLDS[1:]:
        points = rng.standard_normal((len(angles), manifold.nx))
        points[:, manifold.angles] = angles[:, None]
        one_by_one = np.array([manifold._wrapped(point.copy()) for point in points])
        with np.errstate(invalid="ignore"):
            stacked = manifold._wrapped(points.copy())
        flat = np.setdiff1d(np.arange(manifold.nx), manifold.angles)
        for wrapped in (one_by_one, stacked):
            np.testing.assert_array_equal(wrapped[:, flat], points[:, flat])
            for i in manifold.angles:
                np.testing.assert_array_equal(
                    wrapped[finite, i].view(np.uint64), reference[finite].view(np.uint64)
                )
                assert np.isnan(wrapped[~finite, i]).all()


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
        x0 = random_point(manifold, rng)
        x1 = random_point(manifold, rng)
        again = manifold.integrate(x0, manifold.difference(x0, x1))
        np.testing.assert_allclose(
            manifold.difference(again, x1), np.zeros(manifold.ndx), atol=1e-10
        )


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------


def test_jintegrate_vector_space_returns_identities():
    m = VectorSpace(3)
    jx, jdx = jacobians_of_integrate(m, np.ones(3), np.ones(3))
    np.testing.assert_allclose(jx, np.eye(3), atol=1e-9)
    np.testing.assert_allclose(jdx, np.eye(3), atol=1e-9)


def test_jdifference_vector_space_returns_signed_identities():
    m = VectorSpace(3)
    j0, j1 = jacobians_of_difference(m, np.ones(3), np.zeros(3))
    np.testing.assert_allclose(j0, -np.eye(3), atol=1e-9)
    np.testing.assert_allclose(j1, np.eye(3), atol=1e-9)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_jintegrate_zero_tangent_gives_identity_in_x(manifold):
    rng = np.random.default_rng(31)
    x = random_point(manifold, rng)
    jx, _ = jacobians_of_integrate(manifold, x, np.zeros(manifold.ndx))
    np.testing.assert_allclose(jx, np.eye(manifold.ndx), atol=1e-9)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_jdifference_at_equal_points_gives_identity_j1(manifold):
    rng = np.random.default_rng(32)
    x = random_point(manifold, rng)
    _, j1 = jacobians_of_difference(manifold, x, x)
    np.testing.assert_allclose(j1, np.eye(manifold.ndx), atol=1e-9)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_jintegrate_matches_finite_differences(manifold):
    # The closed form (I, I), also where the step carries an angle across the wrap.
    rng = np.random.default_rng(33)
    eye = np.eye(manifold.ndx)
    for x, dx in wrap_crossing_pairs(manifold, rng, 10):
        jx, jdx = jacobians_of_integrate(manifold, x, dx)
        np.testing.assert_allclose(jx, eye, atol=1e-8)
        np.testing.assert_allclose(jdx, eye, atol=1e-8)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_jdifference_matches_finite_differences(manifold):
    # The closed form (-I, I), also where the two points sit across the wrap.
    rng = np.random.default_rng(34)
    eye = np.eye(manifold.ndx)
    for x0, dx in wrap_crossing_pairs(manifold, rng, 10):
        j0, j1 = jacobians_of_difference(manifold, x0, manifold.integrate(x0, dx))
        np.testing.assert_allclose(j0, -eye, atol=1e-8)
        np.testing.assert_allclose(j1, eye, atol=1e-8)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_chain_rule_of_difference_after_integrate_is_identity(manifold):
    # d/d(dx) difference(x0, integrate(x0, dx)) must be the identity, which
    # ties the closed forms of the two Jacobians together.
    rng = np.random.default_rng(35)
    for x0, dx in point_tangent_pairs(manifold, rng, 10):
        j = numdiff.jacobian(lambda d: manifold.difference(x0, manifold.integrate(x0, d)), dx)
        np.testing.assert_allclose(j, np.eye(manifold.ndx), atol=1e-8)


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=MANIFOLD_IDS)
def test_operators_take_a_leading_node_axis(manifold):
    # A stack of points and tangents evaluates row by row, to the bit.
    rng = np.random.default_rng(38)
    x, dx = (np.array(column) for column in zip(*wrap_crossing_pairs(manifold, rng, 6)))
    x1 = manifold.integrate(x, dx)
    back = manifold.difference(x, x1)
    for k in range(len(x)):
        np.testing.assert_array_equal(x1[k], manifold.integrate(x[k], dx[k]))
        np.testing.assert_array_equal(back[k], manifold.difference(x[k], x1[k]))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_composite_jacobians_are_block_diagonal():
    m = CompositeManifold([VectorSpace(2), Rotation2D()])
    rng = np.random.default_rng(42)
    x = random_point(m, rng)
    dx = random_tangent(m, rng)
    jx, jdx = jacobians_of_integrate(m, x, dx)
    np.testing.assert_allclose(jx[:2, 2:], np.zeros((2, 1)), atol=1e-9)
    np.testing.assert_allclose(jx[2:, :2], np.zeros((1, 2)), atol=1e-9)
    np.testing.assert_allclose(jx[:2, :2], np.eye(2), atol=1e-9)
    np.testing.assert_allclose(jdx[:2, :2], np.eye(2), atol=1e-9)


def test_manifolds_are_equal_when_size_and_angles_agree():
    assert VectorSpace(2) == CompositeManifold([VectorSpace(1), VectorSpace(1)])
    assert MONOPED_CONFIG == CompositeManifold(
        [CompositeManifold([VectorSpace(2), Rotation2D()]), VectorSpace(2)]
    )
    # Same size, angle elsewhere or nowhere; another size; not a manifold.
    assert CompositeManifold([Rotation2D(), VectorSpace(1)]) != CompositeManifold(
        [VectorSpace(1), Rotation2D()]
    )
    assert VectorSpace(3) != CompositeManifold([VectorSpace(2), Rotation2D()])
    assert Rotation2D() != VectorSpace(1)
    assert VectorSpace(2) != VectorSpace(3) and VectorSpace(1) != 1.0


def test_sampling_draws_one_coordinate_at_a_time():
    # The monoped state: translation (2), heading, joints (2), velocity (5).
    # A point draws N(0, 1) at each flat coordinate and a uniform angle at the
    # heading, in coordinate order; a tangent draws N(0, 1) everywhere.
    state = PlanarMonoped().state
    rng, oracle = np.random.default_rng(7), np.random.default_rng(7)
    point, tangent = random_point(state, rng), random_tangent(state, rng, scale=0.5)
    expected = np.concatenate(
        [oracle.standard_normal(2), [oracle.uniform(-np.pi, np.pi)], oracle.standard_normal(2)]
    )
    np.testing.assert_array_equal(point[:5], expected)
    np.testing.assert_array_equal(point[5:], oracle.standard_normal(5))
    np.testing.assert_array_equal(tangent, 0.5 * oracle.standard_normal(10))
    assert point.dtype == tangent.dtype == float
    assert random_point(VectorSpace(0), rng).shape == (0,)


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
    pairs = [(random_point(state, rng), random_tangent(state, rng)) for _ in range(10)]
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


def test_dimension_mismatches_are_rejected():
    # Points are checked where they enter (check_point); the operators
    # themselves trust their arguments.
    with pytest.raises(DimensionMismatch):
        VectorSpace(3).check_point([1.0, 2.0])
    with pytest.raises(DimensionMismatch):  # the right size in the wrong shape
        VectorSpace(2).check_point([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        Rotation2D().check_point([1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        CompositeManifold([])
