import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normlab import INF, SequenceSpace, dual_exponent, pnorm, sphere_point_2d, sphere_sample
from normlab.convexity import lp_handle
from normlab.spaces import (
    TWO_PI,
    UNIT_NORM_TOL,
    pnorm_cols,
    sample_sphere_coords,
    sphere_grid_2d,
    sphere_param_2d,
    uniform_grid_2d,
)

EXPONENTS = [1.0, 1.5, 2.0, 3.0, INF]

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=6
)


def test_pnorm_examples():
    assert pnorm([1, 0], 2) == 1.0
    assert pnorm([1, 1], 1) == 2.0
    assert pnorm([1, 1], INF) == 1.0
    assert pnorm([1, 1], 2) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_pnorm_rejects_bad_input():
    with pytest.raises(ValueError):
        pnorm([1, 2], 0.5)
    with pytest.raises(ValueError):
        pnorm([1, float("nan")], 2)
    with pytest.raises(ValueError):
        pnorm([], 2)
    assert pnorm([0.0, 0.0], 3) == 0.0


def test_pnorm_overflow_safe_large_p():
    x = np.array([1e200, 5e199])
    assert pnorm(x, 50) == pytest.approx(1e200 * (1 + 0.5**50) ** (1 / 50), rel=1e-12)


def test_dual_exponent_examples():
    assert dual_exponent(2) == 2.0
    assert dual_exponent(1) == INF
    assert dual_exponent(INF) == 1.0
    assert dual_exponent(4) == pytest.approx(4.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("p", EXPONENTS)
def test_dual_involution(p):
    assert dual_exponent(dual_exponent(p)) == pytest.approx(p, abs=1e-12)


def test_sphere_point_examples():
    for p in EXPONENTS:
        assert np.allclose(sphere_point_2d(0.0, p).coords, [1, 0], atol=1e-15)
    v = sphere_point_2d(math.pi / 4, 2)
    assert np.allclose(v.coords, [math.sqrt(2) / 2] * 2, atol=1e-12)
    v1 = sphere_point_2d(math.pi / 4, 1)
    assert np.allclose(v1.coords, [0.5, 0.5], atol=1e-12)
    assert pnorm(v1.coords, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", EXPONENTS)
def test_sphere_grid_unit_norm_dense(p):
    thetas = np.linspace(0.0, 2.0 * math.pi, 10000, endpoint=False)
    X = sphere_grid_2d(thetas, p)
    assert np.max(np.abs(pnorm_cols(X, p) - 1.0)) <= 1e-12


@pytest.mark.parametrize("p", EXPONENTS)
def test_sphere_param_inverts_parametrization(p):
    thetas = np.linspace(0.0, 2.0 * math.pi, 997, endpoint=False)
    X = sphere_grid_2d(thetas, p)
    for i in range(0, 997, 13):
        t = sphere_param_2d(X[:, i], p)
        diff = abs(((t - thetas[i] + math.pi) % (2 * math.pi)) - math.pi)
        assert diff <= 1e-9


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0, 6.0, INF])
@pytest.mark.dispatch
def test_uniform_grid_is_exactly_dihedral(p):
    """On l_p^2 with n % 8 == 0 the grid is closed under the eight signed
    permutations bit for bit (a quarter turn is j -> j + n/4, the reflection
    y -> -y is j -> -j), with its axis points exactly (+-1, 0) and (0, +-1),
    no -0.0, and its diagonal point exactly (d, d); octant 0 below the
    diagonal is the formula's, and a closed grid ends with its first point.
    A Norm2D, or n % 8 != 0, takes the formula, at 2 pi too when closed."""
    space = SequenceSpace(2, p)
    turn, flip = np.array([[0.0, -1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    for n in (8, 64, 256, 24576):
        X, j = uniform_grid_2d(space, n), np.arange(n)
        for k in range(4):
            for e in range(2):
                M = np.linalg.matrix_power(turn, k) @ np.linalg.matrix_power(flip, e)
                assert np.array_equal(M @ X, X[:, (k * n // 4 + (-1) ** e * j) % n])
        assert np.array_equal(X[:, ::n // 4], [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        assert not np.any(np.signbit(X[X == 0.0]))
        assert X[0, n // 8] == X[1, n // 8]
        thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
        assert np.array_equal(X[:, :n // 8], sphere_grid_2d(thetas[:n // 8], p))
        assert np.max(np.abs(pnorm_cols(X, p) - 1.0)) <= UNIT_NORM_TOL
        assert np.array_equal(uniform_grid_2d(space, n, closed=True), X[:, np.r_[:n, 0]])
    thetas = np.linspace(0.0, TWO_PI, 13)
    assert np.array_equal(uniform_grid_2d(space, 12), sphere_grid_2d(thetas[:12], p))
    assert np.array_equal(uniform_grid_2d(space, 12, closed=True), sphere_grid_2d(thetas, p))
    handle, thetas = lp_handle(p), np.linspace(0.0, TWO_PI, 65)
    assert np.array_equal(uniform_grid_2d(handle, 64), handle.sphere_grid(thetas[:64]))
    assert np.array_equal(uniform_grid_2d(handle, 64, closed=True), handle.sphere_grid(thetas))


def test_sphere_sample_grid_mode_hits_axes():
    pts = sphere_sample(SequenceSpace(2, 2), 4, seed=0)
    got = np.column_stack([p.coords for p in pts])
    expect = np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=float)
    assert np.allclose(got, expect, atol=1e-12)


@pytest.mark.parametrize("dim,p", [(2, 1.5), (3, 2.0), (4, 3.0), (5, INF)])
def test_sphere_sample_unit_and_deterministic(dim, p):
    space = SequenceSpace(dim, p)
    a = sample_sphere_coords(space, 50, seed=7)
    b = sample_sphere_coords(space, 50, seed=7)
    assert np.array_equal(a, b)
    assert np.max(np.abs(pnorm_cols(a, p) - 1.0)) <= 1e-10
    if dim >= 3:  # sign orthants reachable from the symmetric generator
        assert (a[0] > 0).any() and (a[0] < 0).any()


@settings(max_examples=60, deadline=None)
@given(finite_vectors)
def test_norm_monotone_in_exponent(xs):
    x = np.asarray(xs)
    vals = [pnorm(x, p) for p in EXPONENTS]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi * (1 + 1e-12) + 1e-12


@settings(max_examples=60, deadline=None)
@given(finite_vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_homogeneity(xs, c):
    x = np.asarray(xs)
    for p in EXPONENTS:
        lhs = pnorm(c * x, p)
        rhs = abs(c) * pnorm(x, p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n),
            st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n),
        )
    )
)
@example(pair=([0, 196, -169.1875, 731, 0, 0], [173.5, 198, -975.8121138582538, 737, 0, 1]))
def test_triangle_inequality(pair):
    x, y = (np.asarray(v, dtype=float) for v in pair)
    for p in EXPONENTS:
        bound = pnorm(x, p) + pnorm(y, p)
        # the sums round: allow 1e-12 relative to the bound, as the scaling test does
        assert pnorm(x + y, p) <= bound + 1e-12 * max(bound, 1.0)


def test_unit_vector_validation():
    from normlab import UnitVector

    space = SequenceSpace(2, 2)
    UnitVector(np.array([0.6, 0.8]), space)
    with pytest.raises(ValueError):
        UnitVector(np.array([0.6, 0.9]), space)


def test_space_validation():
    with pytest.raises(ValueError):
        SequenceSpace(0, 2)
    with pytest.raises(ValueError):
        SequenceSpace(2, 0.9)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, INF])
def test_scalar_root_columns_get_the_bits_of_pnorm(p):
    """pnorm_cols with scalar_root gives each column of up to 7 rows the bits
    pnorm gives it, zero columns and lone rows included."""
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 7):
        X = rng.standard_normal((dim, 4000)) * 10.0 ** rng.integers(-4, 5, 4000)
        X[:, :3] = 0.0
        got = pnorm_cols(X, p, scalar_root=True)
        assert got.tobytes() == np.array([pnorm(x, p) for x in X.T]).tobytes()
