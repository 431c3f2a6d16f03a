"""Perturbative densities for deterministically moving barriers.

The two schemes must collapse onto the fixed-barrier kernel for a constant
path, agree with each other term by term for linear paths, and converge at
second order in the slope against the exact co-moving-frame solution."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nongauss.kernels import GaussKernelParams, barrier_density_gm
from nongauss.moving_barrier import (
    BarrierPath,
    MovingBarrierScheme,
    pi1_st,
    pi2_st,
    pi_adiabatic_terms,
    pi_mb,
    pi_mb_terms,
)
from nongauss.oracle import exact_linear_barrier_density
from nongauss.symbolic import evaluate

P = GaussKernelParams(omega0=0.0, alpha=0.1, t=1.0)
W_GRID = np.linspace(-3.0, 0.95, 40)


# ------------------------------ barrier paths ------------------------------ #

def test_linear_path_level_and_series():
    path = BarrierPath.linear(b_n=1.0, xi=0.3)
    assert path.level(0.0, t_n=1.0) == pytest.approx(0.7)
    assert path.level(1.0, t_n=1.0) == pytest.approx(1.0)
    # S = -t * B' for a linear path
    assert path.series_factor(1.0) == pytest.approx(-0.3)


def test_polynomial_path_matches_taylor_sum():
    derivs = (0.25, -0.4, 0.12)
    path = BarrierPath.polynomial(b_n=1.2, derivs=derivs)
    t_n = 0.8
    expected = sum(
        (-t_n) ** p * d / math.factorial(p) for p, d in enumerate(derivs, start=1)
    )
    assert path.series_factor(t_n) == pytest.approx(expected, rel=1e-14)
    # Taylor reconstruction at an interior time
    s = 0.3 - t_n
    level = 1.2 + sum(d * s ** p / math.factorial(p) for p, d in enumerate(derivs, 1))
    assert path.level(0.3, t_n) == pytest.approx(level, rel=1e-14)


def test_path_validation():
    # a path dipping below the start is rejected at evaluation time
    # (b_n=0.1 with slope +2 starts at 0.1 - 2 = -1.9, under omega0=0)
    steep = BarrierPath.linear(b_n=0.1, xi=2.0)
    with pytest.raises(ValueError):
        pi_mb(P, steep, MovingBarrierScheme.ST, 0.0)


# --------------------------- constant-path limit --------------------------- #

@pytest.mark.parametrize("scheme", list(MovingBarrierScheme))
def test_constant_path_reduces_to_fixed_kernel(scheme):
    path = BarrierPath.constant(1.0)
    fixed = GaussKernelParams(P.omega0, P.alpha, P.t, omega_c=1.0)
    np.testing.assert_allclose(
        pi_mb(P, path, scheme, W_GRID), barrier_density_gm(fixed, W_GRID), rtol=1e-14
    )


@pytest.mark.parametrize("scheme", list(MovingBarrierScheme))
def test_term_sum_route_agrees_with_direct_route(scheme):
    # the curved path exercises the adiabatic Erfc tail and the ST series with B''
    paths = (BarrierPath.linear(b_n=1.0, xi=0.15), BarrierPath.polynomial(1.0, (0.15, -0.3)))
    for path in paths:
        f = pi_mb_terms(P, path, scheme)
        np.testing.assert_allclose(
            evaluate(f, W_GRID, b_n=path.b_n),
            pi_mb(P, path, scheme, W_GRID),
            rtol=1e-12,
            atol=1e-15,
        )


# ---------------------- cross-scheme exact identities ---------------------- #

def test_linear_path_first_corrections_coincide():
    # for a linear path the short-time and adiabatic first corrections are
    # the same function, as are the quadratic-in-slope ones
    path = BarrierPath.linear(b_n=1.0, xi=0.2)
    a_term, b_term, c_term = pi_adiabatic_terms(P, path, W_GRID)
    np.testing.assert_allclose(pi1_st(P, path, W_GRID), a_term, rtol=0, atol=1e-14)
    np.testing.assert_allclose(pi2_st(P, path, W_GRID), c_term, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(b_term, 0.0)  # no curvature, no Erfc tail


def test_curvature_only_enters_adiabatic_b_term():
    path = BarrierPath.polynomial(b_n=1.0, derivs=(0.0, 0.3))
    a_term, b_term, c_term = pi_adiabatic_terms(P, path, W_GRID)
    np.testing.assert_array_equal(a_term, 0.0)
    np.testing.assert_array_equal(c_term, 0.0)
    assert np.max(np.abs(b_term)) > 0.0


def test_corrections_vanish_in_absorbed_region():
    path = BarrierPath.linear(b_n=0.8, xi=0.1)
    above = np.array([0.8, 1.0, 3.0])
    np.testing.assert_array_equal(pi1_st(P, path, above), 0.0)
    np.testing.assert_array_equal(pi2_st(P, path, above), 0.0)


def test_second_st_correction_is_nonpositive():
    path = BarrierPath.linear(b_n=1.0, xi=0.4)
    assert np.all(pi2_st(P, path, W_GRID) <= 0.0)


# ----------------------- convergence to the exact law ---------------------- #

def test_linear_barrier_convergence_is_second_order():
    # halving the slope must cut the worst-case error by at least ~4x
    path_of = lambda xi: BarrierPath.linear(b_n=1.0, xi=xi)
    slopes = (0.2, 0.1, 0.05)
    errors = []
    for xi in slopes:
        approx = pi_mb(P, path_of(xi), MovingBarrierScheme.ST, W_GRID)
        exact = exact_linear_barrier_density(P, 1.0 - xi * P.t, xi, W_GRID)
        errors.append(np.max(np.abs(approx - exact)))
    rates = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    assert all(r >= 2.0 for r in rates), (errors, rates)


def test_zero_slope_exact_agreement():
    exact = exact_linear_barrier_density(P, 1.0, 0.0, W_GRID)
    fixed = barrier_density_gm(
        GaussKernelParams(P.omega0, P.alpha, P.t, omega_c=1.0), W_GRID
    )
    np.testing.assert_allclose(exact, fixed, rtol=1e-15)


@given(xi=st.floats(min_value=-0.3, max_value=0.3))
def test_moving_density_nonnegative_for_gentle_slopes(xi):
    path = BarrierPath.linear(b_n=1.0, xi=xi)
    vals = pi_mb(P, path, MovingBarrierScheme.ST, W_GRID)
    assert np.all(vals >= -1e-3)  # perturbative: tiny undershoot allowed


def test_st_term_sum_is_base_plus_both_corrections():
    path = BarrierPath.linear(b_n=1.0, xi=0.2)
    values = evaluate(pi_mb_terms(P, path, MovingBarrierScheme.ST), W_GRID, b_n=1.0)
    base = barrier_density_gm(
        GaussKernelParams(P.omega0, P.alpha, P.t, omega_c=1.0), W_GRID
    )
    first = pi1_st(P, path, W_GRID)
    second = pi2_st(P, path, W_GRID)
    np.testing.assert_allclose(values, base + first + second, rtol=0, atol=1e-13)
