"""Cumulant-corrected densities.

Three independent routes pin the expansion down:

* the coefficient table is exact rational arithmetic with hand-checkable
  integer identities at orders 6..9;
* the term-sum derivative engine must reproduce the same density, with and
  without a barrier, as a probabilists'-Hermite construction of the
  Gaussian derivatives (numpy.polynomial.hermite_e knows nothing about our
  term algebra);
* the terminal moments of the density must equal the prescribed cumulants
  exactly — the expansion is built so its characteristic function matches
  through the truncation order, so this holds to machine precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy.stats import norm

from nongauss.expansion import (
    MAX_EXPANSION_ORDER,
    CumulantSet,
    barrier_terms,
    coefficient_terms,
    density_barrier,
    density_vanilla,
    expansion_coefficients,
    vanilla_terms,
)
from nongauss.kernels import GaussKernelParams, barrier_density_gm
from nongauss.moving_barrier import BarrierPath, MovingBarrierScheme, pi_mb
from nongauss.symbolic import evaluate, truncation_window
from tests.conftest import random_cumulant_sets


# --------------------------- coefficient algebra --------------------------- #

def test_coefficient_brackets_orders_6_and_7():
    assert coefficient_terms(6) == {
        (6,): Fraction(1, 720),
        (3, 3): Fraction(1, 72),
    }
    assert coefficient_terms(7) == {
        (7,): Fraction(1, 5040),
        (3, 4): Fraction(1, 144),
    }


def test_coefficient_integer_identities_orders_8_and_9():
    c8 = coefficient_terms(8)
    assert math.factorial(8) * c8[(3, 5)] == 56
    assert math.factorial(8) * c8[(4, 4)] == 35
    assert math.factorial(8) * c8[(8,)] == 1
    c9 = coefficient_terms(9)
    assert math.factorial(9) * c9[(4, 5)] == 126
    assert math.factorial(9) * c9[(3, 6)] == 84
    assert math.factorial(9) * c9[(9,)] == 1


def test_low_orders_have_single_entries():
    for n in (3, 4, 5):
        assert coefficient_terms(n) == {(n,): Fraction(1, math.factorial(n))}


def test_expansion_coefficients_numeric_assembly():
    c = CumulantSet(0.2, 1.0, (0.06, -0.02, 0.01))
    coeffs = expansion_coefficients(c)
    # a_6 = kappa_6/720 + kappa_3^2/72 with kappa_6 = 0 here
    assert coeffs.a(6) == pytest.approx(0.06 ** 2 / 72.0, rel=1e-14)
    # a_8 picks up both products
    a8 = 0.06 * 0.01 / 720.0 + (-0.02) ** 2 / 1152.0
    assert coeffs.a(8) == pytest.approx(a8, rel=1e-14)
    # the table starts at order 3; the unit zeroth coefficient is implicit
    assert coeffs.a(2) == 0.0 and coeffs.a(coeffs.order + 1) == 0.0
    assert set(coeffs.as_dict()) == set(range(3, coeffs.order + 1))


# ------------------------------ cumulant sets ------------------------------ #

def test_natural_order_doubles_top_cumulant():
    assert CumulantSet(0.2, 1.0, ()).order == 2
    assert CumulantSet(0.2, 1.0, (0.1,)).order == 6
    assert CumulantSet(0.2, 1.0, (0.1, 0.05)).order == 8
    assert CumulantSet(0.2, 1.0, (0.0, 0.0, 0.0, 0.0, 0.01)).order == 14
    assert CumulantSet(0.2, 1.0, (0.1,) * 6).order == MAX_EXPANSION_ORDER
    assert CumulantSet(0.2, 1.0, (0.1, 0.05), max_order=6).order == 6


def test_from_map_and_accessors():
    c = CumulantSet.from_map(0.25, 0.5, {3: 0.04, 6: -0.01})
    assert c.kappas == (0.04, 0.0, 0.0, -0.01)
    assert c.kappa(3) == 0.04 and c.kappa(5) == 0.0 and c.kappa(11) == 0.0
    with pytest.raises(ValueError):
        CumulantSet.from_map(0.2, 1.0, {2: 0.1})
    with pytest.raises(ValueError):
        CumulantSet(0.0, 1.0)
    with pytest.raises(ValueError):
        CumulantSet(0.2, 1.0, max_order=16)


# ----------------------------- vanilla density ----------------------------- #

def _he(n: int, z):
    """Probabilists' Hermite polynomial He_n at z."""
    return hermite_e.hermeval(z, np.eye(n + 1)[n])


def test_gaussian_limit_is_plain_normal():
    c = CumulantSet(0.2, 1.5, (), alpha=0.3)
    w = np.linspace(-5.0, 5.0, 101)
    np.testing.assert_allclose(
        density_vanilla(c, w),
        norm.pdf(w, loc=0.3 * 1.5, scale=math.sqrt(1.5)),
        rtol=1e-13,
    )


def test_vanilla_density_matches_hermite_construction():
    # independent route: the n-th derivative of a Gaussian is
    # (-1)^n t^{-n/2} He_n(z) N(w), so the corrected density is
    # N(w) * sum_n a_n t^{-n/2} He_n(z)
    c = CumulantSet(0.2, 0.8, (0.06, -0.025, 0.01), alpha=0.12)
    coeffs = expansion_coefficients(c)
    t = c.t_n
    w = np.linspace(-4.0, 4.0, 201)
    z = (w - c.alpha * t) / math.sqrt(t)
    herm = np.ones_like(w)  # a_0 = 1 carries the uncorrected Gaussian
    for n in range(3, c.order + 1):
        herm += coeffs.a(n) * t ** (-0.5 * n) * _he(n, z)
    expected = norm.pdf(w, loc=c.alpha * t, scale=math.sqrt(t)) * herm
    np.testing.assert_allclose(density_vanilla(c, w), expected, rtol=0, atol=1e-13)


def test_terminal_moments_equal_prescribed_cumulants():
    c = CumulantSet(0.2, 1.0, (0.08, -0.03, 0.012), alpha=0.1)
    f = vanilla_terms(c)
    lo, hi = truncation_window(f)
    g = np.linspace(lo, hi, 20001)
    d = evaluate(f, g)
    mass = np.trapezoid(d, g)
    mean = np.trapezoid(d * g, g)
    mu = g - mean
    m2, m3 = np.trapezoid(d * mu ** 2, g), np.trapezoid(d * mu ** 3, g)
    m4, m5 = np.trapezoid(d * mu ** 4, g), np.trapezoid(d * mu ** 5, g)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert mean == pytest.approx(c.alpha * c.t_n, abs=1e-12)
    assert m2 == pytest.approx(c.t_n, abs=1e-12)
    assert m3 == pytest.approx(c.kappa(3), abs=1e-12)
    assert m4 - 3.0 * m2 ** 2 == pytest.approx(c.kappa(4), abs=1e-12)
    assert m5 - 10.0 * m3 * m2 == pytest.approx(c.kappa(5), abs=1e-12)


@given(
    k3=st.floats(min_value=-0.08, max_value=0.08),
    k4=st.floats(min_value=-0.04, max_value=0.04),
)
def test_vanilla_density_normalizes(k3, k4):
    c = CumulantSet(0.2, 1.0, (k3, k4), alpha=0.05)
    f = vanilla_terms(c)
    lo, hi = truncation_window(f)
    g = np.linspace(lo, hi, 4001)
    assert np.trapezoid(evaluate(f, g), g) == pytest.approx(1.0, abs=1e-8)


def test_normalization_up_to_order_15(rng):
    for c in random_cumulant_sets(rng, 5, max_abs=0.02, top_order=15):
        f = vanilla_terms(c)
        lo, hi = truncation_window(f)
        g = np.linspace(lo, hi, 8001)
        assert np.trapezoid(evaluate(f, g), g) == pytest.approx(1.0, abs=1e-8)


# ----------------------------- barrier density ----------------------------- #

def test_barrier_density_gaussian_limit():
    c = CumulantSet(0.2, 1.0, (), alpha=0.15)
    path = BarrierPath.constant(1.1)
    w = np.linspace(-4.0, 1.05, 101)
    fixed = GaussKernelParams(0.0, 0.15, 1.0, omega_c=1.1)
    np.testing.assert_allclose(
        density_barrier(c, path, MovingBarrierScheme.ST, w),
        barrier_density_gm(fixed, w),
        rtol=1e-13,
    )


def test_barrier_density_gaussian_limit_moving():
    c = CumulantSet(0.2, 1.0, (), alpha=0.0)
    path = BarrierPath.linear(1.2, 0.1)
    w = np.linspace(-3.0, 1.1, 61)
    p = GaussKernelParams(0.0, 0.0, 1.0)
    np.testing.assert_allclose(
        density_barrier(c, path, MovingBarrierScheme.ADIABATIC, w),
        pi_mb(p, path, MovingBarrierScheme.ADIABATIC, w),
        rtol=1e-12,
        atol=1e-15,
    )


def test_distant_barrier_recovers_vanilla_density():
    c = CumulantSet(0.2, 1.0, (0.05, -0.02), alpha=0.1)
    path = BarrierPath.constant(9.0)
    w = np.linspace(-4.0, 4.0, 81)
    np.testing.assert_allclose(
        density_barrier(c, path, MovingBarrierScheme.ST, w),
        density_vanilla(c, w),
        rtol=0,
        atol=1e-14,
    )


def _hermite_barrier_density(c: CumulantSet, b: float, q1: float, q2: float, w):
    """Expansion density on Pi0 = G(w) - Q(b - w) e^{2 alpha b} G(w - 2b),
    Q(x) = 1 + q1 x + q2 x^2 and G the drifted Gaussian N(alpha t, t),
    built from Hermite polynomials.

    With D = d/dw + d/db and z = (x - alpha t)/sqrt(t):
    D^n G(w) = (-1)^n t^{-n/2} He_n(z) G(w); D kills b - w, so Q passes
    through, and D^n [e^{2 alpha b} G(w - 2b)]
    = e^{2 alpha b} sum_k C(n, k) (2 alpha)^{n-k} t^{-k/2} He_k(z) G(w - 2b).
    """
    alpha, t = c.alpha, c.t_n
    coeffs = expansion_coefficients(c)
    g_free = norm.pdf(w, loc=alpha * t, scale=math.sqrt(t))
    g_image = norm.pdf(w - 2.0 * b, loc=alpha * t, scale=math.sqrt(t))
    z_free = (w - alpha * t) / math.sqrt(t)
    z_image = (w - 2.0 * b - alpha * t) / math.sqrt(t)
    free = np.ones_like(w)
    image = np.ones_like(w)
    for n in range(3, coeffs.order + 1):
        a_n = coeffs.a(n)
        free += a_n * t ** (-0.5 * n) * _he(n, z_free)
        image += (-1.0) ** n * a_n * sum(
            math.comb(n, k) * (2.0 * alpha) ** (n - k) * t ** (-0.5 * k) * _he(k, z_image)
            for k in range(n + 1)
        )
    q = 1.0 + q1 * (b - w) + q2 * (b - w) ** 2
    return g_free * free - q * math.exp(2.0 * alpha * b) * g_image * image


@pytest.mark.parametrize("b_n", [1.2, 2.2, 2.6])
@pytest.mark.parametrize("order", [8, 14, 15])
def test_barrier_density_matches_hermite_construction(order, b_n):
    # high orders near high barriers: there a binomial sum of mixed partials
    # cancels to ~1e-8 of the peak at order 15, while D^n holds 1e-13
    t, alpha = 0.5, 0.1
    g = (0.2, -0.04, 0.3, 0.1, -0.05, 0.02)
    kappas = tuple(g_n * t ** (0.5 * n) for n, g_n in enumerate(g, start=3))
    c = CumulantSet(0.2, t, kappas, alpha=alpha, max_order=order)
    xi, curv = 0.3, -0.4
    s_lin = -t * xi  # ST series sum_p (-t)^p B^(p) / p!
    s_poly = -t * xi + 0.5 * t * t * curv

    def st_q(s):
        return -2.0 * s / t, 2.0 * (s / t) ** 2

    cases = [  # (path, scheme, (q1, q2))
        (BarrierPath.constant(b_n), MovingBarrierScheme.ST, (0.0, 0.0)),
        (BarrierPath.linear(b_n, xi), MovingBarrierScheme.ST, st_q(s_lin)),
        (BarrierPath.polynomial(b_n, (xi, curv)), MovingBarrierScheme.ST, st_q(s_poly)),
        (BarrierPath.linear(b_n, xi), MovingBarrierScheme.ADIABATIC, (2.0 * xi, 2.0 * xi * xi)),
    ]
    w = np.linspace(-4.0, b_n, 401)
    for path, scheme, (q1, q2) in cases:
        expected = _hermite_barrier_density(c, b_n, q1, q2, w)
        got = evaluate(barrier_terms(c, path, scheme), w)
        peak = np.max(np.abs(expected))
        err = np.max(np.abs(got - expected)) / peak
        assert err <= 1e-12, (path, scheme, err)


def test_barrier_density_absorbs_mass():
    c = CumulantSet(0.2, 1.0, (0.05,), alpha=0.1)
    path = BarrierPath.constant(0.9)
    f = barrier_terms(c, path, MovingBarrierScheme.ST)
    lo, _ = truncation_window(f)
    g = np.linspace(lo, 0.9, 4001)
    mass = np.trapezoid(np.maximum(evaluate(f, g, b_n=0.9), 0.0), g)
    gauss_surv = float(
        np.trapezoid(
            barrier_density_gm(GaussKernelParams(0.0, 0.1, 1.0, omega_c=0.9), g), g
        )
    )
    assert 0.0 < mass < 1.0
    assert mass == pytest.approx(gauss_surv, abs=0.02)  # small skew, small shift


def test_skew_tilts_the_vanilla_density():
    cplus = CumulantSet(0.2, 1.0, (0.08,), alpha=0.0)
    w = np.linspace(-4.0, 4.0, 801)
    d = density_vanilla(cplus, w)
    third = np.trapezoid(d * w ** 3, w)
    assert third > 0.05  # positive skew pushes the third moment up
