"""Term-algebra engine: exact differentiation in the terminal and barrier
variables and along their sum D, merging, stable evaluation, payoff
integration, serialization.

Derivative checks run two routes — the symbolic engine against Richardson
finite differences of the plain kernel formula — and must agree point by
point; the two routes share no code."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from nongauss.expansion import CumulantSet, barrier_terms, vanilla_terms
from nongauss.kernels import GaussKernelParams, barrier_density_gm, free_density
from nongauss.martingale import RateSpec, solve_drift
from nongauss.moving_barrier import (
    BarrierPath,
    MovingBarrierScheme,
    free_kernel_terms,
    gm_terms,
    pi_mb_terms,
)
from nongauss.symbolic import (
    DERIVATIVE_CAP,
    GL_NODES,
    GaussErfTerm,
    QuadExponent,
    TermMeta,
    TermSum,
    differentiate,
    evaluate,
    integrate_payoff_with_stats,
    merge_terms,
    substitute_barrier,
    term_sum_to_jsonable,
    truncation_window,
)

P_REF = GaussKernelParams(omega0=0.0, alpha=0.2, t=1.0, omega_c=1.0)


def _richardson(fun, x, h):
    """4th-order central first derivative."""
    return (fun(x - 2 * h) - 8 * fun(x - h) + 8 * fun(x + h) - fun(x + 2 * h)) / (12 * h)


# ------------------------------ construction ------------------------------- #

def test_gm_terms_evaluate_to_kernel():
    w = np.linspace(-5.0, 0.999, 301)
    np.testing.assert_allclose(
        evaluate(gm_terms(P_REF), w, b_n=P_REF.omega_c),
        barrier_density_gm(P_REF, w),
        rtol=1e-13,
    )


def test_free_terms_evaluate_to_kernel():
    p = GaussKernelParams(0.1, -0.3, 0.5)
    w = np.linspace(-4.0, 4.0, 161)
    np.testing.assert_allclose(
        evaluate(free_kernel_terms(p), w), free_density(p, w), rtol=1e-13
    )


# ------------------------------- derivatives ------------------------------- #

def test_frozen_first_derivatives_at_reference_point():
    # d/dw and d/dB of the absorbed kernel at (w0=0, alpha=0, t=1, B=1, w=0):
    #   d/dw = -(1/sqrt(2 pi)) 2 e^{-2},  d/dB = +(1/sqrt(2 pi)) 4 e^{-2}
    p = GaussKernelParams(0.0, 0.0, 1.0, omega_c=1.0)
    f = gm_terms(p)
    dw = evaluate(differentiate(f, "omega", 1), 0.0, b_n=1.0)
    db = evaluate(differentiate(f, "barrier", 1), 0.0, b_n=1.0)
    scale = math.exp(-2.0) / math.sqrt(2.0 * math.pi)
    assert dw == pytest.approx(-2.0 * scale, rel=1e-12)
    assert db == pytest.approx(4.0 * scale, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_omega_derivatives_match_finite_differences(order, rng):
    f = gm_terms(P_REF)
    d = differentiate(f, "omega", order)
    lower = differentiate(f, "omega", order - 1)
    for w in rng.uniform(-3.0, 0.9, size=8):
        fd = _richardson(lambda x: evaluate(lower, x, b_n=1.0), w, 1e-3)
        assert evaluate(d, w, b_n=1.0) == pytest.approx(fd, rel=1e-7, abs=1e-10)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_barrier_derivatives_match_finite_differences(order, rng):
    f = gm_terms(P_REF)
    d = differentiate(f, "barrier", order)
    lower = differentiate(f, "barrier", order - 1)
    for w in rng.uniform(-3.0, 0.9, size=8):
        fd = _richardson(lambda b: evaluate(lower, w, b_n=b), 1.0, 1e-3)
        assert evaluate(d, w, b_n=1.0) == pytest.approx(fd, rel=1e-7, abs=1e-10)


def test_mixed_partials_commute():
    f = gm_terms(P_REF)
    wb = differentiate(differentiate(f, "omega", 1), "barrier", 1)
    bw = differentiate(differentiate(f, "barrier", 1), "omega", 1)
    w = np.linspace(-3.0, 0.9, 41)
    np.testing.assert_allclose(
        evaluate(wb, w, b_n=1.0), evaluate(bw, w, b_n=1.0), rtol=1e-12
    )


def _adiabatic_curved_terms():
    # the B'' correction carries the Erfc term
    p = GaussKernelParams(0.0, 0.2, 1.0)
    path = BarrierPath.polynomial(1.0, (0.2, -0.5))
    f = pi_mb_terms(p, path, MovingBarrierScheme.ADIABATIC)
    assert any(t.erfc_arg is not None for t in f.terms)
    return f


@pytest.mark.parametrize("build", [lambda: gm_terms(P_REF), _adiabatic_curved_terms])
def test_total_derivative_is_binomial_sum_of_partials(build):
    # D = d/dw + d/dB, and the partials commute, so
    # D^n f = sum_j C(n, j) d_w^{n-j} d_B^j f.  The reference sum cancels,
    # so its round-off scales with the size of its terms, not of the result.
    f = build()
    w = np.linspace(-3.0, 0.95, 41)
    for n in range(7):
        parts = [
            math.comb(n, j)
            * evaluate(differentiate(differentiate(f, "barrier", j), "omega", n - j), w, b_n=1.0)
            for j in range(n + 1)
        ]
        got = evaluate(differentiate(f, "total", n), w, b_n=1.0)
        scale = np.max(np.sum(np.abs(parts), axis=0))
        np.testing.assert_allclose(got, np.sum(parts, axis=0), rtol=0, atol=1e-13 * scale)


def test_derivative_cap_enforced():
    f = gm_terms(P_REF)
    differentiate(f, "omega", DERIVATIVE_CAP)  # at the cap: fine
    with pytest.raises(ValueError):
        differentiate(f, "omega", DERIVATIVE_CAP + 1)
    with pytest.raises(ValueError):
        differentiate(f, "omega", -1)
    with pytest.raises(ValueError):
        differentiate(f, "B", 1)


def test_high_order_derivative_stays_finite():
    d = differentiate(gm_terms(P_REF), "omega", 12)
    vals = evaluate(d, np.linspace(-6.0, 0.999, 200), b_n=1.0)
    assert np.all(np.isfinite(vals))


# ------------------------------ merge / subs ------------------------------- #

def test_merge_preserves_values_and_compacts():
    f = gm_terms(P_REF)
    doubled = f + f
    merged = merge_terms(doubled)
    assert len(merged.terms) == len(f.terms)
    w = np.linspace(-4.0, 0.9, 61)
    np.testing.assert_allclose(
        evaluate(merged, w, b_n=1.0), 2.0 * evaluate(f, w, b_n=1.0), rtol=1e-14
    )


def test_merge_drops_cancelled_terms():
    from nongauss.symbolic import GaussErfTerm

    f = gm_terms(P_REF)
    neg = TermSum(
        tuple(GaussErfTerm(-t.poly, t.expo, t.erfc_arg) for t in f.terms), f.meta
    )
    assert len(merge_terms(f + neg).terms) == 0


def test_substitute_barrier_binds_b():
    f = gm_terms(P_REF)
    bound = substitute_barrier(f, 1.0)
    w = np.linspace(-4.0, 0.9, 61)
    np.testing.assert_allclose(
        evaluate(bound, w), evaluate(f, w, b_n=1.0), rtol=1e-13
    )


# ------------------------------- evaluation -------------------------------- #

def test_far_tail_evaluation_is_stable():
    d2 = differentiate(gm_terms(P_REF), "omega", 2)
    w = np.array([-40.0, -25.0, 25.0, 40.0])
    vals = evaluate(d2, w, b_n=1.0)
    assert np.all(np.isfinite(vals))
    assert np.all(np.abs(vals) < 1e-100)


@given(w=st.floats(min_value=-50.0, max_value=50.0))
def test_evaluation_always_finite(w):
    f = differentiate(gm_terms(P_REF), "barrier", 2)
    assert math.isfinite(evaluate(f, w, b_n=1.0))


def test_exponent_beyond_float_range_overflows_to_inf():
    meta = TermMeta(1.0, 0.0, 0.0)
    edge = TermSum((GaussErfTerm(np.array([[1.0]]), QuadExponent(c0=709.0)),), meta)
    assert evaluate(edge, 0.0) == pytest.approx(math.exp(709.0), rel=1e-14)
    over = TermSum((GaussErfTerm(np.array([[1.0]]), QuadExponent(c0=710.0)),), meta)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert evaluate(over, 0.0) == math.inf


def test_truncation_window_captures_mass():
    # the reflection form is only meaningful below the barrier, so cap the
    # upper end there; the window must still cover the whole left tail
    f = substitute_barrier(gm_terms(P_REF), 1.0)
    lo, hi = truncation_window(f)
    b = P_REF.omega_c
    inside, _ = quad(lambda w: evaluate(f, w), lo, min(hi, b))
    total, _ = quad(lambda w: evaluate(f, w), -np.inf, b)
    assert inside == pytest.approx(total, abs=1e-12)


# --------------------------- payoff integration ---------------------------- #

def test_payoff_integral_matches_direct_quadrature():
    # knocked-out payoffs integrate up to the barrier, never beyond
    sigma, s0, strike = 0.2, 1.0, 1.05
    b = P_REF.omega_c
    f = substitute_barrier(gm_terms(P_REF), b)
    k = math.log(strike / s0) / sigma
    value, stats = integrate_payoff_with_stats(f, k, b, sigma, s0, strike)
    ref, _ = quad(
        lambda w: (s0 * math.exp(sigma * w) - strike) * evaluate(f, w),
        k,
        b,
        epsabs=1e-13,
    )
    assert value == pytest.approx(ref, abs=1e-9)
    assert stats["n_evals"] == GL_NODES.size  # one interval, one pass of the rule


def test_payoff_integral_empty_interval_is_zero():
    f = substitute_barrier(gm_terms(P_REF), 1.0)
    assert integrate_payoff_with_stats(f, 0.5, 0.5, 0.2, 1.0, 1.0) == (0.0, {"n_evals": 0})
    with pytest.raises(ValueError):
        integrate_payoff_with_stats(f, 1.0, 0.0, 0.2, 1.0, 1.0)


def _market_set(sigma: float, t: float):
    c = CumulantSet(sigma, t, (0.06 * t**1.5, -0.02 * t * t))
    return c.with_alpha(solve_drift(c, RateSpec(0.03 * t, t, sigma)))


def _payoff_quad(f, lower, upper, sigma, strike):
    lo, hi = truncation_window(f, sigma)
    ref, _ = quad(
        lambda w: (math.exp(sigma * w) - strike) * evaluate(f, w),
        max(lower, lo), min(upper, hi), epsabs=0.0, epsrel=1e-13, limit=500,
    )
    return ref


# (sigma, t, barrier / S0 or None, kind, strike / S0): the widest intervals of
# a sigma x t x barrier x strike scan, up to 38 kernel standard deviations
WIDE_INTERVALS = [
    (0.1, 1.0, 1.5, "put", 1.2),  # barrier below the strike: up to b
    (0.1, 1.0, 1.5, "put", 0.9),
    (0.1, 1.0 / 12.0, 2.0, "call", 0.6),  # strike below the window: 38 sd
    (0.1, 1.0 / 12.0, None, "call", 0.6),  # the whole vanilla window: 28 sd
    (0.4, 2.0, None, "call", 1.2),
]


@pytest.mark.parametrize("sigma,t,level,kind,strike", WIDE_INTERVALS)
def test_fixed_rule_matches_adaptive_quadrature(sigma, t, level, kind, strike):
    c = _market_set(sigma, t)
    k = math.log(strike) / sigma
    if level is None:
        f, lower, upper = vanilla_terms(c), k, math.inf
    else:
        b = math.log(level) / sigma
        f = barrier_terms(c, BarrierPath.constant(b))
        lower, upper = (k, b) if kind == "call" else (-math.inf, min(k, b))
    value, stats = integrate_payoff_with_stats(f, lower, upper, sigma, 1.0, strike)
    ref = _payoff_quad(f, lower, upper, sigma, strike)
    assert abs(value - ref) <= 1e-12 * abs(ref) + 1e-15
    assert stats["n_evals"] == GL_NODES.size


def test_fixed_rule_matches_adaptive_quadrature_on_erfc_density():
    # an adiabatic curved path carries Erfc terms, whose exponent slope is
    # the drift; the rule needs no closed form for them
    sigma, t = 0.23, 0.5
    c = _market_set(sigma, t)
    b = math.log(1.3) / sigma
    f = barrier_terms(c, BarrierPath.polynomial(b, (0.3, -0.4)), MovingBarrierScheme.ADIABATIC)
    assert any(term.erfc_arg is not None for term in f.terms)
    strikes = np.array([0.8, 1.0, 1.2])
    calls, _ = integrate_payoff_with_stats(f, np.log(strikes) / sigma, b, sigma, 1.0, strikes)
    puts, stats = integrate_payoff_with_stats(f, -math.inf, np.log(strikes) / sigma, sigma, 1.0, strikes)
    assert stats["n_evals"] == strikes.size * GL_NODES.size
    for i, strike in enumerate(strikes):
        k = math.log(strike) / sigma
        for value, (lower, upper) in ((calls[i], (k, b)), (puts[i], (-math.inf, k))):
            ref = _payoff_quad(f, lower, upper, sigma, strike)
            assert abs(value - ref) <= 1e-12 * abs(ref) + 1e-15


# ------------------------------ serialization ------------------------------ #

def test_jsonable_round_trips_through_json():
    f = differentiate(gm_terms(P_REF), "omega", 3)
    payload = term_sum_to_jsonable(f)
    assert set(payload) == {"meta", "terms"}
    assert len(payload["terms"]) == len(f.terms)
    text = json.dumps(payload)
    assert json.loads(text) == payload
