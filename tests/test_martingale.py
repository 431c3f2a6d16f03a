"""Risk-neutral drift: solve_drift returns the closed-form series drift
exactly, the independent order-15 integer table agrees with it, and every
solved drift makes the discounted exponential a true martingale under the
expansion density (checked by quadrature, not by the closed form)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from nongauss.expansion import CumulantSet, vanilla_terms
from nongauss.martingale import (
    DriftSolveError,
    RateSpec,
    drift_closed_form_k15,
    drift_from_series,
    gaussian_drift,
    solve_drift,
)
from nongauss.symbolic import evaluate, truncation_window
from tests.conftest import random_cumulant_sets

RATES = RateSpec(r_acc=0.05, t_n=1.0, sigma=0.2)


def _martingale_residual(c: CumulantSet, rates: RateSpec) -> float:
    """E[e^{sigma w}] under the density minus the accrual factor."""
    f = vanilla_terms(c)
    lo, hi = truncation_window(f, sigma_shift=rates.sigma)
    val, _ = quad(
        lambda w: math.exp(rates.sigma * w) * evaluate(f, w), lo, hi, limit=200
    )
    return val - math.exp(rates.r_acc)


def test_gaussian_drift_closed_form():
    # r t / sigma - sigma t / 2 = 0.05/0.2 - 0.2/2 = 0.15
    assert gaussian_drift(RATES) == pytest.approx(0.15, abs=1e-15)
    c = CumulantSet(0.2, 1.0)
    assert solve_drift(c, RATES) == pytest.approx(0.15, abs=1e-12)
    assert drift_closed_form_k15(c, RATES) == pytest.approx(0.15, abs=1e-15)


def test_three_routes_agree_on_skewed_set():
    c = CumulantSet(0.2, 1.0, (0.05, -0.02, 0.01))
    a_solved = solve_drift(c, RATES)
    a_closed = drift_closed_form_k15(c, RATES)
    a_series = drift_from_series(c, RATES)
    assert a_closed == pytest.approx(a_solved, abs=1e-10)
    assert a_series == pytest.approx(a_solved, abs=1e-10)


def test_solved_drift_kills_the_residual(rng):
    for c in random_cumulant_sets(rng, 10, max_abs=0.05):
        alpha = solve_drift(c, RATES)
        resid = _martingale_residual(c.with_alpha(alpha), RATES)
        assert abs(resid) < 1e-10


def test_closed_form_matches_root_solve_broadly(rng):
    worst = 0.0
    for c in random_cumulant_sets(rng, 50, max_abs=0.05):
        delta = abs(solve_drift(c, RATES) - drift_closed_form_k15(c, RATES))
        worst = max(worst, delta)
    assert worst < 1e-8


def test_solve_drift_is_the_series_drift(rng):
    # the checks around the closed form never move the value
    for c in random_cumulant_sets(rng, 50, max_abs=0.05):
        assert solve_drift(c, RATES) == drift_from_series(c, RATES)


def test_nonpositive_moment_factor_is_a_drift_error():
    # 1 + a_3 sigma^3 = 1 - (1000/6) 0.008 = -1/3: no drift can be a martingale
    c = CumulantSet(0.2, 1.0, (-1000.0,), max_order=3)
    with pytest.raises(DriftSolveError, match="not positive"):
        solve_drift(c, RATES)


def test_skew_lowers_the_drift():
    # positive skew fattens the upper tail, so the compensating drift drops
    a0 = solve_drift(CumulantSet(0.2, 1.0), RATES)
    a_plus = solve_drift(CumulantSet(0.2, 1.0, (0.08,)), RATES)
    assert a_plus < a0


def test_mismatched_inputs_rejected():
    c = CumulantSet(0.25, 1.0)
    with pytest.raises(ValueError):
        solve_drift(c, RATES)  # sigma disagrees
    with pytest.raises(ValueError):
        solve_drift(CumulantSet(0.2, 0.5), RATES)  # horizon disagrees
    with pytest.raises(ValueError):
        RateSpec(0.05, -1.0, 0.2)


@given(
    r_acc=st.floats(min_value=-0.1, max_value=0.15),
    k3=st.floats(min_value=-0.05, max_value=0.05),
)
def test_drift_depends_smoothly_on_rate(r_acc, k3):
    rates = RateSpec(r_acc, 1.0, 0.2)
    c = CumulantSet(0.2, 1.0, (k3,))
    alpha = solve_drift(c, rates)
    assert math.isfinite(alpha)
    assert drift_closed_form_k15(c, rates) == pytest.approx(alpha, abs=1e-8)
