"""Vanilla and knock-up-and-out pricing.

The Gaussian limit has a closed-form knock-out price (reflection), which
pins the quadrature route; structural orderings (knock-out below vanilla,
prices monotone in strike and barrier) guard the non-Gaussian branch."""

from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

from nongauss.expansion import CumulantSet, barrier_terms, vanilla_terms
from nongauss.martingale import RateSpec, solve_drift
from nongauss.moving_barrier import BarrierPath, MovingBarrierScheme
from nongauss.symbolic import evaluate, truncation_window
from nongauss.pricing import (
    EXPERIMENT_CSV_FIELDS,
    ExperimentSlice,
    OptionSpec,
    barrier_grid_experiment,
    bs_kuo_closed_form,
    bs_vanilla,
    negative_mass,
    price_kuo_call,
    price_kuo_put,
    price_vanilla,
)


def _gauss_set(sigma: float, t_n: float, r_acc: float) -> CumulantSet:
    rates = RateSpec(r_acc, t_n, sigma)
    c = CumulantSet(sigma, t_n)
    return c.with_alpha(solve_drift(c, rates))


def _spec(kind, s0, strike, t_n, sigma, r_acc, barrier_level=None):
    rates = RateSpec(r_acc, t_n, sigma)
    df = math.exp(-0.05 * t_n)
    barrier = None
    if barrier_level is not None:
        barrier = BarrierPath.constant(math.log(barrier_level / s0) / sigma)
    return OptionSpec(kind, s0, strike, t_n, rates, df, barrier)


# ------------------------------ vanilla limit ------------------------------ #

def test_vanilla_gaussian_matches_black_scholes():
    c = _gauss_set(0.2, 1.0, 0.05)
    spec = _spec("vanilla_call", 100.0, 105.0, 1.0, 0.2, 0.05)
    res = price_vanilla(spec, c)
    assert res.price == pytest.approx(bs_vanilla(spec), rel=1e-9)
    assert res.diagnostics["negative_mass"] == pytest.approx(0.0, abs=1e-12)


def test_bs_vanilla_frozen_value():
    # S=100, K=105, sigma=0.2, T=1, r=5% continuously compounded
    spec = _spec("vanilla_call", 100.0, 105.0, 1.0, 0.2, 0.05)
    d1 = (math.log(100.0 / 105.0) + 0.05 + 0.02) / 0.2
    ref = 100.0 * norm.cdf(d1) - 105.0 * math.exp(-0.05) * norm.cdf(d1 - 0.2)
    assert bs_vanilla(spec) == pytest.approx(ref, rel=1e-12)


def test_zero_strike_call_discounts_the_forward():
    c = _gauss_set(0.2, 1.0, 0.05)
    spec = _spec("vanilla_call", 100.0, 0.0, 1.0, 0.2, 0.05)
    forward = 100.0 * math.exp(0.05)
    assert price_vanilla(spec, c).price == pytest.approx(
        spec.df * forward, rel=1e-9
    )


def test_vanilla_price_decreases_in_strike():
    c = CumulantSet(0.2, 1.0, (0.06, -0.02))
    c = c.with_alpha(solve_drift(c, RateSpec(0.05, 1.0, 0.2)))
    prices = [
        price_vanilla(_spec("vanilla_call", 100.0, k, 1.0, 0.2, 0.05), c).price
        for k in (80.0, 95.0, 110.0, 130.0)
    ]
    assert all(p1 > p2 for p1, p2 in zip(prices, prices[1:]))


# ------------------------------ knock-out limit ---------------------------- #

@pytest.mark.parametrize("b_over_s", [1.1, 1.3])
@pytest.mark.parametrize("k_over_s", [0.8, 1.0])
def test_kuo_gaussian_matches_reflection_closed_form(b_over_s, k_over_s):
    c = _gauss_set(0.2, 1.0, 0.05)
    spec = _spec("kuo_call", 100.0, 100.0 * k_over_s, 1.0, 0.2, 0.05, 100.0 * b_over_s)
    res = price_kuo_call(spec, c)
    assert res.price == pytest.approx(bs_kuo_closed_form(spec), rel=1e-7)


def test_kuo_put_gaussian_matches_reflection_closed_form():
    c = _gauss_set(0.25, 0.5, 0.02)
    spec = _spec("kuo_put", 100.0, 102.0, 0.5, 0.25, 0.02, 118.0)
    res = price_kuo_put(spec, c)
    assert res.price == pytest.approx(bs_kuo_closed_form(spec), rel=1e-7)


def test_strike_above_barrier_prices_to_zero():
    c = _gauss_set(0.2, 1.0, 0.05)
    spec = _spec("kuo_call", 1.0, 1.2, 1.0, 0.2, 0.05, 1.1)
    assert price_kuo_call(spec, c).price == 0.0
    assert bs_kuo_closed_form(spec) == 0.0


def test_closed_form_rejects_moving_barrier():
    spec = _spec("kuo_call", 100.0, 100.0, 1.0, 0.2, 0.05, 120.0)
    moving = dataclasses.replace(spec, barrier=BarrierPath.linear(spec.barrier.b_n, 0.1))
    with pytest.raises(ValueError, match="constant barriers only"):
        bs_kuo_closed_form(moving)


def test_kuo_below_vanilla_and_converges_to_it():
    c = CumulantSet(0.2, 1.0, (0.05, -0.02))
    c = c.with_alpha(solve_drift(c, RateSpec(0.05, 1.0, 0.2)))
    vanilla = price_vanilla(_spec("vanilla_call", 100.0, 100.0, 1.0, 0.2, 0.05), c).price
    kuo_levels = [120.0, 150.0, 250.0, 600.0]
    kuo = [
        price_kuo_call(_spec("kuo_call", 100.0, 100.0, 1.0, 0.2, 0.05, b), c).price
        for b in kuo_levels
    ]
    assert all(p1 < p2 for p1, p2 in zip(kuo, kuo[1:]))
    assert all(p < vanilla + 1e-12 for p in kuo)
    assert kuo[-1] == pytest.approx(vanilla, rel=1e-6)


def test_moving_barrier_knockout_orders_with_slope():
    # a barrier drifting upward knocks out less than one ending at the same
    # level after dipping lower earlier (rising path = lower early levels)
    c = _gauss_set(0.2, 1.0, 0.05)
    rates = RateSpec(0.05, 1.0, 0.2)
    df = math.exp(-0.05)
    b_n = math.log(1.25) / 0.2
    fixed = OptionSpec(
        "kuo_call", 100.0, 100.0, 1.0, rates, df, BarrierPath.constant(b_n)
    )
    rising = OptionSpec(
        "kuo_call", 100.0, 100.0, 1.0, rates, df, BarrierPath.linear(b_n, 0.4)
    )
    p_fixed = price_kuo_call(fixed, c).price
    p_rising = price_kuo_call(rising, c, MovingBarrierScheme.ADIABATIC).price
    assert p_rising < p_fixed


def test_scheme_choice_immaterial_for_constant_barrier():
    c = CumulantSet(0.2, 1.0, (0.05,))
    c = c.with_alpha(solve_drift(c, RateSpec(0.05, 1.0, 0.2)))
    spec = _spec("kuo_call", 100.0, 95.0, 1.0, 0.2, 0.05, 130.0)
    p_st = price_kuo_call(spec, c, MovingBarrierScheme.ST).price
    p_ad = price_kuo_call(spec, c, MovingBarrierScheme.ADIABATIC).price
    assert p_st == pytest.approx(p_ad, rel=1e-10)


# ------------------------------ negative mass ------------------------------ #

def _market_shaped_set() -> CumulantSet:
    # the 6-month market row, kappa_n = kappa_4 (kappa_4 / kappa_3)^(n - 4)
    # beyond kappa_4: expansion order 15, negative lobe near omega = -3
    t, sigma, k3, k4 = 0.5, 0.23, 0.065, -0.022
    kappas = {3: k3, 4: k4, **{n: k4 * (k4 / k3) ** (n - 4) for n in range(5, 9)}}
    c = CumulantSet.from_map(sigma, t, kappas)
    assert c.order == 15
    return c.with_alpha(solve_drift(c, RateSpec(0.015, t, sigma)))


def _trapezoid_negative_mass(f, upper):
    lo, hi = truncation_window(f)
    w = np.linspace(lo, min(hi, upper), 400_001)
    return -np.trapezoid(np.minimum(evaluate(f, w), 0.0), w)


@pytest.mark.parametrize(
    "path,scheme,upper",
    [
        ("linear", MovingBarrierScheme.ST, None),
        ("curved", MovingBarrierScheme.ADIABATIC, None),
        ("linear", MovingBarrierScheme.ST, -2.8),  # the cap cuts the lobe: it ends there
    ],
)
def test_negative_mass_matches_dense_trapezoid(path, scheme, upper):
    c = _market_shaped_set()
    b = math.log(1.3 * math.exp(0.015)) / c.sigma  # theta = 1.3 at the forward
    barrier = BarrierPath.linear(b, 0.3) if path == "linear" else BarrierPath.polynomial(b, (0.3, -0.4))
    f = barrier_terms(c, barrier, scheme)
    cap = b if upper is None else upper
    ref = _trapezoid_negative_mass(f, cap)
    assert ref > 1e-5
    assert negative_mass(f, upper=cap) == pytest.approx(ref, rel=1e-6)


def test_negative_mass_of_vanilla_density_and_of_lobe_free_one():
    f = vanilla_terms(_market_shaped_set())
    assert negative_mass(f) == pytest.approx(_trapezoid_negative_mass(f, math.inf), rel=1e-6)
    assert negative_mass(vanilla_terms(_gauss_set(0.2, 1.0, 0.05))) == 0.0


def test_spec_validation():
    rates = RateSpec(0.05, 1.0, 0.2)
    with pytest.raises(ValueError):
        OptionSpec("kuo_call", 100.0, 100.0, 1.0, rates, 1.0, None)  # no barrier
    with pytest.raises(ValueError):
        OptionSpec("straddle", 100.0, 100.0, 1.0, rates, 1.0)
    with pytest.raises(ValueError):
        OptionSpec("vanilla_call", 100.0, 100.0, 0.5, rates, 1.0)  # clock mismatch


def test_pricing_result_hash_is_stable():
    c = _gauss_set(0.2, 1.0, 0.05)
    spec = _spec("vanilla_call", 100.0, 105.0, 1.0, 0.2, 0.05)
    r1, r2 = price_vanilla(spec, c), price_vanilla(spec, c)
    assert r1.params_hash == r2.params_hash
    other = price_vanilla(_spec("vanilla_call", 100.0, 106.0, 1.0, 0.2, 0.05), c)
    assert other.params_hash != r1.params_hash


# ------------------------------- experiment -------------------------------- #

def _toy_slice(cumulants):
    return ExperimentSlice(
        maturity_months=12,
        s0=100.0,
        forward=105.13,
        r_acc=0.05,
        df=math.exp(-0.05),
        strikes=(100.0, 110.0),
        strike_vols=(0.2, 0.21),
        cumulants=cumulants,
    )


def test_experiment_grid_shape_and_barrier_rule(tmp_path):
    c = _gauss_set(0.2, 1.0, 0.05)
    rows = barrier_grid_experiment([_toy_slice(c)], theta=(1.01, 1.2))
    assert len(rows) == 4  # 2 strikes x 2 theta
    by_key = {(r["strike"], r["theta"]): r for r in rows}
    # theta K below the forward falls back to theta F
    assert by_key[(100.0, 1.01)]["barrier"] == pytest.approx(1.01 * 105.13)
    assert by_key[(110.0, 1.2)]["barrier"] == pytest.approx(132.0)
    for r in rows:
        assert r["price_pi"] >= 0.0 and r["price_bs"] >= 0.0

    out = tmp_path / "exp.csv"
    barrier_grid_experiment([_toy_slice(c)], theta=(1.01, 1.2), out_csv=out)
    with open(out) as fh:
        read = list(csv.reader(fh))
    assert tuple(read[0]) == EXPERIMENT_CSV_FIELDS
    assert len(read) == 5


def test_experiment_marks_uncalibrated_slices():
    rows = barrier_grid_experiment([_toy_slice(None)], theta=(1.2,))
    assert all(r["price_pi"] == "NA" and r["neg_mass"] == "NA" for r in rows)
    assert all(isinstance(r["price_bs"], float) for r in rows)


def test_gaussian_slice_model_agrees_with_bs_column():
    # with kappas == 0 and the slice vol, both columns price the same world
    c = _gauss_set(0.2, 1.0, 0.05)
    sl = ExperimentSlice(
        12, 100.0, 100.0 * math.exp(0.05), 0.05, math.exp(-0.05),
        (100.0,), (0.2,), c,
    )
    row = barrier_grid_experiment([sl], theta=(1.25,))[0]
    assert row["price_pi"] == pytest.approx(row["price_bs"], rel=1e-6)
