"""Smile ingestion, strike-space densities, and parameter recovery.

The round-trip battery builds markets from known parameter sets through the
quoting pipeline and demands the fit return them.  Both the fit and its
synthetic targets pass through the same extraction operator, so recovery is
limited by the optimizer, not by interpolation bias — tolerances here are
far inside the headline ones."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from nongauss.calibration import (
    DELTA_GRID,
    CsvFormatError,
    RateRow,
    SmileQuote,
    bl_density,
    build_surface,
    delta_to_strike,
    fit_parameters,
    implied_vol,
    read_rates_csv,
    read_smile_csv,
    regression_diagnostics,
    synthetic_slice,
)
from nongauss.expansion import CumulantSet
from nongauss.martingale import RateSpec, solve_drift
from nongauss.pricing import bs_call

S0 = 100.0
R_ACC = 0.03


def _drifted(sigma, t_n, kappas):
    c = CumulantSet(sigma, t_n, kappas)
    return c.with_alpha(solve_drift(c, RateSpec(R_ACC, t_n, sigma)))


def _slice_for(c):
    months = round(12 * c.t_n)
    quotes, rr = synthetic_slice(c, s0=S0, r_acc=R_ACC, maturity_months=months)
    return build_surface(S0, quotes, [rr]).slices()[0]


# ------------------------------- csv wiring -------------------------------- #

def test_csv_round_trip(tmp_path):
    smile = tmp_path / "smile.csv"
    smile.write_text(
        "date,maturity_months,delta,vol\n"
        "2024-01-02,12,0.25,0.215\n"
        "2024-01-02,12,0.5,0.205\n"
    )
    rates = tmp_path / "rates.csv"
    rates.write_text("date,maturity_months,r_acc,forward\n2024-01-02,12,0.03,103.05\n")
    quotes = read_smile_csv(smile)
    assert [q.delta for q in quotes] == [0.25, 0.5]
    rows = read_rates_csv(rates)
    assert rows[0].forward == 103.05


def test_csv_rejects_wrong_header(tmp_path):
    bad = tmp_path / "smile.csv"
    bad.write_text("date,months,delta,vol\n2024-01-02,12,0.5,0.2\n")
    with pytest.raises(CsvFormatError):
        read_smile_csv(bad)


def test_csv_rejects_ragged_row(tmp_path):
    bad = tmp_path / "rates.csv"
    bad.write_text("date,maturity_months,r_acc,forward\n2024-01-02,12,0.03\n")
    with pytest.raises(CsvFormatError):
        read_rates_csv(bad)


def test_surface_assembles_slices():
    c = _drifted(0.2, 1.0, (0.05,))
    quotes, rr = synthetic_slice(c, s0=S0, r_acc=R_ACC)
    surf = build_surface(S0, quotes, [rr])
    (sl,) = surf.slices()
    assert sl.maturity_months == 12
    assert sl.forward == pytest.approx(S0 * math.exp(R_ACC))
    assert sl.deltas == DELTA_GRID and len(sl.vols) == len(DELTA_GRID)
    assert sl.atm_vol == pytest.approx(0.2, abs=0.02)
    assert sl.df == pytest.approx(math.exp(-R_ACC))
    ks = sl.strikes()
    assert all(k1 > k2 for k1, k2 in zip(ks, ks[1:]))


# ------------------------- strikes and implied vols ------------------------ #

def test_delta_to_strike_conventions():
    q = SmileQuote("2024-01-02", 12, 0.5, 0.2)
    # premium-unadjusted forward delta: K(0.5) = F exp(sigma^2 T / 2)
    assert delta_to_strike(q, forward=100.0, t_n=1.0) == pytest.approx(
        100.0 * math.exp(0.02), rel=1e-12
    )
    strikes = [
        delta_to_strike(SmileQuote("d", 12, d, 0.2), 100.0, 1.0) for d in DELTA_GRID
    ]
    assert all(k1 > k2 for k1, k2 in zip(strikes, strikes[1:]))  # high delta = low K


@given(
    vol=st.floats(min_value=0.1, max_value=0.8),
    k_over_f=st.floats(min_value=0.7, max_value=1.45),
)
def test_implied_vol_inverts_the_pricer(vol, k_over_f):
    t_n, df = 0.75, math.exp(-0.04 * 0.75)
    strike = S0 * math.exp(R_ACC) * k_over_f
    price = bs_call(S0, strike, vol, t_n, R_ACC, df)
    assert implied_vol(price, S0, strike, t_n, R_ACC, df) == pytest.approx(
        vol, abs=1e-6
    )


def test_implied_vol_rejects_off_bounds_prices():
    with pytest.raises(ValueError):
        implied_vol(-0.01, S0, 100.0, 1.0, R_ACC, 1.0)  # below intrinsic
    with pytest.raises(ValueError):
        # above the df * forward large-vol bound
        implied_vol(110.0, S0, 100.0, 1.0, R_ACC, 1.0)


# --------------------------- strike-space density -------------------------- #

def test_flat_smile_density_is_lognormal():
    vol, t_n = 0.2, 1.0
    quotes = [SmileQuote("d", 12, d, vol) for d in DELTA_GRID]
    rr = RateRow("d", 12, R_ACC, S0 * math.exp(R_ACC))
    sl = build_surface(S0, quotes, [rr]).slices()[0]
    out = bl_density(sl)
    inner = out.interior()
    k = out.strikes[inner]
    q = out.strike_density[inner]
    mu = math.log(S0) + R_ACC - 0.5 * vol * vol * t_n
    ref = norm.pdf(np.log(k), mu, vol * math.sqrt(t_n)) / k
    assert np.max(np.abs(q - ref)) < 1e-4
    assert not np.any(out.negative_flags[inner])


def test_density_dual_derivative_routes_agree():
    c = _drifted(0.22, 1.0, (0.06, -0.02))
    sl = _slice_for(c)
    out = bl_density(sl)
    inner = out.interior()
    rel = np.abs(out.pi_spline - out.pi_fd)[inner] / np.maximum(
        np.abs(out.pi_spline[inner]), 1e-12
    )
    assert np.max(rel) < 1e-4


def test_density_mass_matches_generator_over_same_window():
    # the grid only spans the quoted-strike range, so compare the extracted
    # mass against the generating density integrated over the same window
    from nongauss.expansion import density_vanilla

    c = _drifted(0.2, 1.0, (0.04,))
    sl = _slice_for(c)
    out = bl_density(sl)
    inner = out.interior()
    mass = np.trapezoid(out.strike_density[inner], out.strikes[inner])
    k_lo, k_hi = out.strikes[inner][0], out.strikes[inner][-1]
    w = np.linspace(math.log(k_lo / S0) / c.sigma, math.log(k_hi / S0) / c.sigma, 2001)
    ref = np.trapezoid(density_vanilla(c, w), w)
    assert mass == pytest.approx(ref, abs=0.01)


# ------------------------------ synthetic market --------------------------- #

def test_synthetic_slice_is_self_consistent():
    c = _drifted(0.21, 1.0, (0.07, -0.025))
    quotes, rr = synthetic_slice(c, s0=S0, r_acc=R_ACC)
    from nongauss.pricing import OptionSpec, price_vanilla

    t_n = 1.0
    df = math.exp(-R_ACC)
    rates = RateSpec(R_ACC, t_n, c.sigma)
    for q in quotes:
        strike = delta_to_strike(q, rr.forward, t_n)
        model = price_vanilla(OptionSpec("vanilla_call", S0, strike, t_n, rates, df), c)
        quoted = bs_call(S0, strike, q.vol, t_n, R_ACC, df)
        assert quoted == pytest.approx(model.price, abs=1e-9 * S0)


def test_synthetic_slice_requires_drift():
    with pytest.raises(ValueError):
        synthetic_slice(CumulantSet(0.2, 1.0, (0.05,)), s0=S0, r_acc=R_ACC)


# ------------------------------ parameter fits ----------------------------- #

def test_round_trip_recovers_known_parameters():
    truth = _drifted(0.22, 1.0, (0.06, -0.02))
    c_fit, report = fit_parameters(_slice_for(truth))
    assert report.converged
    assert c_fit.sigma == pytest.approx(0.22, rel=5e-3)
    assert c_fit.kappa(3) == pytest.approx(0.06, rel=0.05)
    assert c_fit.kappa(4) == pytest.approx(-0.02, rel=0.05)
    a_p, b_p, r2 = report.regression
    assert 0.999 <= a_p <= 1.001 and abs(b_p) <= 1e-4 and r2 >= 0.9999
    assert c_fit.alpha is not None


def test_flat_smile_fits_to_zero_cumulants():
    truth = _drifted(0.2, 1.0, ())
    c_fit, report = fit_parameters(_slice_for(truth))
    assert report.converged
    assert c_fit.sigma == pytest.approx(0.2, rel=5e-3)
    assert all(abs(k) <= 1e-4 for k in c_fit.kappas)


def test_fit_is_deterministic():
    sl = _slice_for(_drifted(0.21, 1.0, (0.05, -0.015)))
    c1, r1 = fit_parameters(sl)
    c2, r2 = fit_parameters(sl)
    assert c1 == c2
    assert r1.objective == r2.objective and r1.n_evals == r2.n_evals


def test_staging_picks_up_fifth_cumulant():
    truth = _drifted(0.2, 1.0, (0.06, -0.03, 0.012))
    c_fit, report = fit_parameters(_slice_for(truth), max_order=7)
    assert c_fit.kappa(5) == pytest.approx(0.012, rel=0.05)
    assert "3..5" in report.message


def test_stage_acceptance_never_raises_objective():
    # the incumbent objective trail must be strictly decreasing: a stage is
    # only accepted when it improves on the incumbent by the gate factor
    truth = _drifted(0.2, 1.0, (0.06, -0.03, 0.012))
    _, report = fit_parameters(_slice_for(truth), max_order=7)
    trail = report.stage_objectives
    assert len(trail) >= 2  # the fifth order must have been accepted
    assert all(f2 < f1 for f1, f2 in zip(trail, trail[1:]))
    assert report.objective == trail[-1]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    k3=st.floats(min_value=-0.1, max_value=0.1),
    k4=st.floats(min_value=-0.05, max_value=0.05),
)
def test_round_trip_invariant_over_random_surfaces(k3, k4):
    truth = _drifted(0.2, 1.0, (k3, k4))
    c_fit, report = fit_parameters(_slice_for(truth))
    assert report.converged
    assert abs(c_fit.sigma - 0.2) <= 0.005 * 0.2
    assert abs(c_fit.kappa(3) - k3) <= 0.05 * abs(k3) + 1e-4
    assert abs(c_fit.kappa(4) - k4) <= 0.05 * abs(k4) + 1e-4


# ------------------------------- diagnostics ------------------------------- #

def test_regression_diagnostics_identity_line():
    x = np.linspace(1.0, 2.0, 50)
    a, b, r2 = regression_diagnostics(x, x)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        regression_diagnostics(x[:2], x[:2])
