"""
Smile calibration
=================

Per (date, maturity) slice: convert five delta-quoted vols to strikes, build
the smile-implied call-price curve, extract the risk-neutral density through
the second strike derivative,

    q(K) = e^{r_acc} d2C/dK2,      Pi(omega) = q(K) * K * sigma,

and fit (sigma, kappa_3..kappa_max) of the expansion density to it by a
trust-region least-squares solve (``trf``) on the residual vector
sqrt(w) (q_model - q) with ridge rows sqrt(RIDGE) kappa_n for n > 9,
re-solving the martingale drift at every step.  The second derivative is
taken twice — analytically from a natural cubic spline on the price curve
and by central differences — and the two routes must agree, which guards
the spline against over- or under-smoothing.

Delta convention: forward delta of a call, premium-unadjusted, so
K = F exp(-sigma sqrt(T) InvPhi(delta) + sigma^2 T / 2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, least_squares
from scipy.special import ndtr, ndtri

from .expansion import CumulantSet, vanilla_terms
from .martingale import RateSpec, drift_from_series, solve_drift
from .pricing import bs_call, negative_mass
from .symbolic import integrate_payoff_with_stats

Array = np.ndarray

__all__ = [
    "BlDensity",
    "CalibrationReport",
    "CsvFormatError",
    "RateRow",
    "SmileQuote",
    "SmileSurface",
    "bl_density",
    "build_surface",
    "delta_to_strike",
    "fit_parameters",
    "implied_vol",
    "read_rates_csv",
    "read_smile_csv",
    "regression_diagnostics",
    "synthetic_slice",
]

DELTA_GRID = (0.10, 0.25, 0.50, 0.75, 0.90)
BL_GRID = 241  # strikes of the dense price curve behind bl_density

# fit_parameters: forward selection keeps an order only if it cuts the
# objective below STAGE_GAMMA times the incumbent; RIDGE penalizes
# cumulants above order 9; N_RESTARTS jittered polishes of the best start
STAGE_GAMMA = 0.2
RIDGE = 1e-4
N_RESTARTS = 2

SMILE_CSV_FIELDS = ("date", "maturity_months", "delta", "vol")
RATES_CSV_FIELDS = ("date", "maturity_months", "r_acc", "forward")


# ------------------------------- market data ------------------------------- #

class CsvFormatError(ValueError):
    """Malformed input row; message carries file:line."""


@dataclass(frozen=True)
class SmileQuote:
    date: str
    maturity_months: int
    delta: float
    vol: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.vol <= 0.0:
            raise ValueError(f"vol must be positive, got {self.vol}")


@dataclass(frozen=True)
class RateRow:
    date: str
    maturity_months: int
    r_acc: float
    forward: float

    def __post_init__(self) -> None:
        if self.forward <= 0.0:
            raise ValueError(f"forward must be positive, got {self.forward}")


@dataclass(frozen=True)
class SmileSlice:
    """All inputs for one (date, maturity) calibration."""

    date: str
    maturity_months: int
    s0: float
    forward: float
    r_acc: float
    deltas: tuple[float, ...]
    vols: tuple[float, ...]

    def __post_init__(self) -> None:
        # the density fit prices off s0 and the strikes off the forward
        implied = self.s0 * math.exp(self.r_acc)
        if abs(self.forward - implied) > 1e-9 * implied:
            raise ValueError(
                f"slice {self.date} {self.maturity_months}m: forward {self.forward:.12g}"
                f" disagrees with s0 e^r_acc = {implied:.12g}"
            )

    @property
    def t_n(self) -> float:
        return self.maturity_months / 12.0

    @property
    def df(self) -> float:
        return math.exp(-self.r_acc)

    @property
    def atm_vol(self) -> float:
        return self.vols[self.deltas.index(0.50)]

    def strikes(self) -> tuple[float, ...]:
        return tuple(
            delta_to_strike(SmileQuote(self.date, self.maturity_months, d, v), self.forward, self.t_n)
            for d, v in zip(self.deltas, self.vols)
        )


@dataclass(frozen=True)
class SmileSurface:
    s0: float
    quotes: tuple[SmileQuote, ...]
    rates: tuple[RateRow, ...]

    def slices(self) -> list[SmileSlice]:
        rate_by_key = {(r.date, r.maturity_months): r for r in self.rates}
        grouped: dict[tuple[str, int], list[SmileQuote]] = {}
        for q in self.quotes:
            grouped.setdefault((q.date, q.maturity_months), []).append(q)
        out = []
        for key in sorted(grouped):
            qs = sorted(grouped[key], key=lambda q: q.delta)
            deltas = tuple(round(q.delta, 4) for q in qs)
            if deltas != DELTA_GRID:
                raise ValueError(
                    f"slice {key}: need the five deltas {DELTA_GRID}, got {deltas}"
                )
            if key not in rate_by_key:
                raise ValueError(f"slice {key}: no matching rates row")
            r = rate_by_key[key]
            out.append(
                SmileSlice(
                    key[0], key[1], self.s0, r.forward, r.r_acc,
                    deltas, tuple(q.vol for q in qs),
                )
            )
        return out


def _read_csv(path: str | Path, fields: tuple[str, ...]) -> list[tuple[int, dict]]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != fields:
            raise CsvFormatError(f"{path}:1: expected header {','.join(fields)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(fields):
                raise CsvFormatError(
                    f"{path}:{lineno}: expected {len(fields)} columns, got {len(row)}"
                )
            rows.append((lineno, dict(zip(fields, (cell.strip() for cell in row)))))
    return rows


def read_smile_csv(path: str | Path) -> list[SmileQuote]:
    quotes = []
    for lineno, row in _read_csv(path, SMILE_CSV_FIELDS):
        try:
            quotes.append(
                SmileQuote(row["date"], int(row["maturity_months"]), float(row["delta"]), float(row["vol"]))
            )
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{lineno}: {exc}") from exc
    return quotes


def read_rates_csv(path: str | Path) -> list[RateRow]:
    rows = []
    for lineno, row in _read_csv(path, RATES_CSV_FIELDS):
        try:
            rows.append(
                RateRow(row["date"], int(row["maturity_months"]), float(row["r_acc"]), float(row["forward"]))
            )
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{lineno}: {exc}") from exc
    return rows


def build_surface(s0: float, quotes: Sequence[SmileQuote], rates: Sequence[RateRow]) -> SmileSurface:
    surface = SmileSurface(s0, tuple(quotes), tuple(rates))
    surface.slices()  # validate eagerly
    return surface


# ----------------------------- quote conversion ---------------------------- #

def delta_to_strike(q: SmileQuote, forward: float, t_n: float) -> float:
    """Forward-delta call convention: K = F exp(-sigma sqrt(T) InvPhi(delta)
    + sigma^2 T / 2); strictly decreasing in delta."""
    srt = q.vol * math.sqrt(t_n)
    return forward * math.exp(-srt * ndtri(q.delta) + 0.5 * srt * srt)


def implied_vol(price: float, s0: float, strike: float, t_n: float, r_acc: float, df: float) -> float:
    intrinsic = df * max(s0 * math.exp(r_acc) - strike, 0.0)
    if price <= intrinsic + 1e-300:
        raise ValueError(f"price {price} at or below intrinsic {intrinsic}")
    return float(
        brentq(lambda v: bs_call(s0, strike, v, t_n, r_acc, df) - price, 1e-6, 5.0, xtol=1e-14)
    )


# ------------------------ Breeden-Litzenberger density --------------------- #

@dataclass(frozen=True)
class BlDensity:
    """Smile-implied density on a strike grid, by both derivative routes.

    ``strike_density`` is q(K) = e^{r_acc} C''(K) from the spline route (the
    quantity the fit targets); pi_spline / pi_fd carry the K * sigma_ref
    Jacobian onto the omega = ln(K/s0)/sigma_ref coordinate.  sigma_ref is
    the ATM vol, fixed so the reported density does not move with the fit.
    """

    strikes: Array
    omega: Array
    sigma_ref: float
    strike_density: Array
    pi_spline: Array
    pi_fd: Array
    negative_flags: Array

    def interior(self) -> Array:
        """Mask of points clear of the spline's natural-boundary layer (at
        least 5% of the strike span from each end)."""
        margin = 0.05 * (self.strikes[-1] - self.strikes[0])
        return (self.strikes >= self.strikes[0] + margin) & (
            self.strikes <= self.strikes[-1] - margin
        )


def _vol_quartic(forward: float, k_quoted: Array, vols: Array):
    """Unique quartic through five (strike, vol) points in log-moneyness,
    held flat beyond the quoted range."""
    x_quoted = np.log(k_quoted / forward)
    coeffs = np.polyfit(x_quoted, vols, 4)

    def vol_at(k: Array) -> Array:
        x = np.clip(np.log(np.asarray(k, dtype=float) / forward), x_quoted[0], x_quoted[-1])
        return np.polyval(coeffs, x)

    return vol_at


def _smile_vol_curve(sl: SmileSlice):
    """Vol-vs-strike interpolant for the quoted smile.

    A knot spline on the vols would force zero curvature at the outer quotes
    and leak O(1e-3) artifacts into the second price derivative; the quartic
    is exact for flat smiles and bias-free where the fit needs it.
    """
    quoted = np.array(sl.strikes())
    order = np.argsort(quoted)
    k_quoted = quoted[order]
    return k_quoted, _vol_quartic(sl.forward, k_quoted, np.array(sl.vols)[order])


def _dense_strike_density(sl: SmileSlice, vol_at, grid: Array):
    """BS price curve under a vol function, natural-splined in strike.

    Returns (prices, spline, q) with q = e^{r_acc} C'' evaluated on ``grid``
    from the spline's analytic second derivative.
    """
    fwd = sl.s0 * math.exp(sl.r_acc)
    vols = np.asarray(vol_at(grid), dtype=float)
    srt = vols * math.sqrt(sl.t_n)
    d1 = (np.log(fwd / grid) + 0.5 * srt * srt) / srt
    prices = sl.df * (fwd * ndtr(d1) - grid * ndtr(d1 - srt))
    price_curve = CubicSpline(grid, prices, bc_type="natural")
    return prices, price_curve, math.exp(sl.r_acc) * price_curve(grid, 2)


def bl_density(sl: SmileSlice) -> BlDensity:
    """Second strike derivative of the smile call-price curve.

    The five quoted vols are interpolated (quartic in log-moneyness), priced
    on BL_GRID strikes spanning the quotes, and the dense price curve gets a
    natural cubic spline in strike; C'' comes from that spline analytically
    and from a second difference.
    Non-convex price regions show up as negative density and are flagged,
    not repaired.
    """
    k_quoted, vol_at = _smile_vol_curve(sl)
    grid = np.linspace(k_quoted[0], k_quoted[-1], BL_GRID)
    prices, price_curve, q_spline = _dense_strike_density(sl, vol_at, grid)
    growth = math.exp(sl.r_acc)
    q_fd = np.empty_like(q_spline)
    h_lo = grid[1:-1] - grid[:-2]
    h_hi = grid[2:] - grid[1:-1]
    q_fd[1:-1] = growth * 2.0 * (
        prices[:-2] / (h_lo * (h_lo + h_hi))
        - prices[1:-1] / (h_lo * h_hi)
        + prices[2:] / (h_hi * (h_lo + h_hi))
    )
    q_fd[0], q_fd[-1] = q_spline[0], q_spline[-1]  # no centered stencil at the ends

    sigma_ref = sl.atm_vol
    omega = np.log(grid / sl.s0) / sigma_ref
    jac = grid * sigma_ref
    return BlDensity(
        strikes=grid,
        omega=omega,
        sigma_ref=sigma_ref,
        strike_density=q_spline,
        pi_spline=q_spline * jac,
        pi_fd=q_fd * jac,
        negative_flags=q_spline < 0.0,
    )


# ------------------------------ least squares ------------------------------ #

@dataclass(frozen=True)
class CalibrationReport:
    date: str
    maturity_months: int
    cumulants: CumulantSet
    objective: float
    density_rmse: float
    negative_mass: float
    regression: tuple[float, float, float]  # a_p, b_p, r_squared
    converged: bool
    n_evals: int
    message: str = ""
    stage_objectives: tuple[float, ...] = ()  # incumbent after base fit, then per accepted order


def regression_diagnostics(model_prices, market_prices) -> tuple[float, float, float]:
    """OLS of model on market prices: slope a_p, intercept b_p, R^2."""
    y = np.asarray(model_prices, dtype=float)
    x = np.asarray(market_prices, dtype=float)
    if y.shape != x.shape or y.size < 3:
        raise ValueError("need at least 3 aligned price pairs")
    a_p, b_p = np.polyfit(x, y, 1)
    resid = y - (a_p * x + b_p)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0.0 else 1.0
    return float(a_p), float(b_p), r2


def fit_parameters(sl: SmileSlice, max_order: int = 7) -> tuple[CumulantSet, CalibrationReport]:
    """Weighted least squares of the expansion density against the
    smile-implied one, in strike space.

    Both sides of the residual pass through the identical extraction
    operator (five vols at the quoted strikes -> quartic vol curve -> dense
    BS prices -> natural spline -> C''): the market side starts from the
    quoted vols, the model side from its own implied vols at those strikes.
    The operator's interpolation bias then cancels instead of leaking into
    the recovered cumulants, and a parameter set reproducing the quotes
    drives the objective to numerical zero.

    The residual vector is sqrt(w) (q - target), weights w following the
    target density so the body dominates, plus one ridge row
    sqrt(RIDGE) kappa_n per order n > 9; the objective is its squared norm.
    An inadmissible point returns a constant vector of squared norm
    1e6 (1 + |x|^2).  Five quotes carry little more than five numbers, so
    the parameter space is built up by forward selection: a trust-region
    least-squares solve (``trf``, Jacobian-scaled) first fits
    (sigma, kappa_3, kappa_4) — from a coarse deterministic grid of
    standardized skew/kurtosis starts, polishing the three with the smallest
    objective and jittering the winner N_RESTARTS times — then offers one
    more cumulant order at a time and keeps it only if the objective drops
    below STAGE_GAMMA times the incumbent; otherwise selection stops.  That
    keeps genuinely needed orders (their absence leaves a residual far above
    the optimizer floor) while refusing orders that would only soak up noise.

    Raises ValueError if no admissible parameter set is found.
    Deterministic for a fixed slice (the jitter generator is seeded with 0).
    """
    if not 7 <= max_order <= 15:
        raise ValueError("max_order must lie in [7, 15]")
    bl = bl_density(sl)
    mask = bl.interior()
    grid_full = bl.strikes
    grid = grid_full[mask]
    target = bl.strike_density[mask]
    weights = np.maximum(target, 0.0)
    root_w = np.sqrt(weights / weights.sum())
    n_kappa = max_order - 2
    t_n = sl.t_n
    counter = {"n": 0}
    k_quoted, vol_at = _smile_vol_curve(sl)
    log_k = np.log(k_quoted / sl.s0)

    def quote_vols(c: CumulantSet) -> Array | None:
        # model call prices at the quoted strikes (one payoff-integral call
        # over the strike ladder), then BS-inverted at each quote
        values, _ = integrate_payoff_with_stats(
            vanilla_terms(c), log_k / c.sigma, math.inf, c.sigma, sl.s0, k_quoted
        )
        prices = sl.df * values
        try:
            return np.array(
                [
                    implied_vol(float(p), sl.s0, float(k), t_n, sl.r_acc, sl.df)
                    for p, k in zip(prices, k_quoted)
                ]
            )
        except ValueError:
            return None

    def model_density(x: Array) -> Array | None:
        # expansion order follows the cumulant content (self-consistent
        # truncation); max_order caps which cumulants are offered at all
        sigma, kappas = float(x[0]), x[1:]
        if not 0.01 <= sigma <= 5.0:
            return None
        c = CumulantSet(sigma, t_n, tuple(kappas))
        rates = RateSpec(sl.r_acc, t_n, sigma)
        try:
            c = c.with_alpha(drift_from_series(c, rates))
        except ValueError:
            return None
        vols = quote_vols(c)
        if vols is None or not np.all(np.isfinite(vols)):
            return None
        _, _, q = _dense_strike_density(sl, _vol_quartic(sl.forward, k_quoted, vols), grid_full)
        return q[mask]

    def residuals(x: Array) -> Array:
        counter["n"] += 1
        q = model_density(x)
        ridge = math.sqrt(RIDGE) * x[8:]  # kappa_n for n > 9
        if q is None:
            n = target.size + ridge.size
            return np.full(n, math.sqrt(1e6 * (1.0 + float(x @ x)) / n))
        return np.concatenate((root_w * (q - target), ridge))

    def objective(x: Array) -> float:
        r = residuals(x)
        return float(r @ r)

    def polish(x_start: Array):
        res = least_squares(
            residuals, x_start, method="trf", x_scale="jac", ftol=1e-14, xtol=1e-14, gtol=1e-14
        )
        return np.asarray(res.x), float(res.fun @ res.fun), bool(res.success), str(res.message)

    rng = np.random.default_rng(0)
    # short maturities put the smile far outside the small-kappa regime and
    # grow spurious local minima; scan a coarse grid of starts in
    # standardized units (kappa_n ~ t^{n/2}) and polish the most promising
    u3, u4 = t_n ** 1.5, t_n * t_n
    starts = [
        np.array([sl.atm_vol, g1 * u3, g2 * u4])
        for g1 in (-1.0, -0.5, 0.0, 0.5, 1.0)
        for g2 in (-0.5, 0.0, 0.5)
    ]
    ranked = sorted(starts, key=objective)
    best_x, best_f, success, message = polish(ranked[0])
    for x0 in ranked[1:3]:
        x_r, f_r, s_r, m_r = polish(x0)
        if f_r < best_f:
            best_x, best_f, success, message = x_r, f_r, s_r, m_r
    for _ in range(N_RESTARTS):
        jitter = rng.normal(0.0, 1e-3, best_x.shape) * np.maximum(np.abs(best_x), 0.05)
        x_r, f_r, s_r, m_r = polish(best_x + jitter)
        if f_r < best_f:
            best_x, best_f, success, message = x_r, f_r, s_r, m_r
    selected = 4
    stage_objs = [best_f]
    for order in range(5, max_order + 1):
        if best_f < 1e-16:  # quotes already reproduced to numerics; nothing left to fit
            break
        unit = t_n ** (0.5 * order)
        seeds = [np.append(best_x, g * unit) for g in (0.0, -0.5, 0.5)]
        x_r, f_r, s_r, m_r = polish(min(seeds, key=objective))
        if f_r < STAGE_GAMMA * best_f:
            best_x, best_f, success, message = x_r, f_r, s_r, m_r
            selected = order
            stage_objs.append(best_f)
        else:
            break
    message = f"selected cumulant orders 3..{selected}; {message}"
    q_model = model_density(best_x)
    if q_model is None:
        raise ValueError(f"slice {sl.date} {sl.maturity_months}m: found no admissible parameter set")

    sigma_fit = float(best_x[0])
    kappas_full = np.zeros(n_kappa)
    kappas_full[: len(best_x) - 1] = best_x[1:]
    c_fit = CumulantSet(sigma_fit, t_n, tuple(kappas_full))
    rates = RateSpec(sl.r_acc, t_n, sigma_fit)
    c_fit = c_fit.with_alpha(solve_drift(c_fit, rates))

    rmse = float(np.sqrt(np.mean((q_model - target) ** 2)))
    f_fit = vanilla_terms(c_fit)
    neg = negative_mass(f_fit)
    k_reg = grid[:: max(1, len(grid) // 60)]
    market_prices = np.array(
        [bs_call(sl.s0, k, float(v), t_n, sl.r_acc, sl.df) for k, v in zip(k_reg, vol_at(k_reg))]
    )
    model_values, _ = integrate_payoff_with_stats(
        f_fit, np.log(k_reg / sl.s0) / sigma_fit, math.inf, sigma_fit, sl.s0, k_reg
    )
    reg = regression_diagnostics(sl.df * model_values, market_prices)
    report = CalibrationReport(
        date=sl.date,
        maturity_months=sl.maturity_months,
        cumulants=c_fit,
        objective=best_f,
        density_rmse=rmse,
        negative_mass=neg,
        regression=reg,
        converged=success,
        n_evals=counter["n"],
        message=message,
        stage_objectives=tuple(stage_objs),
    )
    return c_fit, report


# ----------------------------- synthetic smiles ---------------------------- #

def synthetic_slice(
    c: CumulantSet,
    s0: float,
    r_acc: float,
    date: str = "2024-01-02",
    maturity_months: int = 12,
) -> tuple[list[SmileQuote], RateRow]:
    """Quotes a known parameter set back as a five-delta smile.

    For each delta the (strike, vol) pair is self-consistent: the strike
    follows from the vol via the delta convention and the vol is the BS
    implied vol of the model price at that strike — iterated to a fixed
    point (at most 40 passes).  Round-tripping these quotes through
    fit_parameters recovers c.
    """
    if c.alpha is None:
        raise ValueError("attach a martingale drift before quoting")
    t_n = c.t_n
    if abs(t_n - maturity_months / 12.0) > 1e-12:
        raise ValueError(f"maturity_months={maturity_months} disagrees with t_n={t_n}")
    df = math.exp(-r_acc)
    fwd = s0 * math.exp(r_acc)
    f = vanilla_terms(c)
    quotes = []
    for delta in DELTA_GRID:
        vol = c.sigma
        for _ in range(40):
            strike = delta_to_strike(SmileQuote(date, maturity_months, delta, vol), fwd, t_n)
            # scalar math.log: numpy's log differs from it in the last bit
            # on some strikes, and the quotes are meant to be reproducible
            price = df * integrate_payoff_with_stats(
                f, math.log(strike / s0) / c.sigma, math.inf, c.sigma, s0, strike
            )[0]
            vol_new = implied_vol(price, s0, strike, t_n, r_acc, df)
            if abs(vol_new - vol) < 1e-14:
                vol = vol_new
                break
            vol = vol_new
        quotes.append(SmileQuote(date, maturity_months, delta, vol))
    return quotes, RateRow(date, maturity_months, r_acc, fwd)
