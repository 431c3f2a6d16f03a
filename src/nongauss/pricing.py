"""
Option valuation
================

Prices are discounted expectations of the payoff against the model density
in the scaled log-price coordinate omega = ln(S/S0)/sigma:

    vanilla call:   df * int_k^inf   (s0 e^{sigma w} - K) Pi^inf(w) dw
    KUO call:       df * int_k^b     (s0 e^{sigma w} - K) Pi(w)     dw
    KUO put:        df * int_-inf^kb (K - s0 e^{sigma w}) Pi(w)     dw

with k = ln(K/s0)/sigma, b the barrier level at maturity and kb = min(k, b).
KUO = knock-up-and-out: the payoff survives only if the path stays below the
barrier.  Pi is the (possibly negative in the tails) cumulant-expansion
density; the negative mass is reported as a diagnostic, never clipped.
Every integral is the fixed Gauss-Legendre rule of ``symbolic`` on the
density's truncation window.

Black-Scholes references (vanilla and the reflection-principle KUO closed
form) are included for the Gaussian-limit checks and for the comparison
column of the barrier-grid experiment.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .expansion import CumulantSet, barrier_terms, vanilla_terms
from .martingale import RateSpec, gaussian_drift
from .moving_barrier import BarrierPath, MovingBarrierScheme
from .symbolic import (
    TermSum,
    evaluate,
    integrate_density,
    integrate_payoff_with_stats,
    truncation_window,
)

__all__ = [
    "ExperimentSlice",
    "OptionSpec",
    "PricingResult",
    "barrier_grid_experiment",
    "bs_call",
    "bs_kuo_closed_form",
    "bs_vanilla",
    "negative_mass",
    "price_kuo_call",
    "price_kuo_put",
    "price_vanilla",
]

EXPERIMENT_CSV_FIELDS = ("strike", "maturity_months", "theta", "barrier", "price_pi", "price_bs", "neg_mass")


# --------------------------------- contracts ------------------------------- #

@dataclass(frozen=True)
class OptionSpec:
    """Contract terms.  maturity must equal rates.t_n (one clock)."""

    kind: str  # "vanilla_call" | "kuo_call" | "kuo_put"
    s0: float
    strike: float
    maturity: float
    rates: RateSpec
    df: float
    barrier: BarrierPath | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("vanilla_call", "kuo_call", "kuo_put"):
            raise ValueError(f"unknown option kind {self.kind!r}")
        if self.s0 <= 0.0 or self.strike < 0.0 or self.df <= 0.0:
            raise ValueError("require s0 > 0, strike >= 0, df > 0")
        if self.maturity != self.rates.t_n:
            raise ValueError("option maturity and rate-spec horizon disagree")
        if self.kind.startswith("kuo") and self.barrier is None:
            raise ValueError(f"{self.kind} requires a barrier path")

    def log_strike(self) -> float:
        """k = ln(K/s0)/sigma; -inf for a zero strike."""
        if self.strike == 0.0:
            return -math.inf
        return math.log(self.strike / self.s0) / self.rates.sigma


@dataclass(frozen=True)
class PricingResult:
    price: float
    diagnostics: dict
    params_hash: str


def _params_hash(spec: OptionSpec, c: CumulantSet, scheme=None) -> str:
    text = repr((spec, c, scheme))
    return hashlib.md5(text.encode()).hexdigest()[:12]


NEGATIVE_MASS_GRID = 2001


def negative_mass(f: TermSum, upper: float | None = None) -> float:
    """Integral of the density's negative part (a truncation-health metric).

    The sign changes of f are found on a fixed grid of NEGATIVE_MASS_GRID
    points over the truncation window, capped at ``upper``, and each root is
    placed by linear interpolation; f is then integrated over the negative
    sub-intervals by the fixed Gauss-Legendre rule.  Negative lobes narrower
    than about two grid steps fall between the grid points and are not seen.
    """
    lo, hi = truncation_window(f)
    if upper is not None:
        hi = min(hi, upper)
    if hi <= lo:
        return 0.0
    w = np.linspace(lo, hi, NEGATIVE_MASS_GRID)
    v = evaluate(f, w)
    neg = v < 0.0
    if not np.any(neg):
        return 0.0
    i = np.flatnonzero(neg[1:] != neg[:-1])
    roots = w[i] + (w[i + 1] - w[i]) * v[i] / (v[i] - v[i + 1])
    edges = np.concatenate(([lo] if neg[0] else [], roots, [hi] if neg[-1] else []))
    return -float(np.sum(integrate_density(f, edges[0::2], edges[1::2])))


def _check_drift(c: CumulantSet) -> None:
    if c.alpha is None:
        raise ValueError("cumulant set has no drift attached; solve_drift first")


# ------------------------------- model prices ------------------------------ #

def _priced(
    spec: OptionSpec, c: CumulantSet, f: TermSum, lower: float, upper: float,
    scheme: MovingBarrierScheme | None = None, sign: float = 1.0,
) -> PricingResult:
    """sign * df * payoff integral of f over [lower, upper], with the
    negative mass of f (below the barrier of a KUO) as the diagnostic."""
    value, _ = integrate_payoff_with_stats(
        f, lower, upper, spec.rates.sigma, spec.s0, spec.strike
    )
    cap = spec.barrier.b_n if spec.kind.startswith("kuo") else None
    diagnostics = {"negative_mass": negative_mass(f, upper=cap)}
    return PricingResult(sign * spec.df * value, diagnostics, _params_hash(spec, c, scheme))


def price_vanilla(spec: OptionSpec, c: CumulantSet) -> PricingResult:
    """European call on the no-barrier expansion density."""
    _check_drift(c)
    return _priced(spec, c, vanilla_terms(c), spec.log_strike(), math.inf)


def price_kuo_call(
    spec: OptionSpec, c: CumulantSet, scheme: MovingBarrierScheme = MovingBarrierScheme.ST
) -> PricingResult:
    """Knock-up-and-out call: integrate (S - K)+ against the absorbed density
    between the log-strike and the barrier level; zero when k >= b."""
    _check_drift(c)
    k, b = spec.log_strike(), spec.barrier.b_n
    if k >= b:
        return PricingResult(0.0, {"negative_mass": 0.0}, _params_hash(spec, c, scheme))
    return _priced(spec, c, barrier_terms(c, spec.barrier, scheme), k, b, scheme)


def price_kuo_put(
    spec: OptionSpec, c: CumulantSet, scheme: MovingBarrierScheme = MovingBarrierScheme.ST
) -> PricingResult:
    """Knock-up-and-out put: lower-tail integral of (K - S)+ up to min(k, b)."""
    _check_drift(c)
    if spec.strike == 0.0:
        return PricingResult(0.0, {"negative_mass": 0.0}, _params_hash(spec, c, scheme))
    kb = min(spec.log_strike(), spec.barrier.b_n)
    f = barrier_terms(c, spec.barrier, scheme)
    return _priced(spec, c, f, -math.inf, kb, scheme, sign=-1.0)


# --------------------------- Black-Scholes limits -------------------------- #

def bs_call(s0: float, strike: float, vol: float, t_n: float, r_acc: float, df: float) -> float:
    """Black-Scholes call on the forward s0 e^{r_acc}, discounted by df."""
    fwd = s0 * math.exp(r_acc)
    if strike == 0.0:
        return df * fwd
    srt = vol * math.sqrt(t_n)
    d1 = (math.log(fwd / strike) + 0.5 * srt * srt) / srt
    return df * (fwd * ndtr(d1) - strike * ndtr(d1 - srt))


def bs_vanilla(spec: OptionSpec) -> float:
    """Black-Scholes price of spec's payoff ignoring any barrier.

    Call for the call kinds, put for kuo_put.
    """
    r = spec.rates
    if spec.kind != "kuo_put":
        return bs_call(spec.s0, spec.strike, r.sigma, r.t_n, r.r_acc, spec.df)
    if spec.strike == 0.0:
        return 0.0
    fwd = spec.s0 * math.exp(r.r_acc)
    srt = r.sigma * math.sqrt(r.t_n)
    d1 = (math.log(fwd / spec.strike) + 0.5 * srt * srt) / srt
    d2 = d1 - srt
    return spec.df * (spec.strike * ndtr(-d2) - fwd * ndtr(-d1))


def _gauss_exp_window(m: float, csig: float, t: float, x1: float, x2: float) -> float:
    # int_{x1}^{x2} e^{csig w} N(w; m, t) dw
    rt = math.sqrt(t)
    hi = ndtr((x2 - m) / rt - csig * rt) if not math.isinf(x2) else 1.0
    lo = ndtr((x1 - m) / rt - csig * rt) if not math.isinf(x1) else 0.0
    return math.exp(csig * m + 0.5 * csig * csig * t) * (hi - lo)


def bs_kuo_closed_form(spec: OptionSpec) -> float:
    """Reflection-principle closed form for the Gaussian knock-up-and-out.

    The absorbed Gaussian is a drifted normal minus its reflected image
    N(w; 2b + alpha t, t) weighted by e^{2 alpha b}; both parts integrate
    against the exponential payoff in closed form.
    """
    if spec.barrier is None:
        raise ValueError("bs_kuo_closed_form requires a barrier")
    if any(spec.barrier.derivs):
        raise ValueError("closed form covers constant barriers only")
    r = spec.rates
    alpha = gaussian_drift(r)
    t, sig = r.t_n, r.sigma
    b = spec.barrier.b_n
    k = spec.log_strike()
    m0, m1 = alpha * t, 2.0 * b + alpha * t
    w_img = math.exp(2.0 * alpha * b)

    def mass(csig: float, x1: float, x2: float) -> float:
        return _gauss_exp_window(m0, csig, t, x1, x2) - w_img * _gauss_exp_window(
            m1, csig, t, x1, x2
        )

    if spec.kind == "kuo_put":
        kb = min(k, b)
        value = spec.strike * mass(0.0, -math.inf, kb) - spec.s0 * mass(sig, -math.inf, kb)
        return spec.df * value
    if k >= b:
        return 0.0
    value = spec.s0 * mass(sig, k, b) - spec.strike * mass(0.0, k, b)
    return spec.df * value


# ---------------------------- barrier-grid study --------------------------- #

@dataclass(frozen=True)
class ExperimentSlice:
    """One maturity slice of the knock-out grid study.

    ``cumulants`` is the calibrated (drift-attached) parameter set, or None
    when calibration failed for that maturity — those rows carry gap markers.
    ``strike_vols`` are the market implied vols at each strike, feeding the
    Black-Scholes comparison column.
    """

    maturity_months: int
    s0: float
    forward: float
    r_acc: float
    df: float
    strikes: tuple[float, ...]
    strike_vols: tuple[float, ...]
    cumulants: CumulantSet | None

    def __post_init__(self) -> None:
        if len(self.strikes) != len(self.strike_vols):
            raise ValueError("strikes and strike_vols must align")


def barrier_grid_experiment(
    slices: Sequence[ExperimentSlice],
    theta: Sequence[float] = (1.1, 1.2, 1.3, 1.5),
    scheme: MovingBarrierScheme = MovingBarrierScheme.ST,
    out_csv: str | Path | None = None,
) -> list[dict]:
    """Knock-up-and-out call prices over (strike, maturity, theta).

    The barrier rule keeps knock-outs out of the money at trade date:
    B = theta * K when that clears the forward, else theta * F.  Model prices
    use the calibrated density; the comparison column reprices each cell in a
    flat Black-Scholes world at the strike's market vol.
    """
    rows: list[dict] = []
    for sl in slices:
        t_n = sl.maturity_months / 12.0
        for strike, vol in zip(sl.strikes, sl.strike_vols):
            for th in theta:
                level = th * strike if th * strike > sl.forward else th * sl.forward
                bs_rates = RateSpec(sl.r_acc, t_n, vol)
                bs_spec = OptionSpec(
                    "kuo_call", sl.s0, strike, t_n, bs_rates, sl.df,
                    BarrierPath.constant(math.log(level / sl.s0) / vol),
                )
                price_bs = bs_kuo_closed_form(bs_spec)
                if sl.cumulants is None:
                    price_pi, neg = "NA", "NA"
                else:
                    c = sl.cumulants
                    spec = OptionSpec(
                        "kuo_call", sl.s0, strike, t_n, RateSpec(sl.r_acc, t_n, c.sigma),
                        sl.df, BarrierPath.constant(math.log(level / sl.s0) / c.sigma),
                    )
                    res = price_kuo_call(spec, c, scheme)
                    price_pi, neg = res.price, res.diagnostics["negative_mass"]
                rows.append(
                    {
                        "strike": strike,
                        "maturity_months": sl.maturity_months,
                        "theta": th,
                        "barrier": level,
                        "price_pi": price_pi,
                        "price_bs": price_bs,
                        "neg_mass": neg,
                    }
                )
    if out_csv is not None:
        write_experiment_csv(rows, out_csv)
    return rows


def _fmt(x) -> str:
    """12 significant digits, the precision of every number the program
    writes; strings (the "NA" gap markers) pass through."""
    return x if isinstance(x, str) else f"{x:.12g}"


def write_experiment_csv(rows: Sequence[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXPERIMENT_CSV_FIELDS)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in EXPERIMENT_CSV_FIELDS])
