"""
Risk-neutral drift
==================

The drift alpha is fixed by the martingale condition on the vanilla
(no-barrier) density:

    e^{-r_acc} * integral e^{sigma omega} Pi^inf(omega; alpha) d omega = 1,

with r_acc the domestic-minus-foreign accrual over the horizon (rate x time,
dimensionless).  Because every expansion term is a Gaussian times a
polynomial, the integral is evaluated in closed form and the condition is
solved by a bracketed root-find.  An independent closed-form transcription of
the fully expanded order-15 solution (exact integer coefficient table) serves
as a cross-check; the two routes must agree to solver tolerance.

Barrier contracts reuse the same drift: absorption removes mass but does not
re-define the risk-neutral measure of the underlying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .expansion import CumulantSet, expansion_coefficients, vanilla_terms
from .symbolic import integrate_exp_poly

__all__ = [
    "DriftSolveError",
    "RateSpec",
    "drift_closed_form_k15",
    "drift_from_series",
    "gaussian_drift",
    "solve_drift",
]

_FACT15 = math.factorial(15)  # 1,307,674,368,000


class DriftSolveError(RuntimeError):
    """The martingale condition has no admissible root for the cumulant set."""


@dataclass(frozen=True)
class RateSpec:
    """Accrual and horizon entering the martingale condition.

    r_acc is already multiplied by the horizon: r_acc = (r - r_f) * t_n.
    """

    r_acc: float
    t_n: float
    sigma: float

    def __post_init__(self) -> None:
        if self.t_n <= 0.0:
            raise ValueError("t_n must be positive")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


def _check_consistent(c: CumulantSet, rates: RateSpec) -> None:
    if c.t_n != rates.t_n or c.sigma != rates.sigma:
        raise ValueError(
            f"cumulant set (t={c.t_n}, sigma={c.sigma}) does not match "
            f"rate spec (t={rates.t_n}, sigma={rates.sigma})"
        )


def gaussian_drift(rates: RateSpec) -> float:
    """alpha in the pure-Gaussian limit: (r_acc - t sigma^2 / 2) / (t sigma)."""
    return (rates.r_acc - 0.5 * rates.t_n * rates.sigma ** 2) / (rates.t_n * rates.sigma)


def solve_drift(c: CumulantSet, rates: RateSpec) -> float:
    """Solve the martingale condition for alpha by bracketed root-finding.

    The moment integral is computed exactly per candidate alpha by absorbing
    e^{sigma omega} into each Gaussian term of the expansion, so the residual
    is limited only by float round-off.
    """
    _check_consistent(c, rates)
    sigma = rates.sigma

    def residual(alpha: float) -> float:
        moment = integrate_exp_poly(vanilla_terms(c.with_alpha(alpha)), sigma)
        if moment <= 0.0:
            # Far outside the admissible region the truncated density's
            # moment can go negative; steer the solver back with the sign.
            return -1e6 * (1.0 + abs(alpha))
        return math.log(moment) - rates.r_acc

    a0 = gaussian_drift(rates)
    lo, hi = a0 - 5.0, a0 + 5.0
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo * r_hi > 0.0:
        raise DriftSolveError(
            "martingale residual has no sign change on "
            f"[{lo:.6g}, {hi:.6g}]: f(lo)={r_lo:.6g}, f(hi)={r_hi:.6g}"
        )
    alpha = float(brentq(residual, lo, hi, xtol=1e-14, rtol=8.9e-16))
    check = abs(
        math.exp(-rates.r_acc) * integrate_exp_poly(vanilla_terms(c.with_alpha(alpha)), sigma)
        - 1.0
    )
    if check > 1e-10:
        raise DriftSolveError(f"drift back-substitution residual {check:.3g} exceeds 1e-10")
    return alpha


def drift_from_series(c: CumulantSet, rates: RateSpec) -> float:
    """Series shortcut for the drift at c's own truncation order.

    The moment integral factorizes as e^{sigma alpha t + sigma^2 t/2}
    (1 + sum_n a_n sigma^n), so the martingale condition inverts in closed
    form.  Agrees with solve_drift to round-off; used inside calibration
    loops where the root-find per iteration would dominate the cost.  The
    root-find remains the contractual reference implementation.
    """
    _check_consistent(c, rates)
    coeffs = expansion_coefficients(c)
    s = rates.sigma
    series = sum(coeffs.a(n) * s ** n for n in range(3, coeffs.order + 1))
    return (rates.r_acc - 0.5 * rates.t_n * s ** 2 - math.log1p(series)) / (rates.t_n * s)


def drift_closed_form_k15(c: CumulantSet, rates: RateSpec) -> float:
    """Closed-form drift for the full order-15 truncation.

    The integer table below is the fully expanded moment series
    15! * (1 + sum_n a_n sigma^n); the drift is its logarithm folded into the
    Gaussian bracket.  Transcribed verbatim as exact integers
    (1,307,674,368,000 = 15!, 217,945,728,000 = 15!/3!, ...), so this route is
    independent of the coefficient generator and the symbolic integrator.
    """
    _check_consistent(c, rates)
    s = rates.sigma
    k = c.kappa
    k3, k4, k5, k6, k7, k8 = k(3), k(4), k(5), k(6), k(7), k(8)
    k9, k10, k11, k12, k13, k14, k15 = k(9), k(10), k(11), k(12), k(13), k(14), k(15)
    series = s ** 3 * (
        217945728000 * k3
        + 10897286400 * s * (5 * k4 + k5 * s)
        + 1816214400 * (10 * k3 ** 2 + k6) * s ** 3
        + 259459200 * (35 * k3 * k4 + k7) * s ** 4
        + 32432400 * (35 * k4 ** 2 + 56 * k3 * k5 + k8) * s ** 5
        + 3603600 * (126 * k4 * k5 + 84 * k3 * k6 + k9) * s ** 6
        + 360360 * (k10 + 6 * (21 * k5 ** 2 + 35 * k4 * k6 + 20 * k3 * k7)) * s ** 7
        + 32760 * (k11 + 33 * (14 * k5 * k6 + 10 * k4 * k7 + 5 * k3 * k8)) * s ** 8
        + 2730 * (k12 + 11 * (42 * k6 ** 2 + 72 * k5 * k7 + 45 * k4 * k8 + 20 * k3 * k9)) * s ** 9
        + 210 * (k13 + 143 * (2 * k10 * k3 + 12 * k6 * k7 + 9 * k5 * k8 + 5 * k4 * k9)) * s ** 10
        + 15 * (k14 + 13 * (28 * k11 * k3 + 11 * (7 * k10 * k4 + 12 * k7 ** 2 + 21 * k8 * k6 + 14 * k5 * k9))) * s ** 11
        + (k15 + 13 * (35 * k12 * k3 + 105 * k11 * k4 + 231 * k10 * k5 + 495 * k7 * k8 + 385 * k6 * k9)) * s ** 12
    )
    return (rates.r_acc - 0.5 * rates.t_n * s ** 2 - math.log1p(series / _FACT15)) / (
        rates.t_n * s
    )
