"""
Risk-neutral drift
==================

The drift alpha is fixed by the martingale condition on the vanilla
(no-barrier) density:

    e^{-r_acc} * integral e^{sigma omega} Pi^inf(omega; alpha) d omega = 1,

with r_acc the domestic-minus-foreign accrual over the horizon (rate x time,
dimensionless).  Because every expansion term is a Gaussian times a
polynomial, the moment factorizes as

    e^{sigma alpha t + sigma^2 t / 2} (1 + sum_n a_n sigma^n),

whose logarithm is affine in alpha, so the condition inverts in closed form.
The independent references are a transcription of the fully expanded
order-15 solution (exact integer coefficient table) and, in the tests,
quadrature of the moment integral.

Barrier contracts reuse the same drift: absorption removes mass but does not
re-define the risk-neutral measure of the underlying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """The martingale condition has no admissible solution for the cumulant set."""


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
    """The martingale drift, checked: drift_from_series when it is admissible.

    Raises DriftSolveError when the moment factor 1 + sum_n a_n sigma^n is
    not positive (the truncated density has no positive exponential
    moment), when alpha lies more than 5 from the Gaussian drift, or when
    the exact moment integral at alpha misses the accrual factor by more
    than 1e-10.
    """
    _check_consistent(c, rates)
    try:
        alpha = drift_from_series(c, rates)
    except ValueError as exc:  # log1p of a moment factor <= 0
        raise DriftSolveError(
            "moment factor 1 + sum a_n sigma^n is not positive; no drift makes "
            "the truncated density a martingale"
        ) from exc
    a0 = gaussian_drift(rates)
    lo, hi = a0 - 5.0, a0 + 5.0
    if not lo <= alpha <= hi:
        # the log-moment residual is exactly sigma t (a - alpha)
        scale = rates.sigma * rates.t_n
        raise DriftSolveError(
            "martingale residual has no sign change on "
            f"[{lo:.6g}, {hi:.6g}]: f(lo)={scale * (lo - alpha):.6g}, "
            f"f(hi)={scale * (hi - alpha):.6g}"
        )
    check = abs(
        math.exp(-rates.r_acc)
        * integrate_exp_poly(vanilla_terms(c.with_alpha(alpha)), rates.sigma)
        - 1.0
    )
    if check > 1e-10:
        raise DriftSolveError(f"drift back-substitution residual {check:.3g} exceeds 1e-10")
    return alpha


def drift_from_series(c: CumulantSet, rates: RateSpec) -> float:
    """Closed-form drift at c's own truncation order.

    The moment integral factorizes as e^{sigma alpha t + sigma^2 t/2}
    (1 + sum_n a_n sigma^n), so the martingale condition inverts exactly.
    Unchecked (math.log1p raises ValueError when the factor is not
    positive); solve_drift wraps it with the admissibility checks.
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
