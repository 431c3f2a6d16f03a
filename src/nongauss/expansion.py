"""
Cumulant-expansion densities
============================

Non-Gaussian corrections enter as derivative series around the Gaussian
kernel.  With higher cumulants kappa_3..kappa_15 frozen at their horizon
values, the transition density is

    Pi = Pi0 + sum_{n=3}^{N} (-1)^n a_n D^n Pi0,

where Pi0 is the free kernel (vanilla case) or the moving-barrier composite
Pi^mb, D = d/d omega_n + d/d B_n is applied n times (on the free kernel,
which does not depend on B_n, it is d/d omega_n), and the coefficients
collect single cumulants and second-order cumulant products:

    a_n = kappa_n / n! + 1/2 sum_{i+j=n, i,j>=3} kappa_i kappa_j / (i! j!).

Products of three or more cumulants are excluded by construction, so the
order-N truncation with N <= 15 is exact for the retained content.  The
densities are signed: truncation can push them locally negative, and callers
report the negative mass instead of clipping (clipping would silently break
martingale pricing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .kernels import GaussKernelParams
from .moving_barrier import BarrierPath, MovingBarrierScheme, free_kernel_terms, pi_mb_terms
from .symbolic import DERIVATIVE_CAP, TermSum, differentiate, evaluate, merge_terms, substitute_barrier

Array = np.ndarray

__all__ = [
    "CumulantSet",
    "ExpansionCoefficients",
    "barrier_terms",
    "coefficient_terms",
    "density_barrier",
    "density_vanilla",
    "expansion_coefficients",
    "vanilla_terms",
]

MAX_EXPANSION_ORDER = DERIVATIVE_CAP  # 15


# ------------------------------ cumulant sets ------------------------------ #

@dataclass(frozen=True)
class CumulantSet:
    """Volatility, horizon, higher cumulants and (optionally) a drift.

    ``kappas[i]`` holds kappa_{i+3}; orders that are absent are zero.  The
    first two cumulants are not stored: the drift alpha plays kappa_1 and the
    Gaussian variance per unit time fixes kappa_2 = t_n.  ``alpha`` may stay
    unset until a martingale drift has been solved; densities then use zero
    drift.
    """

    sigma: float
    t_n: float
    kappas: tuple[float, ...] = ()
    alpha: float | None = None
    max_order: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappas", tuple(float(k) for k in self.kappas))
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.t_n <= 0.0:
            raise ValueError("t_n must be positive")
        if len(self.kappas) + 2 > MAX_EXPANSION_ORDER:
            raise ValueError(f"cumulants beyond order {MAX_EXPANSION_ORDER} unsupported")
        if self.max_order is not None and not (2 <= self.max_order <= MAX_EXPANSION_ORDER):
            raise ValueError("max_order must lie in [2, 15]")

    @classmethod
    def from_map(
        cls,
        sigma: float,
        t_n: float,
        kappas: dict[int, float],
        alpha: float | None = None,
        max_order: int | None = None,
    ) -> "CumulantSet":
        if kappas and (min(kappas) < 3 or max(kappas) > MAX_EXPANSION_ORDER):
            raise ValueError("cumulant orders must lie in [3, 15]")
        top = max(kappas) if kappas else 2
        flat = tuple(float(kappas.get(n, 0.0)) for n in range(3, top + 1))
        return cls(sigma, t_n, flat, alpha, max_order)

    def kappa(self, n: int) -> float:
        if n < 3 or n - 3 >= len(self.kappas):
            return 0.0
        return self.kappas[n - 3]

    @property
    def order(self) -> int:
        """Effective expansion order: doubled highest cumulant order (the
        product terms reach i+j), capped at 15, or an explicit max_order."""
        if self.max_order is not None:
            return self.max_order
        highest = 0
        for n in range(3, len(self.kappas) + 3):
            if self.kappa(n) != 0.0:
                highest = n
        if highest == 0:
            return 2
        return min(2 * highest, MAX_EXPANSION_ORDER)

    def drift(self) -> float:
        return 0.0 if self.alpha is None else self.alpha

    def with_alpha(self, alpha: float) -> "CumulantSet":
        return CumulantSet(self.sigma, self.t_n, self.kappas, float(alpha), self.max_order)


# -------------------------- expansion coefficients ------------------------- #

def coefficient_terms(n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact rational content of a_n, keyed by contributing cumulant orders.

    Keys are ``(n,)`` for the single-cumulant term kappa_n/n! and ``(i, j)``
    (i <= j, i + j = n) for the product terms; the value is the rational
    multiplier of the corresponding kappa product.
    """
    if n < 3:
        return {}
    out: dict[tuple[int, ...], Fraction] = {
        (n,): Fraction(1, math.factorial(n))
    }
    for i in range(3, n - 2):
        j = n - i
        if j < i:
            break
        frac = Fraction(1, 2 * math.factorial(i) * math.factorial(j))
        if i != j:
            frac *= 2  # (i, j) and (j, i) collapse onto the sorted key
        out[(i, j)] = frac
    return out


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficients a_3..a_order of the signed-derivative series."""

    order: int
    values: tuple[float, ...] = field(default=())

    def a(self, n: int) -> float:
        if n < 3 or n > self.order:
            return 0.0
        return self.values[n - 3]

    def as_dict(self) -> dict[int, float]:
        return {n: self.a(n) for n in range(3, self.order + 1)}


def expansion_coefficients(c: CumulantSet) -> ExpansionCoefficients:
    order = c.order
    values = []
    for n in range(3, order + 1):
        a_n = 0.0
        for key, frac in coefficient_terms(n).items():
            prod = float(frac)
            for m in key:
                prod *= c.kappa(m)
            a_n += prod
        values.append(a_n)
    return ExpansionCoefficients(order, tuple(values))


# -------------------------- derivative term tables ------------------------- #

@lru_cache(maxsize=256)
def _derivative_table(
    alpha: float,
    t: float,
    barrier: BarrierPath | None,
    scheme: MovingBarrierScheme | None,
    order: int,
) -> tuple[TermSum, ...]:
    """D^0 .. D^order of Pi0, D = d/d omega + d/d B.

    Pi0 is the free kernel when ``barrier`` is None (``scheme`` is then
    unused) and the moving-barrier composite Pi^mb otherwise.
    """
    p = GaussKernelParams(0.0, alpha, t)
    base = free_kernel_terms(p) if barrier is None else pi_mb_terms(p, barrier, scheme)
    table = [base]
    for _ in range(order):
        table.append(differentiate(table[-1], "total", 1))
    return tuple(table)


def _expansion_terms(
    c: CumulantSet, barrier: BarrierPath | None, scheme: MovingBarrierScheme | None
) -> TermSum:
    """Pi0 + sum_n (-1)^n a_n D^n Pi0, with B still symbolic."""
    coeffs = expansion_coefficients(c)
    table = _derivative_table(c.drift(), c.t_n, barrier, scheme, coeffs.order)
    terms = list(table[0].terms)
    for n in range(3, coeffs.order + 1):
        a_n = coeffs.a(n)
        if a_n != 0.0:
            terms.extend(table[n].scaled(((-1.0) ** n) * a_n).terms)
    return merge_terms(TermSum(tuple(terms), table[0].meta))


def vanilla_terms(c: CumulantSet) -> TermSum:
    """The no-barrier density Pi^inf as a TermSum."""
    return _expansion_terms(c, None, None)


def barrier_terms(
    c: CumulantSet,
    barrier: BarrierPath,
    scheme: MovingBarrierScheme = MovingBarrierScheme.ST,
) -> TermSum:
    """The barrier density as a TermSum with B already bound to barrier.b_n."""
    return substitute_barrier(_expansion_terms(c, barrier, scheme), barrier.b_n)


# ------------------------------ density values ----------------------------- #

def density_vanilla(c: CumulantSet, omega_n):
    """Non-Gaussian free density at horizon t_n, started from omega = 0."""
    return evaluate(vanilla_terms(c), omega_n)


def density_barrier(
    c: CumulantSet,
    barrier: BarrierPath | None,
    scheme: MovingBarrierScheme,
    omega_n,
):
    """Non-Gaussian density with an absorbing (possibly moving) barrier.

    ``barrier=None`` selects the infinite-barrier limit, i.e. density_vanilla.
    The absorbed region omega_n >= B_n carries zero density.
    """
    if barrier is None:
        return density_vanilla(c, omega_n)
    f = barrier_terms(c, barrier, scheme)
    w = np.asarray(omega_n, dtype=float)
    vals = np.where(w < barrier.b_n, evaluate(f, w), 0.0)
    return float(vals) if np.isscalar(omega_n) else vals
