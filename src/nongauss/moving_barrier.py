"""
Deterministically moving absorbing barriers
===========================================

The absorbed Gaussian kernel admits closed correction terms when the barrier
level moves slowly in time, B(t) = B_n + sum_p B^(p) (t - t_n)^p / p!.  Two
truncations of the same expansion are implemented:

* ST scheme: the t_n >> t_i replacement inside the first-passage integrals,
  giving first- and second-order corrections proportional to the series
  S = sum_{p>=1} (-t_n)^p B^(p) / p!  and S^2 respectively.

* Adiabatic scheme: keeps only the first and second time derivatives of the
  barrier, giving three terms (a: ~B', b: ~B'' with an Erfc tail, c: ~B'^2).

For a linear barrier B(t) = B0 + xi t the two schemes coincide exactly in
their B' and (B')^2 content; with all derivatives zero both reduce to the
fixed-barrier reflection density.  The corrections are signed; the composite
density may dip locally negative, which callers surface as a diagnostic
rather than clipping.

All formulas are expressed in the (omega_n, B_n) term algebra of
``symbolic`` so that the cumulant expansion can differentiate them to high
order in both variables.  There both schemes reduce to two weights on one
image polynomial, w1 (B - w) + w2 (B - w)^2, plus the adiabatic Erfc tail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .kernels import GaussKernelParams, barrier_density_gm
from .symbolic import GaussErfTerm, LinForm, QuadExponent, TermMeta, TermSum, merge_terms

Array = np.ndarray

__all__ = [
    "BarrierPath",
    "MovingBarrierScheme",
    "free_kernel_terms",
    "gm_terms",
    "pi1_st",
    "pi2_st",
    "pi_adiabatic_terms",
    "pi_mb",
    "pi_mb_terms",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ------------------------------ barrier paths ------------------------------ #

@dataclass(frozen=True)
class BarrierPath:
    """Barrier level at maturity plus its time derivatives there.

    ``derivs[p-1]`` is the p-th time derivative B^(p) (units 1/time^p), so
    the path reconstructs as B(t) = b_n + sum_p derivs[p-1] (t - t_n)^p / p!
    A linear barrier B(t) = B0 + xi t has derivs == (xi,); a constant one
    has no nonzero derivative.
    """

    b_n: float
    derivs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "derivs", tuple(float(d) for d in self.derivs))

    @classmethod
    def constant(cls, b_n: float) -> "BarrierPath":
        return cls(b_n, ())

    @classmethod
    def linear(cls, b_n: float, xi: float) -> "BarrierPath":
        return cls(b_n, (xi,))

    @classmethod
    def polynomial(cls, b_n: float, derivs: tuple[float, ...]) -> "BarrierPath":
        return cls(b_n, tuple(derivs))

    def level(self, t, t_n: float):
        """Barrier level at time t (Taylor reconstruction around t_n)."""
        s = np.asarray(t, dtype=float) - t_n
        out = np.full_like(s, self.b_n, dtype=float)
        fact = 1.0
        power = np.ones_like(s)
        for p, d in enumerate(self.derivs, start=1):
            fact *= p
            power = power * s
            out = out + d * power / fact
        return float(out) if np.isscalar(t) else out

    def series_factor(self, t_n: float) -> float:
        """S = sum_{p>=1} (-t_n)^p B^(p) / p!  (the ST correction series)."""
        s = 0.0
        fact = 1.0
        power = 1.0
        for p, d in enumerate(self.derivs, start=1):
            fact *= p
            power *= -t_n
            s += power * d / fact
        return s

    def deriv(self, p: int) -> float:
        return self.derivs[p - 1] if p <= len(self.derivs) else 0.0

    def validate_above_start(self, omega0: float, t_n: float) -> None:
        """The contract must start un-knocked: B(t) > omega0 on [0, t_n],
        checked at 1000 evenly spaced times."""
        levels = self.level(np.linspace(0.0, t_n, 1000), t_n)
        if np.min(levels) <= omega0:
            raise ValueError(
                f"barrier path dips to {np.min(levels):.6g} <= start {omega0:.6g}"
            )


class MovingBarrierScheme(enum.Enum):
    ST = "st"
    ADIABATIC = "adiabatic"


# ------------------------- term-sum building blocks ------------------------ #

def _meta(p: GaussKernelParams) -> TermMeta:
    return TermMeta(t=p.t, alpha=p.alpha, omega0=p.omega0)


def _free_expo(p: GaussKernelParams) -> QuadExponent:
    # alpha (w - w0) - alpha^2 t / 2 - (w - w0)^2 / (2 t)
    t, a, w0 = p.t, p.alpha, p.omega0
    return QuadExponent(
        c0=-a * w0 - 0.5 * a * a * t - w0 * w0 / (2.0 * t),
        cw=a + w0 / t,
        cww=-0.5 / t,
    )


def _image_expo(p: GaussKernelParams) -> QuadExponent:
    # alpha (w - w0) - alpha^2 t / 2 - (2B - w - w0)^2 / (2 t)
    t, a, w0 = p.t, p.alpha, p.omega0
    return QuadExponent(
        c0=-a * w0 - 0.5 * a * a * t - w0 * w0 / (2.0 * t),
        cw=a - w0 / t,
        cb=2.0 * w0 / t,
        cww=-0.5 / t,
        cwb=2.0 / t,
        cbb=-2.0 / t,
    )


def free_kernel_terms(p: GaussKernelParams) -> TermSum:
    """The free Gaussian kernel as a (trivially B-independent) TermSum."""
    norm = 1.0 / (_SQRT_2PI * math.sqrt(p.t))
    return TermSum((GaussErfTerm(np.array([[norm]]), _free_expo(p)),), _meta(p))


def gm_terms(p: GaussKernelParams) -> TermSum:
    """Fixed-barrier absorbed kernel (reflection form) with B as a free variable."""
    norm = 1.0 / (_SQRT_2PI * math.sqrt(p.t))
    return TermSum(
        (
            GaussErfTerm(np.array([[norm]]), _free_expo(p)),
            GaussErfTerm(np.array([[-norm]]), _image_expo(p)),
        ),
        _meta(p),
    )


def _correction_weights(t: float, barrier: BarrierPath, scheme: MovingBarrierScheme):
    """Weights (w1, w2) of the image-Gaussian correction w1 (B - w) + w2 (B - w)^2."""
    if scheme is MovingBarrierScheme.ST:
        s1 = barrier.series_factor(t)
        return s1 * 2.0 / (_SQRT_2PI * t ** 1.5), -s1 * s1 * 2.0 / (_SQRT_2PI * t ** 2.5)
    if scheme is MovingBarrierScheme.ADIABATIC:
        # w1: the B' term (a), then the Gaussian half of the B'' term (b);
        # w2: the B'^2 term (c)
        b1, b2 = barrier.deriv(1), barrier.deriv(2)
        w1 = -_SQRT_2_OVER_PI * b1 / math.sqrt(t) + b2 * math.sqrt(t) / _SQRT_2PI
        return w1, -_SQRT_2_OVER_PI * b1 * b1 / math.sqrt(t)
    raise ValueError(f"unknown scheme {scheme}")  # pragma: no cover - enum is closed


def _erfc_tail(p: GaussKernelParams, b2: float) -> GaussErfTerm:
    """Erfc half of the adiabatic B'' correction:
    -(B''/2) (B - w)(B - w0) e^{alpha(w-w0)-alpha^2 t/2} Erfc((2B-w-w0)/sqrt(2t))."""
    t, a, w0 = p.t, p.alpha, p.omega0
    poly = -0.5 * b2 * np.array([[0.0, -w0, 1.0], [w0, -1.0, 0.0]])
    root = 1.0 / math.sqrt(2.0 * t)
    return GaussErfTerm(
        poly,
        QuadExponent(c0=-a * w0 - 0.5 * a * a * t, cw=a),
        LinForm(a0=-w0 * root, aw=-root, ab=2.0 * root),
    )


def pi_mb_terms(
    p: GaussKernelParams, barrier: BarrierPath, scheme: MovingBarrierScheme
) -> TermSum:
    """Composite moving-barrier density Pi^mb as a bivariate TermSum:

        Pi^mb = gm_terms + [w1 (B - w) + w2 (B - w)^2] e^{image exponent}
                (+ the Erfc tail of the adiabatic B'' term when B'' != 0)

    ST puts S in w1 and S^2 in w2; the adiabatic scheme puts B' and the
    Gaussian half of B'' in w1 and B'^2 in w2.  A constant path gives zero
    weights and the fixed-barrier kernel.  Evaluating the result at
    B = barrier.b_n gives the density; keeping B symbolic lets the cumulant
    expansion take barrier derivatives.
    """
    barrier.validate_above_start(p.omega0, p.t)
    base = gm_terms(p)
    w1, w2 = _correction_weights(p.t, barrier, scheme)
    poly = np.array([[0.0, w1, w2], [-w1, -2.0 * w2, 0.0], [w2, 0.0, 0.0]])
    terms = base.terms + (GaussErfTerm(poly, _image_expo(p)),)
    b2 = barrier.deriv(2)
    if scheme is MovingBarrierScheme.ADIABATIC and b2 != 0.0:
        terms += (_erfc_tail(p, b2),)
    return merge_terms(TermSum(terms, base.meta))


# ---------------------------- direct evaluations --------------------------- #

def _masked(p: GaussKernelParams, barrier: BarrierPath, omega_n, values):
    w = np.asarray(omega_n, dtype=float)
    out = np.where(w < barrier.b_n, values, 0.0)
    return float(out) if np.isscalar(omega_n) else out


def pi1_st(p: GaussKernelParams, barrier: BarrierPath, omega_n):
    """First ST correction:

    [2 (B-w) / (sqrt(2 pi) t^{3/2})] e^{-[alpha t - (2B-w0-w)]^2 / 2t}
        e^{2 alpha (w - B)} * sum_{p>=1} (-t)^p B^(p) / p!

    Zero for a constant barrier and in the absorbed region w >= B.
    """
    w = np.asarray(omega_n, dtype=float)
    b, t, a, w0 = barrier.b_n, p.t, p.alpha, p.omega0
    s1 = barrier.series_factor(t)
    y = 2.0 * b - w0 - w
    val = (
        2.0 * (b - w) / (_SQRT_2PI * t ** 1.5)
        * np.exp(-((a * t - y) ** 2) / (2.0 * t))
        * np.exp(2.0 * a * (w - b))
        * s1
    )
    return _masked(p, barrier, omega_n, val)


def pi2_st(p: GaussKernelParams, barrier: BarrierPath, omega_n):
    """Second ST correction, proportional to the squared derivative series
    (always <= 0 below the barrier)."""
    w = np.asarray(omega_n, dtype=float)
    b, t, a, w0 = barrier.b_n, p.t, p.alpha, p.omega0
    s1 = barrier.series_factor(t)
    y = 2.0 * b - w0 - w
    val = (
        -2.0 * (b - w) ** 2 / (_SQRT_2PI * t ** 2.5)
        * np.exp(-((y - a * t) ** 2) / (2.0 * t))
        * np.exp(2.0 * a * (w - b))
        * s1 * s1
    )
    return _masked(p, barrier, omega_n, val)


def pi_adiabatic_terms(p: GaussKernelParams, barrier: BarrierPath, omega_n):
    """The three adiabatic corrections (density_a, density_b, density_c).

    density_a ~ B' (odd in B'), density_b ~ B'' (carries the Erfc tail),
    density_c ~ (B')^2 (even).  Only the first two barrier derivatives are
    consulted.
    """
    w = np.asarray(omega_n, dtype=float)
    b, t, a, w0 = barrier.b_n, p.t, p.alpha, p.omega0
    b1, b2 = barrier.deriv(1), barrier.deriv(2)
    y = 2.0 * b - w0 - w
    gauss = np.exp(-((y - a * t) ** 2) / (2.0 * t)) * np.exp(2.0 * a * (w - b))
    dens_a = -_SQRT_2_OVER_PI * b1 * (b - w) / math.sqrt(t) * gauss
    dens_c = -_SQRT_2_OVER_PI * b1 * b1 * (b - w) ** 2 / math.sqrt(t) * gauss
    pref_b = (
        b2 / (2.0 * math.pi) * (b - w)
        * np.exp(2.0 * a * (w - b))
        * np.exp(a * (2.0 * b - w0 - w) - 0.5 * a * a * t)
    )
    bracket = _SQRT_2PI * math.sqrt(t) * np.exp(-(y ** 2) / (2.0 * t)) - math.pi * (
        b - w0
    ) * erfc(y / math.sqrt(2.0 * t))
    dens_b = pref_b * bracket
    return (
        _masked(p, barrier, omega_n, dens_a),
        _masked(p, barrier, omega_n, dens_b),
        _masked(p, barrier, omega_n, dens_c),
    )


def pi_mb(
    p: GaussKernelParams,
    barrier: BarrierPath,
    scheme: MovingBarrierScheme,
    omega_n,
):
    """Composite moving-barrier density: absorbed Gaussian plus scheme corrections."""
    barrier.validate_above_start(p.omega0, p.t)
    base_params = GaussKernelParams(p.omega0, p.alpha, p.t, omega_c=barrier.b_n)
    base = barrier_density_gm(base_params, omega_n)
    if scheme is MovingBarrierScheme.ST:
        corr = pi1_st(p, barrier, omega_n) + pi2_st(p, barrier, omega_n)
    else:
        a_, b_, c_ = pi_adiabatic_terms(p, barrier, omega_n)
        corr = a_ + b_ + c_
    return base + corr
