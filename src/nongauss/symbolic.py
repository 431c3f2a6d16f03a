"""
Closed term algebra for absorbed-kernel densities
=================================================

Every density handled by this package is a finite sum of terms of the form

    poly(omega, B) * exp(quadratic(omega, B)) * [Erfc(linear(omega, B))]

in the two variables omega (terminal scaled log-price) and B (barrier level
at maturity), with the horizon t, drift alpha and start omega0 frozen into
the coefficients.  The family is closed under differentiation:

    d/dx [P e^q Erfc(l)] = (P' + P q') e^q Erfc(l) - P (2/sqrt(pi)) l' e^{q - l^2}

and q - l^2 is again a quadratic form, so high-order derivatives stay exact
and cheap.  Besides the two partials, x may be the total direction
D = d/d omega + d/d B, the only derivative the cumulant expansion takes (up
to order 15).  Like terms (same exponent, same Erfc argument) are merged
after every pass.

Polynomials are dense coefficient grids poly[i, j] ~ omega^i B^j, capped at
degree 32 per variable, which is comfortable for order-15 derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Optional

import numpy as np
from scipy.special import erfc, erfcx

Array = np.ndarray

__all__ = [
    "QuadExponent",
    "LinForm",
    "GaussErfTerm",
    "TermMeta",
    "TermSum",
    "differentiate",
    "evaluate",
    "integrate_density",
    "integrate_payoff_with_stats",
    "integrate_exp_poly",
    "substitute_barrier",
    "term_sum_to_jsonable",
    "truncation_window",
]

MAX_POLY_DEGREE = 32
DERIVATIVE_CAP = 15

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_EXP_FLOOR = -745.0  # exp() underflows to 0 below this; used as the evaluation guard


class IntegrabilityError(ValueError):
    """Raised when a payoff integral over an infinite interval would diverge."""


# ------------------------------- data types -------------------------------- #

@dataclass(frozen=True)
class QuadExponent:
    """Quadratic form c0 + cw*w + cb*B + cww*w^2 + cwb*w*B + cbb*B^2."""

    c0: float = 0.0
    cw: float = 0.0
    cb: float = 0.0
    cww: float = 0.0
    cwb: float = 0.0
    cbb: float = 0.0

    def key(self) -> tuple[float, ...]:
        return (self.c0, self.cw, self.cb, self.cww, self.cwb, self.cbb)

    def value(self, w: Array, b: Array) -> Array:
        return (
            self.c0
            + self.cw * w
            + self.cb * b
            + self.cww * w * w
            + self.cwb * w * b
            + self.cbb * b * b
        )


@dataclass(frozen=True)
class LinForm:
    """Linear form a0 + aw*w + ab*B (Erfc argument)."""

    a0: float = 0.0
    aw: float = 0.0
    ab: float = 0.0

    def key(self) -> tuple[float, ...]:
        return (self.a0, self.aw, self.ab)

    def value(self, w: Array, b: Array) -> Array:
        return self.a0 + self.aw * w + self.ab * b


@dataclass(frozen=True)
class GaussErfTerm:
    """One term poly * exp(expo) * optional Erfc(erfc_arg)."""

    poly: Array  # dense (deg_w+1, deg_b+1) coefficient grid; treated as immutable
    expo: QuadExponent
    erfc_arg: Optional[LinForm] = None

    def __post_init__(self) -> None:
        p = np.atleast_2d(np.asarray(self.poly, dtype=float))
        if p.shape[0] > MAX_POLY_DEGREE + 1 or p.shape[1] > MAX_POLY_DEGREE + 1:
            raise ValueError(f"polynomial degree exceeds cap {MAX_POLY_DEGREE}: {p.shape}")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "poly", p)

    def merge_key(self) -> tuple:
        ek = self.erfc_arg.key() if self.erfc_arg is not None else None
        return (self.expo.key(), ek)


@dataclass(frozen=True)
class TermMeta:
    """Kernel constants carried along for truncation heuristics and debugging."""

    t: float
    alpha: float
    omega0: float


@dataclass(frozen=True)
class TermSum:
    """Immutable sum of GaussErfTerms; the empty sum evaluates to 0."""

    terms: tuple[GaussErfTerm, ...]
    meta: TermMeta

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "TermSum") -> "TermSum":
        if other.meta != self.meta:
            raise ValueError("cannot add TermSums with different kernel metadata")
        return merge_terms(TermSum(self.terms + other.terms, self.meta))

    def scaled(self, factor: float) -> "TermSum":
        if factor == 0.0:
            return TermSum((), self.meta)
        return TermSum(
            tuple(GaussErfTerm(t.poly * factor, t.expo, t.erfc_arg) for t in self.terms),
            self.meta,
        )


# ---------------------------- polynomial helpers --------------------------- #

def _poly_trim(p: Array) -> Array:
    """Drop all-zero trailing rows/columns (keeps at least a 1x1 grid)."""
    nz = np.nonzero(p)
    if len(nz[0]) == 0:
        return np.zeros((1, 1))
    return p[: nz[0].max() + 1, : nz[1].max() + 1]


def _poly_add(a: Array, b: Array) -> Array:
    n = max(a.shape[0], b.shape[0])
    m = max(a.shape[1], b.shape[1])
    out = np.zeros((n, m))
    out[: a.shape[0], : a.shape[1]] += a
    out[: b.shape[0], : b.shape[1]] += b
    return out


def _poly_mul_linear(p: Array, e0: float, ew: float, eb: float) -> Array:
    """Multiply poly by the linear form (e0 + ew*w + eb*B)."""
    n, m = p.shape
    out = np.zeros((n + 1, m + 1))
    if e0 != 0.0:
        out[:n, :m] += e0 * p
    if ew != 0.0:
        out[1 : n + 1, :m] += ew * p
    if eb != 0.0:
        out[:n, 1 : m + 1] += eb * p
    return _poly_trim(out)


Var = Literal["omega", "barrier", "total"]


def _poly_diff(p: Array, var: Var) -> Array:
    if var == "total":
        d_w = _poly_diff(p, "omega")
        if p.shape[1] == 1:  # no B dependence (the free kernel's whole table)
            return d_w
        return _poly_add(d_w, _poly_diff(p, "barrier"))
    if var == "omega":
        if p.shape[0] == 1:
            return np.zeros((1, 1))
        return p[1:, :] * np.arange(1, p.shape[0])[:, None]
    if p.shape[1] == 1:
        return np.zeros((1, 1))
    return p[:, 1:] * np.arange(1, p.shape[1])[None, :]


# ------------------------------- core algebra ------------------------------ #

def merge_terms(f: TermSum) -> TermSum:
    """Add polynomials of terms sharing (exponent, erfc) keys; zero the
    coefficients below 1e-300 in magnitude and drop null terms."""
    buckets: dict[tuple, list] = {}
    order: list[tuple] = []
    for term in f.terms:
        k = term.merge_key()
        if k in buckets:
            buckets[k][0] = _poly_add(buckets[k][0], term.poly)
        else:
            buckets[k] = [np.array(term.poly), term.expo, term.erfc_arg]
            order.append(k)
    out = []
    for k in order:
        poly, expo, earg = buckets[k]
        poly = _poly_trim(np.where(np.abs(poly) < 1e-300, 0.0, poly))
        if np.any(poly):
            out.append(GaussErfTerm(poly, expo, earg))
    return TermSum(tuple(out), f.meta)


def _diff_once(f: TermSum, var: Var) -> TermSum:
    out: list[GaussErfTerm] = []
    for term in f.terms:
        q = term.expo
        # d q / d var as the linear form q0 + q1*w + q2*B
        if var == "omega":
            q0, q1, q2 = q.cw, 2.0 * q.cww, q.cwb
        elif var == "barrier":
            q0, q1, q2 = q.cb, q.cwb, 2.0 * q.cbb
        else:
            q0, q1, q2 = q.cw + q.cb, 2.0 * q.cww + q.cwb, q.cwb + 2.0 * q.cbb
        main = _poly_add(_poly_diff(term.poly, var), _poly_mul_linear(term.poly, q0, q1, q2))
        out.append(GaussErfTerm(main, q, term.erfc_arg))
        l = term.erfc_arg
        if l is not None:
            l_slope = {"omega": l.aw, "barrier": l.ab, "total": l.aw + l.ab}[var]
            if l_slope != 0.0:
                # chain term: -P (2/sqrt(pi)) l' e^{q - l^2}, a pure Gaussian term
                q_new = QuadExponent(
                    q.c0 - l.a0 * l.a0,
                    q.cw - 2.0 * l.a0 * l.aw,
                    q.cb - 2.0 * l.a0 * l.ab,
                    q.cww - l.aw * l.aw,
                    q.cwb - 2.0 * l.aw * l.ab,
                    q.cbb - l.ab * l.ab,
                )
                out.append(
                    GaussErfTerm(term.poly * (-_TWO_OVER_SQRT_PI * l_slope), q_new, None)
                )
    return merge_terms(TermSum(tuple(out), f.meta))


def differentiate(f: TermSum, var: Var, order: int) -> TermSum:
    """Exact derivative of order ``order`` (at most DERIVATIVE_CAP) with
    respect to omega, the barrier level, or (``"total"``) along
    D = d/d omega + d/d B."""
    if var not in ("omega", "barrier", "total"):
        raise ValueError(f"unknown derivative variable {var!r}")
    if order < 0:
        raise ValueError(f"derivative order must be non-negative, got {order}")
    if order > DERIVATIVE_CAP:
        raise ValueError(f"derivative order {order} above cap {DERIVATIVE_CAP}")
    for _ in range(order):
        f = _diff_once(f, var)
    return f


def evaluate(f: TermSum, omega_n, b_n=0.0):
    """Numerically stable evaluation; broadcasts over omega_n / b_n arrays.

    Terms with an Erfc factor and positive argument are computed through
    erfcx (scaled complementary error function) so the Gaussian decay of
    Erfc is folded into the exponent instead of underflowing separately.
    An exponent beyond the float range overflows to inf (with numpy's
    overflow warning); it is never clamped to a finite value.
    """
    w, b = np.broadcast_arrays(np.asarray(omega_n, dtype=float), np.asarray(b_n, dtype=float))
    total = np.zeros(w.shape)
    for term in f.terms:
        pv = np.polynomial.polynomial.polyval2d(w, b, term.poly)
        q = term.expo.value(w, b)
        if term.erfc_arg is None:
            total += pv * np.where(q < _EXP_FLOOR, 0.0, np.exp(q))
        else:
            l = term.erfc_arg.value(w, b)
            with np.errstate(over="ignore", under="ignore"):
                qp = q - l * l
                pos = erfcx(np.maximum(l, 0.0)) * np.where(qp < _EXP_FLOOR, 0.0, np.exp(qp))
                neg = erfc(np.minimum(l, 0.0)) * np.where(q < _EXP_FLOOR, 0.0, np.exp(q))
            total += pv * np.where(l > 0.0, pos, neg)
    if np.isscalar(omega_n) and np.isscalar(b_n):
        return float(total)
    return total


def substitute_barrier(f: TermSum, b_n: float) -> TermSum:
    """Bind the barrier variable to a fixed level, leaving a sum in omega only."""
    out = []
    for term in f.terms:
        powers = b_n ** np.arange(term.poly.shape[1])
        poly_w = (term.poly @ powers)[:, None]
        q = term.expo
        expo = QuadExponent(
            q.c0 + q.cb * b_n + q.cbb * b_n * b_n,
            q.cw + q.cwb * b_n,
            0.0,
            q.cww,
            0.0,
            0.0,
        )
        earg = term.erfc_arg
        if earg is not None:
            earg = LinForm(earg.a0 + earg.ab * b_n, earg.aw, 0.0)
        out.append(GaussErfTerm(poly_w, expo, earg))
    return merge_terms(TermSum(tuple(out), f.meta))


# ------------------------------- integration ------------------------------- #

def _term_decays(term: GaussErfTerm, direction: float, sigma_shift: float) -> bool:
    """Does the term go to 0 fast enough as omega -> direction * inf (B bound)?"""
    if term.expo.cww < 0.0:
        return True
    if term.expo.cww > 0.0:
        return False
    if term.erfc_arg is not None and term.erfc_arg.aw * direction > 0.0:
        return True  # Erfc argument -> +inf gives Gaussian decay
    return (term.expo.cw + sigma_shift) * direction < 0.0


def truncation_window(f: TermSum, sigma_shift: float = 0.0) -> tuple[float, float]:
    """Interval outside which every term of f (times e^{sigma_shift w}) is
    negligible (14+ Gaussian sigmas); used to truncate infinite domains."""
    meta = f.meta
    spread = 14.0 * math.sqrt(meta.t)
    center = meta.omega0 + meta.alpha * meta.t
    lo = min(center, center + sigma_shift * meta.t) - spread
    hi = max(center, center + sigma_shift * meta.t) + spread
    for term in f.terms:
        for shift in (0.0, sigma_shift):
            c2 = term.expo.cww
            if c2 < 0.0:
                m = -(term.expo.cw + shift) / (2.0 * c2)
                s = math.sqrt(-0.5 / c2)
                lo = min(lo, m - 14.0 * s)
                hi = max(hi, m + 14.0 * s)
    return lo, hi


# One fixed Gauss-Legendre rule serves every finite integral of a term sum.
# The integrands are smooth on their intervals (payoff kinks sit at the
# interval ends), and 160 nodes resolve windows of up to ~40 kernel standard
# deviations to round-off.
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(160)


def integrate_density(f: TermSum, lower, upper, weight=None) -> Array:
    """Integral of weight(w) * f(w) over each finite [lower_i, upper_i] by the
    fixed rule, in one ``evaluate`` call; ``weight`` maps the (..., nodes)
    abscissae to a factor (default 1)."""
    a, b = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    half = 0.5 * (b - a)
    om = (0.5 * (b + a))[..., None] + half[..., None] * GL_NODES
    vals = evaluate(f, om)
    if weight is not None:
        vals = weight(om) * vals
    return half * np.sum(GL_WEIGHTS * vals, axis=-1)


def integrate_payoff_with_stats(
    f: TermSum, lower, upper, sigma: float, s0: float, strike
) -> tuple[float | Array, dict]:
    """Integral of (s0 e^{sigma w} - strike) * f(w) over [lower, upper].

    Infinite ends are cut at the truncation window, finite ones clipped to
    it, and the integral is the fixed Gauss-Legendre rule.  ``lower``,
    ``upper`` and ``strike`` broadcast, so a strike ladder is one call.
    ``f`` must already have its barrier variable bound.  Returns the value
    (a float for scalar input) and the number of nodes evaluated.
    """
    lower, upper, strike = np.broadcast_arrays(
        np.asarray(lower, dtype=float), np.asarray(upper, dtype=float), np.asarray(strike, dtype=float)
    )
    if np.any(lower > upper):
        raise ValueError(f"lower {lower} > upper {upper}")
    for end, direction, shift in ((upper, +1.0, sigma), (lower, -1.0, 0.0)):
        if np.any(np.isinf(end)) and not all(_term_decays(t, direction, shift) for t in f.terms):
            side = "+inf" if direction > 0.0 else "-inf"
            raise IntegrabilityError(f"payoff integral diverges: non-decaying term toward {side}")

    lo, hi = truncation_window(f, sigma)
    a, b = np.maximum(lower, lo), np.minimum(upper, hi)
    live = a < b
    value = np.zeros(a.shape)
    if np.any(live):
        k = strike[live][:, None]
        value[live] = integrate_density(
            f, a[live], b[live], lambda om: s0 * np.exp(sigma * om) - k
        )
    stats = {"n_evals": int(np.sum(live)) * GL_NODES.size}
    return (float(value) if value.ndim == 0 else value), stats


def integrate_exp_poly(f: TermSum, c: float = 0.0) -> float:
    """Exact integral of e^{c w} * f(w) over the whole real line.

    Closed form via Gaussian moments; available for Erfc-free sums with no
    barrier dependence (use substitute_barrier first).  Each term must have
    cww < 0 to be integrable.
    """
    total = 0.0
    for term in f.terms:
        if term.erfc_arg is not None:
            raise ValueError("closed-form integration requires Erfc-free terms")
        q = term.expo
        if q.cb != 0.0 or q.cwb != 0.0 or q.cbb != 0.0 or term.poly.shape[1] > 1:
            raise ValueError("closed-form integration requires the barrier variable bound")
        if not q.cww < 0.0:
            raise IntegrabilityError("non-negative quadratic coefficient: divergent integral")
        var = -0.5 / q.cww
        mean = (q.cw + c) * var
        base = math.exp(q.c0 + 0.5 * (q.cw + c) ** 2 * var) * math.sqrt(2.0 * math.pi * var)
        coeffs = term.poly[:, 0]
        # E[w^k] for N(mean, var) by the standard recursion
        moments = np.empty(len(coeffs))
        for k in range(len(coeffs)):
            if k == 0:
                moments[k] = 1.0
            elif k == 1:
                moments[k] = mean
            else:
                moments[k] = mean * moments[k - 1] + (k - 1) * var * moments[k - 2]
        total += base * float(np.dot(coeffs, moments))
    return total


# ------------------------------ serialization ------------------------------ #

def term_sum_to_jsonable(f: TermSum) -> dict:
    """Plain-dict form of a TermSum (debug dumps and golden-file tests)."""
    return {
        "meta": {"t": f.meta.t, "alpha": f.meta.alpha, "omega0": f.meta.omega0},
        "terms": [
            {
                "poly": np.asarray(t.poly).tolist(),
                "expo": list(t.expo.key()),
                "erfc": list(t.erfc_arg.key()) if t.erfc_arg is not None else None,
            }
            for t in f.terms
        ],
    }
