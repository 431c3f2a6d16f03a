"""Independent reference densities and prices for the benchmark checks.

Nothing here imports ``nongauss``.  The expansion density is rebuilt from
its definition with ``numpy.polynomial.hermite_e``:

    Pi = sum_{n in {0, 3..N}} (-1)^n a_n D^n Pi0,
    a_n = kappa_n / n! + 1/2 sum_{i+j=n, i,j>=3} kappa_i kappa_j / (i! j!),

in the scaled coordinate omega = ln(S/s0)/sigma, started at omega = 0 with
drift alpha and horizon t.  With G(w) = N(w; alpha t, t) and z = (w - alpha t)/sqrt(t),
each omega-derivative is a Hermite polynomial: (-d/dw)^n G = t^{-n/2} He_n(z) G.

Barrier densities handled here all have the form

    Pi0(w, B) = G(w) - Q(B - w) e^{2 alpha B} G(w - 2B),

with Q = 1 for a constant barrier, Q(x) = 1 - (2S/t) x + (2S^2/t^2) x^2 for
the short-time (ST) scheme (S = sum_p (-t)^p B^(p)/p!), and Q(x) = 1 + 2 xi x
+ 2 xi^2 x^2 for the adiabatic scheme on a linear path B(t) = B0 + xi t.  The
total derivative D = d/dw + d/dB leaves B - w unchanged and maps the image
kernel e^{2 alpha B} h(w - 2B) to e^{2 alpha B} (2 alpha - d/du) h(u), so

    D^n [Q e^{2 alpha B} G(u)] = Q e^{2 alpha B} sum_k C(n,k) (2 alpha)^{n-k} t^{-k/2} He_k(z_u) G(u),

with u = w - 2B.  The adiabatic scheme on a curved path carries an Erfc
term whose argument D does not leave alone; it is not covered.

Prices integrate the payoff against this density by composite
Gauss-Legendre panels; the martingale moment uses Gauss-Hermite nodes.
The Gaussian knock-up-and-out reference is the reflection closed form in
log-price space.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite_e
from scipy.special import ndtr

MAX_ORDER = 15

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GH_X, _GH_W = hermite_e.hermegauss(120)


def expansion_order(kappas: dict[int, float]) -> int:
    """Truncation order: twice the highest non-zero cumulant order, capped at 15."""
    top = max((n for n, k in kappas.items() if k != 0.0), default=2)
    return 2 if top < 3 else min(2 * top, MAX_ORDER)


def expansion_coefficients(kappas: dict[int, float], order: int) -> np.ndarray:
    """a_0..a_order with a_0 = 1 and a_1 = a_2 = 0."""
    k = lambda n: kappas.get(n, 0.0)  # noqa: E731
    a = np.zeros(order + 1)
    a[0] = 1.0
    for n in range(3, order + 1):
        total = k(n) / math.factorial(n)
        for i in range(3, n - 2):
            total += 0.5 * k(i) * k(n - i) / (math.factorial(i) * math.factorial(n - i))
        a[n] = total
    return a


def st_prefactor(derivs: tuple[float, ...], t: float) -> tuple[float, ...]:
    """Coefficients of Q(x), x = B - w, for the ST scheme."""
    s = sum((-t) ** p * d / math.factorial(p) for p, d in enumerate(derivs, start=1))
    return (1.0, -2.0 * s / t, 2.0 * s * s / (t * t))


def adiabatic_linear_prefactor(xi: float) -> tuple[float, ...]:
    """Coefficients of Q(x), x = B - w, for the adiabatic scheme on a linear path."""
    return (1.0, 2.0 * xi, 2.0 * xi * xi)


class ExpansionDensity:
    """Cumulant-expansion density, optionally absorbed at a barrier.

    ``barrier`` is the level B at maturity in the scaled coordinate, or None
    for the free (vanilla) density; ``prefactor`` holds the coefficients of
    Q(B - w).
    """

    def __init__(
        self,
        sigma: float,
        t: float,
        alpha: float,
        kappas: dict[int, float],
        barrier: float | None = None,
        prefactor: tuple[float, ...] = (1.0,),
    ) -> None:
        self.sigma, self.t, self.alpha, self.barrier = sigma, t, alpha, barrier
        self.prefactor = np.asarray(prefactor, dtype=float)
        a = expansion_coefficients(kappas, expansion_order(kappas))
        order = len(a) - 1
        scale = t ** (-0.5 * np.arange(order + 1))
        self.free_coef = a * scale
        signed = a * (-1.0) ** np.arange(order + 1)
        image = np.zeros(order + 1)
        for k in range(order + 1):
            image[k] = sum(
                signed[n] * math.comb(n, k) * (2.0 * alpha) ** (n - k) for n in range(k, order + 1)
            )
        self.image_coef = image * scale

    def _gauss(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = (w - self.alpha * self.t) / math.sqrt(self.t)
        return z, np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi * self.t)

    def __call__(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        z, g = self._gauss(w)
        out = hermite_e.hermeval(z, self.free_coef) * g
        if self.barrier is not None:
            b = self.barrier
            zu, gu = self._gauss(w - 2.0 * b)
            q = np.polynomial.polynomial.polyval(b - w, self.prefactor)
            out = out - q * math.exp(2.0 * self.alpha * b) * hermite_e.hermeval(zu, self.image_coef) * gu
        return out

    def payoff_integral(self, lower: float, upper: float, s0: float, strike: float) -> float:
        """int_lower^upper (s0 e^{sigma w} - strike) Pi(w) dw; lower may be -inf."""
        rt = math.sqrt(self.t)
        if math.isinf(lower):
            lower = self.alpha * self.t - 40.0 * rt  # the Gaussian factor is below 1e-300 there
        if upper <= lower:
            return 0.0
        n_panels = max(1, math.ceil((upper - lower) / (0.5 * rt)))
        edges = np.linspace(lower, upper, n_panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        w = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
        weights = (half[:, None] * _GL_W[None, :]).ravel()
        payoff = s0 * np.exp(self.sigma * w) - strike
        return float(np.sum(weights * payoff * self(w)))


def kuo_call(dens: ExpansionDensity, s0: float, strike: float, df: float) -> float:
    """Knock-up-and-out call: df * int_k^B (S - K) Pi."""
    k = math.log(strike / s0) / dens.sigma
    if k >= dens.barrier:
        return 0.0
    return df * dens.payoff_integral(k, dens.barrier, s0, strike)


def kuo_put(dens: ExpansionDensity, s0: float, strike: float, df: float) -> float:
    """Knock-up-and-out put: df * int_-inf^min(k, B) (K - S) Pi."""
    k = math.log(strike / s0) / dens.sigma
    return -df * dens.payoff_integral(-math.inf, min(k, dens.barrier), s0, strike)


def martingale_residual(sigma: float, t: float, alpha: float, kappas: dict[int, float], r_acc: float) -> float:
    """e^{-r_acc} int e^{sigma w} Pi^inf(w) dw - 1 by 120-node Gauss-Hermite quadrature."""
    dens = ExpansionDensity(sigma, t, alpha, kappas)
    w = alpha * t + math.sqrt(t) * _GH_X
    vals = np.exp(sigma * w) * hermite_e.hermeval(_GH_X, dens.free_coef)
    moment = float(np.sum(_GH_W * vals)) / math.sqrt(2.0 * math.pi)
    return math.exp(-r_acc) * moment - 1.0


def reflection_kuo_call(
    s0: float, strike: float, level: float, vol: float, t: float, r_acc: float, df: float
) -> float:
    """Black-Scholes up-and-out call with a constant barrier, by reflection.

    In x = ln(S_T/s0) with drift m = r_acc - vol^2 t/2 and variance v2 = vol^2 t,
    the surviving density below h = ln(level/s0) is
    N(x; m, v2) - e^{2 m h / v2} N(x; 2h + m, v2).
    """
    if strike >= level:
        return 0.0
    v2 = vol * vol * t
    sd = math.sqrt(v2)
    m = r_acc - 0.5 * v2
    h = math.log(level / s0)
    k = math.log(strike / s0)

    def window(mean: float, tilt: float) -> float:
        # int_k^h e^{tilt x} N(x; mean, v2) dx
        shifted = mean + tilt * v2
        return math.exp(tilt * mean + 0.5 * tilt * tilt * v2) * (
            ndtr((h - shifted) / sd) - ndtr((k - shifted) / sd)
        )

    image = math.exp(2.0 * m * h / v2)
    stock = window(m, 1.0) - image * window(2.0 * h + m, 1.0)
    cash = window(m, 0.0) - image * window(2.0 * h + m, 0.0)
    return df * (s0 * stock - strike * cash)
