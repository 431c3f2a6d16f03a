"""Analytical densities and option prices for non-Gaussian log-returns with
absorbing (possibly moving) barriers.

The package is organized bottom-up:

``kernels``
    Gaussian building blocks in the normalized log-price coordinate
    (free propagator, absorbed propagator, survival/CDF, hitting density).
``symbolic``
    Closed term algebra poly * exp(quadratic) * Erfc(linear) with exact
    differentiation in the terminal coordinate and in the barrier level,
    and the one fixed Gauss-Legendre rule for its finite integrals.
``moving_barrier``
    Perturbative absorbed densities for deterministically moving barriers
    (short-time and adiabatic resummations of the barrier-motion series).
``expansion``
    Cumulant-corrected densities: exact rational expansion coefficients up
    to order 15 applied as derivative operators to the Gaussian kernels.
``martingale``
    Risk-neutral drift — the martingale condition inverted in closed form,
    with admissibility checks, and an independent order-15 transcription.
``pricing``
    Vanilla and knock-up-and-out prices from the term sums, Black-Scholes
    references, and the barrier-grid experiment driver.
``oracle``
    Independent slow references: brute-force path integration, the exact
    linearly-moving-barrier density, and bridge-corrected Monte Carlo.
``calibration``
    Smile ingestion, Breeden-Litzenberger strike densities, and weighted
    least-squares recovery of (sigma, kappa_3..kappa_n) per maturity.
``cli``
    Batch subcommands (density / drift / price / calibrate / experiment /
    validate) over flat JSON run configs.
"""

from __future__ import annotations

from .calibration import (
    BlDensity,
    CalibrationReport,
    CsvFormatError,
    RateRow,
    SmileQuote,
    SmileSlice,
    SmileSurface,
    bl_density,
    build_surface,
    fit_parameters,
    implied_vol,
    read_rates_csv,
    read_smile_csv,
    synthetic_slice,
)
from .expansion import (
    MAX_EXPANSION_ORDER,
    CumulantSet,
    coefficient_terms,
    density_barrier,
    density_vanilla,
    expansion_coefficients,
    vanilla_terms,
)
from .expansion import barrier_terms as barrier_expansion_terms
from .kernels import (
    GaussKernelParams,
    LogPriceCoord,
    absorbed_cdf,
    barrier_density_gm,
    corner_density_coeff,
    free_density,
    hit_density_coeff,
    survival_probability,
)
from .martingale import (
    RateSpec,
    drift_closed_form_k15,
    drift_from_series,
    gaussian_drift,
    solve_drift,
)
from .moving_barrier import (
    BarrierPath,
    MovingBarrierScheme,
    gm_terms,
    pi_adiabatic_terms,
    pi_mb,
    pi_mb_terms,
    pi1_st,
    pi2_st,
)
from .oracle import (
    McConfig,
    brute_force_path_density,
    exact_linear_barrier_density,
    mc_kuo_price,
    mc_terminal_sample,
)
from .pricing import (
    ExperimentSlice,
    OptionSpec,
    PricingResult,
    barrier_grid_experiment,
    bs_kuo_closed_form,
    bs_vanilla,
    negative_mass,
    price_kuo_call,
    price_kuo_put,
    price_vanilla,
)
from .symbolic import (
    IntegrabilityError,
    TermSum,
    differentiate,
    evaluate,
    integrate_density,
    integrate_payoff_with_stats,
    merge_terms,
    truncation_window,
)

__all__ = [
    "BarrierPath",
    "BlDensity",
    "CalibrationReport",
    "CsvFormatError",
    "CumulantSet",
    "ExperimentSlice",
    "GaussKernelParams",
    "IntegrabilityError",
    "LogPriceCoord",
    "MAX_EXPANSION_ORDER",
    "McConfig",
    "MovingBarrierScheme",
    "OptionSpec",
    "PricingResult",
    "RateRow",
    "RateSpec",
    "SmileQuote",
    "SmileSlice",
    "SmileSurface",
    "TermSum",
    "absorbed_cdf",
    "barrier_density_gm",
    "barrier_expansion_terms",
    "barrier_grid_experiment",
    "bl_density",
    "brute_force_path_density",
    "bs_kuo_closed_form",
    "bs_vanilla",
    "build_surface",
    "coefficient_terms",
    "corner_density_coeff",
    "density_barrier",
    "density_vanilla",
    "differentiate",
    "drift_closed_form_k15",
    "drift_from_series",
    "evaluate",
    "exact_linear_barrier_density",
    "expansion_coefficients",
    "fit_parameters",
    "free_density",
    "gaussian_drift",
    "gm_terms",
    "hit_density_coeff",
    "implied_vol",
    "integrate_density",
    "integrate_payoff_with_stats",
    "mc_kuo_price",
    "mc_terminal_sample",
    "merge_terms",
    "negative_mass",
    "pi_adiabatic_terms",
    "pi_mb",
    "pi_mb_terms",
    "pi1_st",
    "pi2_st",
    "price_kuo_call",
    "price_kuo_put",
    "price_vanilla",
    "read_rates_csv",
    "read_smile_csv",
    "solve_drift",
    "survival_probability",
    "synthetic_slice",
    "truncation_window",
    "vanilla_terms",
]

__version__ = "0.1.0"
