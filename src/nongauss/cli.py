"""
Command-line front end
======================

Batch interface over the library: density curves, drift cross-checks,
single-contract pricing, smile calibration, the Theta-grid knock-out
experiment, and a self-contained validation suite.  Plot emission is
data-only (CSV series); rendering is out of scope.

Every flag with a persistent meaning has a flat-JSON config-file equivalent
(--config run.json); explicit command-line flags win over the file.  The
default output directory comes from $NONGAUSS_OUT_DIR when set.  All numeric
output is printed with 12 significant digits, and JSON artifacts carry a
schema_version field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .calibration import (
    DELTA_GRID,
    RateRow,
    SmileQuote,
    bl_density,
    build_surface,
    fit_parameters,
    read_rates_csv,
    read_smile_csv,
)
from .expansion import CumulantSet, barrier_terms, vanilla_terms
from .martingale import (
    DriftSolveError,
    RateSpec,
    drift_closed_form_k15,
    gaussian_drift,
    solve_drift,
)
from .moving_barrier import BarrierPath, MovingBarrierScheme
from .oracle import McConfig, mc_kuo_price
from .pricing import (
    OptionSpec,
    _fmt,
    barrier_grid_experiment,
    bs_kuo_closed_form,
    price_kuo_call,
    price_kuo_put,
    price_vanilla,
)
from .symbolic import evaluate, term_sum_to_jsonable, truncation_window

__all__ = ["RunConfig", "build_parser", "main"]

SCHEMA_VERSION = 1


def _round12(obj):
    """Recursive 12-significant-digit rounding for JSON emission."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(_fmt(float(obj)))
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


# --------------------------------- config ---------------------------------- #

@dataclass(frozen=True)
class RunConfig:
    """Every persistent knob of a batch run, JSON-serializable and flat.

    A run re-executed from its own emitted config reproduces outputs bit for
    bit — Monte Carlo seeds included.
    """

    smile_csv: str | None = None
    rates_csv: str | None = None
    out_dir: str | None = None  # None -> $NONGAUSS_OUT_DIR or "."
    s0: float = 1.0
    max_order: int = 7
    scheme: str = "st"
    mc_paths: int = 200_000
    mc_steps: int = 64
    mc_seed: int = 0
    mc_batch: int = 50_000
    jobs: int = 1

    def resolved_out_dir(self) -> Path:
        out = self.out_dir or os.environ.get("NONGAUSS_OUT_DIR", ".")
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def mc(self) -> McConfig:
        return McConfig(self.mc_paths, self.mc_steps, self.mc_seed, self.mc_batch)


def load_config(path: str | Path) -> RunConfig:
    raw = json.loads(Path(path).read_text())
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"config {path}: unknown keys {unknown}")
    return RunConfig(**raw)


def merge_config(ns: argparse.Namespace) -> RunConfig:
    cfg = load_config(ns.config) if ns.config else RunConfig()
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(ns, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return replace(cfg, **overrides)


def _scheme(cfg: RunConfig) -> MovingBarrierScheme:
    return MovingBarrierScheme(cfg.scheme)


# ------------------------------ shared builders ----------------------------- #

def _kappas(ns: argparse.Namespace) -> tuple[float, ...]:
    return tuple(float(v) for v in ns.kappas.split(",")) if ns.kappas else ()


def _cumulant_set(ns: argparse.Namespace) -> CumulantSet:
    c = CumulantSet(ns.sigma, ns.t, _kappas(ns))
    if getattr(ns, "alpha", None) is not None:
        return c.with_alpha(ns.alpha)
    rates = RateSpec(ns.r_acc, ns.t, ns.sigma)
    return c.with_alpha(solve_drift(c, rates))


def _barrier_path(ns: argparse.Namespace, sigma: float, s0: float) -> BarrierPath | None:
    """Barrier from price-space flags: --barrier is the level at maturity,
    --barrier-drift / --barrier-curv are d/dt and d2/dt2 in omega units."""
    if ns.barrier is None or str(ns.barrier).lower() == "none":
        return None
    b_n = math.log(float(ns.barrier) / s0) / sigma
    drift = getattr(ns, "barrier_drift", 0.0) or 0.0
    curv = getattr(ns, "barrier_curv", 0.0) or 0.0
    if curv != 0.0:
        return BarrierPath.polynomial(b_n, (drift, curv))
    if drift != 0.0:
        return BarrierPath.linear(b_n, drift)
    return BarrierPath.constant(b_n)


# -------------------------------- subcommands ------------------------------- #

def cmd_density(ns: argparse.Namespace, cfg: RunConfig) -> int:
    c = _cumulant_set(ns)
    barrier = _barrier_path(ns, c.sigma, cfg.s0)
    center = c.drift() * c.t_n
    spread = 12.0 * math.sqrt(c.t_n)
    lo = ns.omega_min if ns.omega_min is not None else center - spread
    hi = ns.omega_max if ns.omega_max is not None else center + spread
    f = vanilla_terms(c) if barrier is None else barrier_terms(c, barrier, _scheme(cfg))
    cap = math.inf if barrier is None else barrier.b_n  # absorbed above the barrier
    grid = np.linspace(lo, min(hi, cap), ns.n_points)
    pi = np.where(grid < cap, evaluate(f, grid), 0.0)
    out = Path(ns.out) if ns.out else cfg.resolved_out_dir() / "density.csv"
    with open(out, "w") as fh:
        fh.write("omega,pi\n")
        for w, p in zip(grid, pi):
            fh.write(f"{_fmt(w)},{_fmt(p)}\n")
    if ns.dump_terms:
        payload = term_sum_to_jsonable(f)
        payload["schema_version"] = SCHEMA_VERSION
        Path(ns.dump_terms).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out} ({ns.n_points} points, mass {_fmt(float(np.trapezoid(pi, grid)))})")
    return 0


def cmd_drift(ns: argparse.Namespace, cfg: RunConfig) -> int:
    c = CumulantSet(ns.sigma, ns.t, _kappas(ns))
    rates = RateSpec(ns.r_acc, ns.t, ns.sigma)
    alpha_solved = solve_drift(c, rates)
    alpha_series = drift_closed_form_k15(c, rates)
    print(f"alpha_martingale   {_fmt(alpha_solved)}")
    print(f"alpha_closed_form  {_fmt(alpha_series)}")
    return 0


_KIND_MAP = {"vanilla-call": "vanilla_call", "kuo-call": "kuo_call", "kuo-put": "kuo_put"}


def cmd_price(ns: argparse.Namespace, cfg: RunConfig) -> int:
    kind = _KIND_MAP[ns.kind]
    c = _cumulant_set(ns)
    rates = RateSpec(ns.r_acc, ns.t, ns.sigma)
    df = ns.df if ns.df is not None else math.exp(-ns.r_acc)
    barrier = _barrier_path(ns, ns.sigma, cfg.s0)
    if kind != "vanilla_call" and barrier is None:
        raise ValueError(f"{ns.kind} requires --B")
    spec = OptionSpec(kind, cfg.s0, ns.strike, ns.t, rates, df, barrier)
    if kind == "vanilla_call":
        res = price_vanilla(spec, c)
    elif kind == "kuo_call":
        res = price_kuo_call(spec, c, _scheme(cfg))
    else:
        res = price_kuo_put(spec, c, _scheme(cfg))
    payload = _round12(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "s0": cfg.s0,
            "strike": ns.strike,
            "maturity": ns.t,
            "barrier": None if ns.barrier in (None, "none") else float(ns.barrier),
            "sigma": ns.sigma,
            "kappas": list(_kappas(ns)),
            "alpha": c.alpha,
            "price": res.price,
            "diagnostics": res.diagnostics,
            "params_hash": res.params_hash,
        }
    )
    text = json.dumps(payload, indent=2)
    print(text)
    if ns.out:
        Path(ns.out).write_text(text + "\n")
    return 0


def _fit_one(item):
    sl, max_order = item
    c_fit, report = fit_parameters(sl, max_order=max_order)
    return sl, c_fit, report


def _calibrate_slices(cfg: RunConfig):
    if not cfg.smile_csv or not cfg.rates_csv:
        raise ValueError("calibration needs --smile and --rates CSV paths")
    surface = build_surface(
        cfg.s0, read_smile_csv(cfg.smile_csv), read_rates_csv(cfg.rates_csv)
    )
    slices = surface.slices()
    work = [(sl, cfg.max_order) for sl in slices]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            fitted = list(pool.map(_fit_one, work))
    else:
        fitted = [_fit_one(item) for item in work]
    return fitted


def _report_payload(sl, c_fit, report, max_order: int) -> dict:
    return {
        "date": sl.date,
        "maturity_months": sl.maturity_months,
        "sigma": c_fit.sigma,
        "alpha": c_fit.alpha,
        "kappas": {str(n): c_fit.kappa(n) for n in range(3, max_order + 1)},
        "objective": report.objective,
        "density_rmse": report.density_rmse,
        "negative_mass": report.negative_mass,
        "regression": {
            "a_p": report.regression[0],
            "b_p": report.regression[1],
            "r_squared": report.regression[2],
        },
        "converged": report.converged,
        "n_evals": report.n_evals,
        "message": report.message,
    }


def cmd_calibrate(ns: argparse.Namespace, cfg: RunConfig) -> int:
    fitted = _calibrate_slices(cfg)
    out_dir = cfg.resolved_out_dir()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "slices": [_report_payload(sl, c, r, cfg.max_order) for sl, c, r in fitted],
    }
    json_path = out_dir / "calibration.json"
    json_path.write_text(json.dumps(_round12(payload), indent=2) + "\n")

    csv_path = out_dir / "calibration_summary.csv"
    kappa_cols = [f"kappa{n}" for n in range(3, cfg.max_order + 1)]
    with open(csv_path, "w") as fh:
        fh.write(
            "date,maturity_months,sigma,alpha,"
            + ",".join(kappa_cols)
            + ",objective,density_rmse,a_p,b_p,r_squared,converged\n"
        )
        for sl, c_fit, report in fitted:
            row = [
                sl.date,
                str(sl.maturity_months),
                _fmt(c_fit.sigma),
                _fmt(c_fit.alpha),
                *[_fmt(c_fit.kappa(n)) for n in range(3, cfg.max_order + 1)],
                _fmt(report.objective),
                _fmt(report.density_rmse),
                _fmt(report.regression[0]),
                _fmt(report.regression[1]),
                _fmt(report.regression[2]),
                str(report.converged).lower(),
            ]
            fh.write(",".join(row) + "\n")
    print(f"wrote {json_path} and {csv_path} ({len(fitted)} slices)")
    return 0


def cmd_experiment(ns: argparse.Namespace, cfg: RunConfig) -> int:
    from .pricing import ExperimentSlice

    fitted = _calibrate_slices(cfg)
    theta = tuple(float(v) for v in ns.theta.split(","))
    slices = [
        ExperimentSlice(
            maturity_months=sl.maturity_months,
            s0=sl.s0,
            forward=sl.forward,
            r_acc=sl.r_acc,
            df=sl.df,
            strikes=tuple(sl.strikes()),
            strike_vols=tuple(sl.vols),
            cumulants=c_fit if report.converged else None,
        )
        for sl, c_fit, report in fitted
    ]
    out_csv = cfg.resolved_out_dir() / "experiment.csv"
    rows = barrier_grid_experiment(slices, theta, _scheme(cfg), out_csv=out_csv)
    print(f"wrote {out_csv} ({len(rows)} rows)")
    return 0


# ------------------------------- validate suite ----------------------------- #

def _check_gauss_kuo() -> tuple[float, float]:
    worst = 0.0
    for sig, bb, kk in ((0.2, 1.2, 1.0), (0.4, 1.3, 0.8)):
        rates = RateSpec(0.03, 1.0, sig)
        c = CumulantSet(sig, 1.0, ()).with_alpha(gaussian_drift(rates))
        spec = OptionSpec(
            "kuo_call", 1.0, kk, 1.0, rates, math.exp(-0.03),
            BarrierPath.constant(math.log(bb) / sig),
        )
        ref = bs_kuo_closed_form(spec)
        worst = max(worst, abs(price_kuo_call(spec, c).price - ref) / ref)
    return worst, 1e-6


def _check_drift_consistency() -> tuple[float, float]:
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        c = CumulantSet(0.2, 1.0, tuple(rng.uniform(-0.05, 0.05, 4)))
        rates = RateSpec(0.05, 1.0, 0.2)
        worst = max(worst, abs(solve_drift(c, rates) - drift_closed_form_k15(c, rates)))
    return worst, 1e-8


def _check_normalization() -> tuple[float, float]:
    from scipy.integrate import quad

    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(5):
        c = CumulantSet(0.25, 1.0, tuple(rng.uniform(-0.03, 0.03, 5)), alpha=0.1)
        f = vanilla_terms(c)
        lo, hi = truncation_window(f)
        mass, _ = quad(lambda w: evaluate(f, w), lo, hi, limit=200)
        worst = max(worst, abs(mass - 1.0))
    return worst, 1e-8


def _check_mb_identity() -> tuple[float, float]:
    from .kernels import GaussKernelParams
    from .moving_barrier import pi_mb

    p = GaussKernelParams(0.0, 0.12, 1.0, 0.0)
    barrier = BarrierPath.linear(1.4, -0.2)
    grid = np.linspace(-1.5, 1.35, 40)
    st = pi_mb(p, barrier, MovingBarrierScheme.ST, grid)
    ad = pi_mb(p, barrier, MovingBarrierScheme.ADIABATIC, grid)
    return float(np.max(np.abs(st - ad))), 1e-12


def _check_flat_smile_bl() -> tuple[float, float]:
    vol, s0, r_acc = 0.25, 100.0, 0.03
    quotes = [SmileQuote("2024-01-02", 12, d, vol) for d in DELTA_GRID]
    rr = RateRow("2024-01-02", 12, r_acc, s0 * math.exp(r_acc))
    sl = build_surface(s0, quotes, [rr]).slices()[0]
    bl = bl_density(sl)
    mask = bl.interior()
    fwd = s0 * math.exp(r_acc)
    d2 = (np.log(fwd / bl.strikes) - 0.5 * vol * vol) / vol
    q_exact = np.exp(-0.5 * d2 * d2) / (math.sqrt(2.0 * math.pi) * bl.strikes * vol)
    return float(np.max(np.abs(bl.strike_density[mask] - q_exact[mask]) / q_exact[mask])), 1e-4


def _check_mc_kuo(cfg: RunConfig) -> tuple[float, float]:
    sig = 0.2
    rates = RateSpec(0.03, 1.0, sig)
    c = CumulantSet(sig, 1.0, ()).with_alpha(gaussian_drift(rates))
    spec = OptionSpec(
        "kuo_call", 1.0, 1.0, 1.0, rates, math.exp(-0.03),
        BarrierPath.constant(math.log(1.25) / sig),
    )
    mc, se = mc_kuo_price(spec, c, cfg.mc())
    exact = bs_kuo_closed_form(spec)
    return abs(mc - exact) / se, 3.0


def cmd_validate(ns: argparse.Namespace, cfg: RunConfig) -> int:
    checks = [
        ("gauss_kuo_closed_form", _check_gauss_kuo),
        ("drift_consistency", _check_drift_consistency),
        ("density_normalization", _check_normalization),
        ("moving_barrier_identity", _check_mb_identity),
        ("flat_smile_bl", _check_flat_smile_bl),
        ("mc_kuo_gauss", lambda: _check_mc_kuo(cfg)),
    ]
    results = []
    all_pass = True
    for name, fn in checks:
        t0 = time.time()
        value, tol = fn()
        passed = value <= tol
        all_pass &= passed
        results.append(
            {
                "name": name,
                "passed": passed,
                "value": value,
                "tolerance": tol,
                "seconds": time.time() - t0,
            }
        )
        print(f"{'PASS' if passed else 'FAIL'}  {name:28s} value={_fmt(value)} tol={_fmt(tol)}")
    payload = {"schema_version": SCHEMA_VERSION, "passed": all_pass, "checks": results}
    out = cfg.resolved_out_dir() / "validation.json"
    out.write_text(json.dumps(_round12(payload), indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if all_pass else 1


# --------------------------------- parser ---------------------------------- #

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (or $NONGAUSS_OUT_DIR)")
    p.add_argument("--s0", type=float, help="spot level (default 1.0)")
    p.add_argument("--scheme", choices=["st", "adiabatic"], help="moving-barrier scheme")
    p.add_argument("--max-order", dest="max_order", type=int, help="highest cumulant order")
    p.add_argument("--jobs", type=int, help="parallel calibration workers")
    p.add_argument("--mc-paths", dest="mc_paths", type=int)
    p.add_argument("--mc-steps", dest="mc_steps", type=int)
    p.add_argument("--mc-seed", dest="mc_seed", type=int)
    p.add_argument("--mc-batch", dest="mc_batch", type=int)
    p.add_argument("--smile", dest="smile_csv", help="smile CSV (date,maturity_months,delta,vol)")
    p.add_argument("--rates", dest="rates_csv", help="rates CSV (date,maturity_months,r_acc,forward)")


def _add_model_flags(p: argparse.ArgumentParser, with_rates: bool = True) -> None:
    p.add_argument("--sigma", type=float, required=True, help="annualized volatility")
    p.add_argument("--t", type=float, default=1.0, help="horizon in years")
    p.add_argument("--kappas", help="comma list kappa3,kappa4,... (orders 3 to 15)")
    if with_rates:
        p.add_argument("--r-acc", dest="r_acc", type=float, default=0.0,
                       help="accumulated rate over the horizon (r*T)")
        p.add_argument("--alpha", type=float, help="drift override; skips the martingale solve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nongauss",
        description="Non-Gaussian option pricing with absorbed cumulant-expansion densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="emit an (omega, pi) CSV density curve")
    _add_model_flags(p)
    p.add_argument("--barrier", default="none",
                   help="'none' or the barrier level at maturity in price units")
    p.add_argument("--barrier-drift", dest="barrier_drift", type=float, default=0.0,
                   help="barrier time-derivative in omega units")
    p.add_argument("--barrier-curv", dest="barrier_curv", type=float, default=0.0,
                   help="barrier second time-derivative in omega units")
    p.add_argument("--omega-min", dest="omega_min", type=float)
    p.add_argument("--omega-max", dest="omega_max", type=float)
    p.add_argument("--n-points", dest="n_points", type=int, default=2001)
    p.add_argument("--out", help="CSV path (default <out-dir>/density.csv)")
    p.add_argument("--dump-terms", dest="dump_terms",
                   help="also write the symbolic term sum as JSON (debug)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("drift", help="solved martingale drift vs the order-15 closed form")
    _add_model_flags(p, with_rates=False)
    p.add_argument("--r-acc", dest="r_acc", type=float, required=True,
                   help="accumulated rate over the horizon (r*T)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("price", help="price one contract, JSON result")
    p.add_argument("--kind", choices=sorted(_KIND_MAP), required=True)
    p.add_argument("--K", dest="strike", type=float, required=True)
    p.add_argument("--B", dest="barrier", help="barrier level at maturity (price units)")
    p.add_argument("--barrier-drift", dest="barrier_drift", type=float, default=0.0)
    p.add_argument("--barrier-curv", dest="barrier_curv", type=float, default=0.0)
    p.add_argument("--df", type=float, help="discount factor (default exp(-r_acc))")
    _add_model_flags(p)
    p.add_argument("--out", help="also write the JSON result here")
    _add_config_flags(p)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("calibrate", help="fit cumulants per maturity from smile/rates CSVs")
    _add_config_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("experiment", help="knock-out price grid over strike x maturity x theta")
    p.add_argument("--theta", default="1.1,1.2,1.3,1.5", help="comma list of barrier multiples")
    _add_config_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("validate", help="run the built-in validation suite")
    _add_config_flags(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = merge_config(ns)
        return ns.func(ns, cfg)
    except (ValueError, OSError, DriftSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
