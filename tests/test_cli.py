"""Batch interface: subcommand wiring, config/override precedence, output
formats.  Everything runs in-process through main(argv) so exit codes and
stdout are asserted directly."""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np
import pytest

from nongauss.cli import RunConfig, load_config, main, merge_config
from nongauss.expansion import CumulantSet
from nongauss.martingale import RateSpec, solve_drift
from nongauss.calibration import synthetic_slice


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    d = tmp_path / "out"
    monkeypatch.setenv("NONGAUSS_OUT_DIR", str(d))
    return d


def _write_market(tmp_path, months=12, sigma=0.22, kappas=(0.06, -0.02), r=0.03):
    t_n = months / 12.0
    c = CumulantSet(sigma, t_n, kappas)
    c = c.with_alpha(solve_drift(c, RateSpec(r * t_n, t_n, sigma)))
    quotes, rr = synthetic_slice(c, s0=100.0, r_acc=r * t_n, maturity_months=months)
    smile = tmp_path / "smile.csv"
    with open(smile, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "maturity_months", "delta", "vol"])
        for q in quotes:
            w.writerow([q.date, q.maturity_months, q.delta, f"{q.vol:.12g}"])
    rates = tmp_path / "rates.csv"
    with open(rates, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "maturity_months", "r_acc", "forward"])
        w.writerow([rr.date, rr.maturity_months, f"{rr.r_acc:.12g}", f"{rr.forward:.12g}"])
    return smile, rates, c


# --------------------------------- config ---------------------------------- #

def test_config_file_and_flag_precedence(tmp_path, outdir):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"s0": 50.0, "max_order": 9, "mc_seed": 4}))
    cfg = load_config(str(cfg_path))
    assert cfg.s0 == 50.0 and cfg.max_order == 9 and cfg.mc_seed == 4
    # a flag beats the file; unset flags leave the file values alone
    import argparse

    ns = argparse.Namespace(config=str(cfg_path), s0=75.0)
    merged = merge_config(ns)
    assert merged.s0 == 75.0 and merged.max_order == 9 and merged.mc_seed == 4


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"s0": 50.0, "spline_kind": "quintic"}))
    with pytest.raises(ValueError):
        load_config(str(cfg_path))


def test_unknown_config_key_exits_2(tmp_path, outdir, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"not_a_knob": 1}))
    rc = main(["drift", "--config", str(cfg_path), "--sigma", "0.2", "--r-acc", "0.05"])
    assert rc == 2
    assert "not_a_knob" in capsys.readouterr().err


# the payoff integral is a fixed rule: its former tolerance knob is gone from
# both the flags and the config file, and naming it fails loudly
def test_removed_quad_tol_flag_exits_2(outdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--kind", "vanilla-call", "--sigma", "0.2", "--r-acc", "0.05",
              "--K", "1.0", "--quad-tol", "1e-9"])
    assert exc.value.code == 2
    assert "--quad-tol" in capsys.readouterr().err


def test_removed_quad_tol_config_key_exits_2(tmp_path, outdir, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"quad_tol": 1e-9}))
    rc = main(["price", "--kind", "vanilla-call", "--sigma", "0.2", "--r-acc", "0.05",
               "--K", "1.0", "--config", str(cfg_path)])
    assert rc == 2
    assert "quad_tol" in capsys.readouterr().err


def test_out_dir_env_var_is_honored(outdir, capsys):
    rc = main(["density", "--sigma", "0.2", "--kappa3", "0.05", "--r-acc", "0.05"])
    assert rc == 0
    assert (outdir / "density.csv").exists()


def test_run_config_defaults_round_trip():
    cfg = RunConfig()
    assert cfg.mc().n_paths == cfg.mc_paths
    assert cfg.scheme == "st"


# ---------------------------------- drift ---------------------------------- #

def test_drift_prints_gaussian_value_twice(outdir, capsys):
    rc = main(["drift", "--sigma", "0.2", "--t", "1", "--r-acc", "0.05"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    vals = [float(l.split()[-1]) for l in lines]
    assert len(vals) == 2
    assert vals[0] == pytest.approx(0.15, abs=1e-12)
    assert vals[1] == pytest.approx(0.15, abs=1e-12)


def test_drift_routes_agree_with_skew(outdir, capsys):
    rc = main(
        ["drift", "--sigma", "0.2", "--t", "1", "--r-acc", "0.05",
         "--kappas", "0.05,-0.02"]
    )
    assert rc == 0
    vals = [float(l.split()[-1]) for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert vals[0] == pytest.approx(vals[1], abs=1e-8)


# a skew so large that the martingale condition has no root near the
# Gaussian drift: the solve fails and the command exits 2, not a traceback
NO_DRIFT_ROOT = ["--sigma", "0.2", "--t", "0.01", "--kappa3", "10", "--r-acc", "0"]


def test_drift_without_root_exits_2(outdir, capsys):
    rc = main(["drift", *NO_DRIFT_ROOT])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no sign change" in err


# --------------------------------- density --------------------------------- #

def test_density_gaussian_mass_is_one(outdir, capsys):
    rc = main(["density", "--sigma", "0.2", "--kappa3", "0", "--barrier", "none",
               "--r-acc", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    mass = float(re.search(r"mass ([-\d.eE+]+)", out).group(1))
    assert mass == pytest.approx(1.0, abs=1e-8)
    with open(outdir / "density.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "pi"]
    assert len(rows) == 2002


def test_density_with_barrier_and_term_dump(outdir, capsys):
    rc = main(["density", "--sigma", "0.2", "--kappa3", "0.04", "--barrier", "1.2",
               "--r-acc", "0.05", "--dump-terms", str(outdir / "terms.json")])
    assert rc == 0
    payload = json.loads((outdir / "terms.json").read_text())
    assert payload["schema_version"] == 1
    assert len(payload["terms"]) >= 1
    data = np.loadtxt(outdir / "density.csv", delimiter=",", skiprows=1)
    b_n = math.log(1.2) / 0.2
    assert np.all(data[:, 0] <= b_n + 1e-12)
    mass = float(re.search(r"mass ([-\d.eE+]+)", capsys.readouterr().out).group(1))
    assert 0.0 < mass < 1.0  # absorbed


# ---------------------------------- price ---------------------------------- #

def test_price_knocked_at_trade_date_is_zero(outdir, capsys):
    rc = main(["price", "--kind", "kuo-call", "--sigma", "0.2", "--t", "1",
               "--r-acc", "0.05", "--K", "1.2", "--B", "1.1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["price"] == 0.0
    assert payload["schema_version"] == 1


def test_price_vanilla_json_and_file(tmp_path, outdir, capsys):
    out_json = tmp_path / "p.json"
    rc = main(["price", "--kind", "vanilla-call", "--sigma", "0.2", "--t", "1",
               "--r-acc", "0.05", "--s0", "100", "--K", "105",
               "--out", str(out_json)])
    assert rc == 0
    shown = json.loads(capsys.readouterr().out)
    saved = json.loads(out_json.read_text())
    assert shown == saved
    assert shown["price"] == pytest.approx(8.021352235143, rel=1e-9)
    # values are emitted at 12 significant digits
    assert shown["price"] == float(f"{shown['price']:.12g}")


def test_price_moving_barrier_below_fixed(outdir, capsys):
    argv = ["price", "--kind", "kuo-call", "--sigma", "0.2", "--t", "1",
            "--r-acc", "0.05", "--s0", "100", "--K", "100", "--B", "125"]
    assert main(argv) == 0
    fixed = json.loads(capsys.readouterr().out)["price"]
    assert main(argv + ["--barrier-drift", "0.4"]) == 0
    rising = json.loads(capsys.readouterr().out)["price"]
    assert rising < fixed


def test_price_rejects_bad_kind(outdir, capsys):
    with pytest.raises(SystemExit):  # argparse rejects the choice
        main(["price", "--kind", "lookback", "--sigma", "0.2", "--K", "1"])


def test_price_without_drift_root_exits_2(outdir, capsys):
    rc = main(["price", "--kind", "vanilla-call", "--K", "1.0", *NO_DRIFT_ROOT])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no sign change" in err


# -------------------------------- calibrate -------------------------------- #

def test_calibrate_end_to_end(tmp_path, outdir, capsys):
    smile, rates, truth = _write_market(tmp_path)
    rc = main(["calibrate", "--smile", str(smile), "--rates", str(rates),
               "--s0", "100"])
    assert rc == 0
    payload = json.loads((outdir / "calibration.json").read_text())
    assert payload["schema_version"] == 1
    (sl,) = payload["slices"]
    assert sl["converged"] is True
    assert sl["sigma"] == pytest.approx(0.22, rel=5e-3)
    assert sl["kappas"]["3"] == pytest.approx(0.06, rel=0.05)
    assert sl["kappas"]["4"] == pytest.approx(-0.02, rel=0.05)

    with open(outdir / "calibration_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["maturity_months"] == "12"
    assert float(rows[0]["r_squared"]) >= 0.9999


def test_calibrate_missing_csv_exits_2(outdir, capsys):
    rc = main(["calibrate", "--smile", "no_such.csv", "--rates", "also_no.csv"])
    assert rc == 2
    assert capsys.readouterr().err != ""


def test_calibrate_without_admissible_fit_exits_2(tmp_path, outdir, capsys):
    smile = tmp_path / "smile.csv"
    smile.write_text(
        "date,maturity_months,delta,vol\n"
        + "".join(f"2024-01-02,12,{d},0.005\n" for d in (0.1, 0.25, 0.5, 0.75, 0.9))
    )
    rates = tmp_path / "rates.csv"
    rates.write_text("date,maturity_months,r_acc,forward\n2024-01-02,12,0.03,103.0454534\n")
    rc = main(["calibrate", "--smile", str(smile), "--rates", str(rates), "--s0", "100"])
    assert rc == 2
    assert "no admissible parameter set" in capsys.readouterr().err


# -------------------------------- experiment ------------------------------- #

def test_experiment_writes_grid(tmp_path, outdir, capsys):
    smile, rates, _ = _write_market(tmp_path)
    rc = main(["experiment", "--smile", str(smile), "--rates", str(rates),
               "--s0", "100", "--theta", "1.2,1.5"])
    assert rc == 0
    with open(outdir / "experiment.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10  # 5 strikes x 2 theta
    assert {r["theta"] for r in rows} == {"1.2", "1.5"}
    for r in rows:
        assert float(r["barrier"]) >= 1.2 * min(float(r["strike"]), 1e18) - 1e-9
        assert float(r["price_pi"]) >= 0.0 and float(r["price_bs"]) >= 0.0


# --------------------------------- validate -------------------------------- #

def test_validate_passes_and_reports(outdir, capsys):
    rc = main(["validate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 6 and "FAIL" not in out
    payload = json.loads((outdir / "validation.json").read_text())
    assert payload["passed"] is True
    assert all(chk["passed"] for chk in payload["checks"])
