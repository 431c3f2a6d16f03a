"""The benchmark's oracle agrees with the program, and each check catches a
1e-6 relative perturbation of a price or a parameter.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import hermite_oracle as oracle
import run
import tracing
import workloads
from nongauss import expansion, martingale, moving_barrier, pricing, symbolic

SEED = 7
ST = moving_barrier.MovingBarrierScheme.ST
ADIABATIC = moving_barrier.MovingBarrierScheme.ADIABATIC


def bump(x: float) -> float:
    return x * (1.0 + 1e-6)


# ------------------------------ oracle vs program -------------------------- #

@pytest.mark.parametrize("top", [4, 7, 8])
def test_oracle_density_matches_program(top):
    t = 0.5
    sigma, kappas = workloads.market_draw(np.random.default_rng(SEED), 6, top)
    c = expansion.CumulantSet.from_map(sigma, t, kappas)
    c = c.with_alpha(martingale.solve_drift(c, martingale.RateSpec(0.015, t, sigma)))
    assert oracle.expansion_order(kappas) == c.order
    b = 1.2
    cases = [
        (moving_barrier.BarrierPath.constant(b), ST, (1.0,)),
        (moving_barrier.BarrierPath.linear(b, 0.4), ST, oracle.st_prefactor((0.4,), t)),
        (moving_barrier.BarrierPath.polynomial(b, (0.4, -0.8)), ST, oracle.st_prefactor((0.4, -0.8), t)),
        (moving_barrier.BarrierPath.linear(b, 0.4), ADIABATIC, oracle.adiabatic_linear_prefactor(0.4)),
    ]
    w = np.linspace(-3.0, b, 301)
    for path, scheme, prefactor in cases:
        program = symbolic.evaluate(expansion.barrier_terms(c, path, scheme), w)
        reference = oracle.ExpansionDensity(sigma, t, c.alpha, kappas, b, prefactor)(w)
        assert np.max(np.abs(program - reference)) <= 1e-8 * np.max(np.abs(reference))
    free = oracle.ExpansionDensity(sigma, t, c.alpha, kappas)(w)
    assert np.max(np.abs(expansion.density_vanilla(c, w) - free)) <= 1e-12 * np.max(free)
    assert abs(oracle.martingale_residual(sigma, t, c.alpha, kappas, 0.015)) < 1e-13


def test_reflection_matches_program_closed_form():
    rates = martingale.RateSpec(0.015, 0.5, 0.2)
    for strike, level in ((90.0, 120.0), (100.0, 125.0), (110.0, 160.0)):
        spec = pricing.OptionSpec(
            "kuo_call", 100.0, strike, 0.5, rates, math.exp(-0.015),
            moving_barrier.BarrierPath.constant(math.log(level / 100.0) / 0.2),
        )
        ref = oracle.reflection_kuo_call(100.0, strike, level, 0.2, 0.5, 0.015, math.exp(-0.015))
        assert pricing.bs_kuo_closed_form(spec) == pytest.approx(ref, rel=1e-12)


# --------------------------- checks catch perturbations -------------------- #

def run_op(op: workloads.Op):
    out = op.run()
    assert op.check(out) == []
    return out


def test_kuo_grid_check_catches_perturbations():
    wl = workloads.KuoGrid(SEED)
    wl.make_inputs()
    inputs = wl.pool[1]
    rows = run_op(wl._op(inputs, "test"))
    cell = 9  # strike 3 (the 0.75-delta strike), theta 1.2
    for key in ("price_pi", "price_bs"):
        bad = [dict(r) for r in rows]
        bad[cell][key] = bump(bad[cell][key])
        assert len(wl.check(inputs, bad)) == 1
    c = inputs["slice"].cumulants
    drifted = dict(inputs, slice=dataclasses.replace(inputs["slice"], cumulants=c.with_alpha(bump(c.alpha))))
    assert any("martingale" in p for p in wl.check(drifted, rows))


def test_kuo_ladder_check_catches_perturbations():
    wl = workloads.KuoLadder(SEED)
    wl.make_inputs()
    rng = wl.rng(0)
    for scheme, curved in ((ST, True), (ADIABATIC, False), (ADIABATIC, True)):
        inputs = wl._draw(rng, 14, scheme, curved)
        alpha, calls, puts = run_op(wl._op(inputs, "test"))
        bad_calls = list(calls)
        bad_calls[4] = bump(bad_calls[4])
        problems = wl.check(inputs, alpha, bad_calls, puts)
        assert any("slope spread" in p for p in problems)
        if not (scheme is ADIABATIC and curved):
            assert any("oracle" in p for p in problems)
        if scheme is ADIABATIC and not curved:
            assert any("vs ST" in p for p in problems)
        bad_puts = list(puts)
        bad_puts[4] = bump(bad_puts[4])
        assert any("slope spread" in p for p in wl.check(inputs, alpha, calls, bad_puts))
        assert any("martingale" in p for p in wl.check(inputs, bump(alpha), calls, puts))


def test_parity_check_rejects_impossible_survival():
    strikes = np.linspace(90.0, 110.0, 5)
    for slope in (0.01, -1.5):  # survival probability -0.01 and 1.5
        problems = workloads.parity_failures(strikes, slope * strikes, 0.0 * strikes, 1.0)
        assert any("survival" in p for p in problems)


def test_calibrate_check_catches_perturbations():
    wl = workloads.Calibrate(SEED)
    wl.make_inputs()
    inputs = wl.pool[0][0]
    c_fit, report = run_op(wl._op(inputs, "test"))
    assert wl.check(inputs, c_fit, report) == []  # the refit of the same slice is bit-identical
    sigma_bumped = dataclasses.replace(c_fit, sigma=bump(c_fit.sigma))
    assert any("martingale" in p for p in wl.check(inputs, sigma_bumped, report))
    kappas = list(c_fit.kappas)
    kappas[0] = bump(kappas[0])
    kappa_bumped = dataclasses.replace(c_fit, kappas=tuple(kappas))
    assert any("refit" in p for p in wl.check(inputs, kappa_bumped, report))
    # parameter recovery is held to 0.5% / 5% by design: just past that fails
    off = dataclasses.replace(c_fit, sigma=inputs["sigma"] * (1.0 + 1.001 * workloads.SIGMA_RTOL))
    assert any(p.startswith("sigma") for p in wl.check(inputs, off, report))


# --------------------------------- harness --------------------------------- #

def test_workload_names_match_benchmark_json():
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class OneOpWorkload:
    """Rounds of one operation, which raises or fails its check if asked to."""

    def __init__(self, raises: bool = False, check_fails: bool = False) -> None:
        self.raises, self.check_fails = raises, check_fails

    def round_ops(self, r: int) -> list[workloads.Op]:
        def op_run():
            if self.raises:
                raise ValueError("broken")
            return 1

        return [workloads.Op(f"round {r}", op_run, lambda out: ["wrong"] if self.check_fails else [])]


def test_failed_operation_makes_run_incorrect():
    cleared = []
    tally = run.run_rounds(OneOpWorkload(), 0.0, lambda: cleared.append(1))
    assert (tally.attempted, tally.failed, tally.correct, tally.done[False]) == (1, 0, True, 1)
    assert cleared == [1]  # every round starts from emptied caches
    for wl in (OneOpWorkload(raises=True), OneOpWorkload(check_fails=True)):
        tally = run.run_rounds(wl, 0.0, lambda: None)
        assert (tally.attempted, tally.failed, tally.correct, tally.done[False]) == (1, 1, False, 0)


def test_tracer_records_spans_and_restores_functions():
    original = expansion.differentiate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert expansion.differentiate is not original
        tracer.begin(1)
        c = expansion.CumulantSet(0.2, 1.0, (0.01, 0.002), alpha=-0.1)
        workloads.clear_program_caches()
        expansion.vanilla_terms(c)
        tracer.finish()
    finally:
        tracer.uninstall()
    assert expansion.differentiate is original
    m = tracer.layer_metrics()
    assert m["expansion.vanilla_terms.calls"] == 1
    assert m["expansion.vanilla_terms.cold_calls"] == 1
    assert m["symbolic.differentiate.calls"] == 8  # one pass per order up to 8
