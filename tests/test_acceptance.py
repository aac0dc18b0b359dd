"""Acceptance gate: one test per exit criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np
import pytest

from predlab import (
    PI1,
    ChainSpec,
    CoinFlipSource,
    FiniteOrderMixture,
    KTPredictor,
    MuX,
    PeriodicSource,
    UniformPredictor,
    adversarial_sequence,
    brute_force_marginal,
    dirac_kl,
    mean_return_time,
    return_prob_partial_sum,
    stationary_weight,
    stationarity_window_check,
    theorem1_experiment,
)
from predlab.cli import parse_predictor_spec, parse_source_spec

from conftest import corpus_sources

J_DEFAULT = 10_000
HORIZON = 500


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_adversarial_runs_cost_a_bit_per_step():
    # every target loses >= 1 bit at every step (exact), Cesaro >= 1 at every
    # horizon, under one minute per predictor at the default truncation
    specs = ["uniform", "kt", "mix:3", "mux:periodic:01"]
    for spec in specs:
        rho = parse_predictor_spec(spec, trunc=J_DEFAULT)
        start = time.monotonic()
        run = theorem1_experiment(rho, HORIZON, trunc=J_DEFAULT,
                                  predictor_spec=spec)
        elapsed = time.monotonic() - start
        assert (run.rho_trace.kl_bits >= 1.0).all(), spec
        assert (run.rho_trace.cesaro_kl >= 1.0).all(), spec
        assert elapsed < 60.0, (spec, elapsed)
    _report("1 (adversarial per-step KL >= 1 for uniform/kt/mix:3/mux)")


def test_criterion_2_tracking_measure_is_consistent_on_corpus():
    start = time.monotonic()
    t = np.arange(1, HORIZON + 1, dtype=np.float64)
    bound = -math.log2(PI1) + 2.0 * np.log2(t + 1.0)
    for src in corpus_sources():
        mux = MuX(src, ChainSpec(J_DEFAULT))
        trace = dirac_kl(src, mux.predictor(), HORIZON)
        assert (trace.cum_kl_bits <= bound + 1e-6).all(), src.spec
        assert float(trace.cesaro_kl[-1]) <= 0.0415, src.spec
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, elapsed
    _report("2 (cumulative tracking loss under -log2(pi1) + 2 log2(n+1))")


def test_criterion_3_chain_constants():
    assert stationary_weight(1) == pytest.approx(0.6079271, abs=1e-5)
    assert stationary_weight(1) == pytest.approx(6.0 / math.pi**2, rel=1e-14)
    partial, remainder = mean_return_time(10**4)
    limit = 1.6449341
    assert partial <= limit <= partial + remainder
    assert abs(partial + remainder / 2.0 - limit) <= 1e-4
    assert abs(return_prob_partial_sum(10**4) - 1.0) <= 1e-7
    _report("3 (pi1 = 6/pi^2, mean return time pi^2/6, recurrence sum -> 1)")


def test_criterion_4_forward_equals_brute_force():
    rng = np.random.default_rng(20260810)
    specs = ["coin:11", "coin:12", "coin:13", "periodic:01", "periodic:0",
             "periodic:011", "champernowne"]
    for case in range(200):
        spec = specs[int(rng.integers(len(specs)))]
        src = parse_source_spec(spec)
        j0 = int(rng.integers(3, 51))
        n = int(rng.integers(1, 13))
        if rng.random() < 0.5:
            y = tuple(int(b) for b in src.prefix(n))  # on-support query
        else:
            y = tuple(int(b) for b in rng.integers(0, 2, size=n))
        mux = MuX(src, ChainSpec(j0))
        bf = brute_force_marginal(mux, y, j0)
        lower = mux.marginal(y).lower_prob
        if bf == 0.0 and lower == 0.0:
            continue
        assert abs(bf - lower) / max(bf, lower) <= 1e-12, (spec, y, j0)
    _report("4 (forward marginal == path enumeration, 200 cases, 1e-12)")


def test_criterion_5_marginal_spot_value():
    mux = MuX(PeriodicSource("01"), ChainSpec(J_DEFAULT))
    interval = mux.marginal((0,))
    assert interval.contains(0.75)
    assert interval.width <= PI1 / J_DEFAULT
    _report("5 (mu_x(y1=0) encloses 3/4 with width <= pi1/J)")


def test_criterion_6_ergodicity_and_stationarity():
    mux = MuX(PeriodicSource("01"), ChainSpec(100))
    traj = mux.sample_trajectory(10**6, seed=2026)
    freq0 = 1.0 - float(np.mean(traj))
    assert freq0 == pytest.approx(0.75, abs=0.01)
    for word, fa, fb, se in stationarity_window_check(traj, 3, 1, 50):
        assert abs(fa - fb) <= 3.0 * se + 1e-12, word
    _report("6 (trajectory freq('0') = 0.75 +/- 0.01; windows stationary)")


def test_criterion_7_property_suites():
    rng = np.random.default_rng(7)

    # predictor normalization across the battery on random pasts
    battery = {
        "uniform": UniformPredictor(),
        "kt": KTPredictor(),
        "mix:3": FiniteOrderMixture(3),
        "mux:periodic:01": MuX(PeriodicSource("01"), ChainSpec(1000)).predictor(),
    }
    for _ in range(25):
        past = tuple(int(b) for b in rng.integers(0, 2, size=int(rng.integers(0, 20))))
        for name, pred in battery.items():
            p0, p1 = pred.conditional(past)
            assert abs((p0 + p1) - 1.0) <= 2.0**-40, name

    # chain-rule identity at the stated tolerance
    src = PeriodicSource("0110")
    n = 1000
    trace = dirac_kl(src, KTPredictor(), n)
    zeros = sum(1 - s for s in src.prefix(n))
    ones = n - zeros
    log2_joint = (
        math.fsum(math.log2(i + 0.5) for i in range(zeros))
        + math.fsum(math.log2(i + 0.5) for i in range(ones))
        - math.fsum(math.log2(t + 1.0) for t in range(n))
    )
    assert abs(float(trace.cum_kl_bits[-1]) + log2_joint) <= 1e-9

    # enclosure soundness under truncation refinement
    src = CoinFlipSource(21)
    y = tuple(int(b) for b in src.prefix(6))
    coarse_mux = MuX(src, ChainSpec(40))
    fine_mux = MuX(src, ChainSpec(400))
    coarse, fine = coarse_mux.marginal(y), fine_mux.marginal(y)
    assert fine.width * 9.0 <= coarse.width
    bf = brute_force_marginal(coarse_mux, y, 40)
    assert coarse.lower_prob - 1e-15 <= bf <= coarse.upper_prob + 1e-15
    assert bf <= fine.upper_prob + 1e-15

    # mixture dominance
    mix = FiniteOrderMixture(3)
    for t in range(1, 301):
        mix.observe(src.symbol_at(t))
    for k, comp_log2_joint in enumerate(mix.log2_joints):
        assert -mix.log2_joint() <= -comp_log2_joint - mix.log2_weights[k] + 1e-9

    # adversary determinism: bit-identical sequences across runs
    for name, pred in battery.items():
        a = adversarial_sequence(pred.fresh(), 120)
        b = adversarial_sequence(pred.fresh(), 120)
        assert np.array_equal(a, b), name

    _report("7 (normalization, chain rule, enclosure refinement, dominance, determinism)")
