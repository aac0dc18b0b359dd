import math

import numpy as np
import pytest

from predlab import (
    AdversarialSource,
    ChainSpec,
    KTPredictor,
    MuX,
    PeriodicSource,
    UniformPredictor,
    adversarial_sequence,
    format_bits,
    log_loss_bound,
    theorem1_experiment,
)
from predlab.loss import trace_from_realized_probs

from conftest import MomentumPredictor, predictor_battery


def test_uniform_target_gives_all_zeros():
    x = adversarial_sequence(UniformPredictor(), 64)
    assert not x.any()


def test_momentum_target_hand_simulated():
    # tie at step 1 -> 0; afterwards the minority symbol flips every step,
    # so the target assigns the realized symbol probability 1 - 0.9
    source = AdversarialSource(MomentumPredictor(0.9))
    x = source.prefix_array(10)
    assert format_bits(x) == "0101010101"
    probs = source.picked_probs(10)
    assert probs[0] == 0.5
    assert probs[1:] == pytest.approx(0.1, rel=1e-12)
    losses = -np.log2(probs)
    assert losses[0] == 1.0
    assert losses[1:] == pytest.approx(math.log2(10.0), rel=1e-12)


def test_kt_target_picks_minority_and_prefix_pinned():
    source = AdversarialSource(KTPredictor())
    x = source.prefix_array(5)
    assert format_bits(x) == "01010"  # regression anchor from one run
    # each pick is the minority symbol of the past (ties -> 0)
    for t in range(5):
        past = x[:t]
        n1 = int(past.sum())
        n0 = t - n1
        assert x[t] == (1 if n1 < n0 else 0)


def test_queried_conditionals_never_exceed_half():
    for name, pred in predictor_battery(trunc=500).items():
        source = AdversarialSource(pred)
        probs = source.picked_probs(100)
        assert (probs <= 0.5).all(), name


def test_adversarial_sequence_deterministic():
    for name, pred in predictor_battery(trunc=500).items():
        a = adversarial_sequence(pred.fresh(), 80)
        b = adversarial_sequence(pred.fresh(), 80)
        assert np.array_equal(a, b), name


def test_lazy_extension_is_consistent():
    source = AdversarialSource(KTPredictor())
    head = source.prefix_array(20)
    source.symbol_at(600)  # force deep extension
    assert np.array_equal(source.prefix_array(20), head)


def test_theorem1_uniform_run():
    run = theorem1_experiment(UniformPredictor(), 200, trunc=2000,
                              predictor_spec="uniform")
    assert float(run.rho_trace.cesaro_kl[-1]) == 1.0
    assert (run.rho_trace.kl_bits == 1.0).all()
    # the all-zeros sequence is tracked with zero loss from the start
    assert float(run.mux_trace.cum_kl_bits[-1]) <= 1e-9
    assert float(run.mux_trace.cesaro_kl[-1]) <= log_loss_bound(200) / 200
    # crossover: tracking beats the target from step 3 on
    ces_mux = run.mux_trace.cesaro_kl
    ces_rho = run.rho_trace.cesaro_kl
    assert (ces_mux[2:] < ces_rho[2:]).all()


def test_theorem1_invariants_for_kt():
    run = theorem1_experiment(KTPredictor(), 300, trunc=2000, predictor_spec="kt")
    assert (run.rho_trace.kl_bits >= 1.0).all()
    assert (run.rho_trace.cesaro_kl >= 1.0).all()
    cum = run.mux_trace.cum_kl_bits
    for t in range(1, len(run.sequence) + 1):
        assert float(cum[t - 1]) <= log_loss_bound(t) + 1e-6
    assert 0.0 <= run.max_mux_width <= 1.0


@pytest.mark.parametrize("name", ["uniform", "kt", "mix:3", "mux:periodic:01"])
def test_theorem1_scores_the_tracking_measure_as_a_hand_loop(name):
    # the reference: a predict/observe loop on a fresh tracking-measure
    # predictor of the sequence built against the same target
    rho = predictor_battery(trunc=2000)[name]
    run = theorem1_experiment(rho, 200, trunc=2000, predictor_spec=name)
    source = AdversarialSource(rho)
    pred = MuX(source, ChainSpec(2000)).predictor()
    probs, widths = [], []
    for s in source.prefix_array(200).tolist():
        p0, p1 = pred.predict()
        widths.append(pred.last_interval_width)
        probs.append(p1 if s else p0)
        pred.observe(s)
    ref = trace_from_realized_probs(probs)
    for column in ("kl_bits", "abs_loss", "sq_loss"):
        got = getattr(run.mux_trace, column).tolist()
        assert list(map(repr, got)) == list(map(repr, getattr(ref, column).tolist())), column
    assert repr(run.max_mux_width) == repr(max(widths))


def test_theorem1_tracking_target_stays_scoreable():
    # a tracking-measure target is driven off its support; the uniform
    # fallback keeps it total, and its losses stay >= 1 bit (inf included)
    rho = MuX(PeriodicSource("01"), ChainSpec(500)).predictor()
    run = theorem1_experiment(rho, 60, trunc=500, predictor_spec="mux:periodic:01")
    assert (run.rho_trace.kl_bits >= 1.0).all()
    assert math.isinf(float(run.rho_trace.cum_kl_bits[-1]))
    assert float(run.mux_trace.cum_kl_bits[-1]) <= log_loss_bound(60) + 1e-6


def test_theorem1_rejects_bad_horizon():
    with pytest.raises(ValueError):
        theorem1_experiment(UniformPredictor(), 0)
