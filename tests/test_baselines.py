import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predlab import (
    AdversarialSource,
    CoinFlipSource,
    FiniteOrderMixture,
    KTPredictor,
    PeriodicSource,
    UniformPredictor,
    adversarial_sequence,
    dirac_kl,
    format_bits,
)
from predlab.cli import parse_predictor_spec
from predlab.core import sum_left

from conftest import predictor_battery

pasts = st.lists(st.integers(0, 1), max_size=25).map(tuple)


@pytest.mark.parametrize("spec, past", [
    ("uniform", (0, 1)), ("kt", (0, 1)), ("mix:3", (0, 1, 1)),
    ("dirac:coin:1", (1, 0)),
    ("mux:periodic:01", ()),         # live, on the shared first step
    ("mux:periodic:01", (0, 1, 0)),  # live, past the shared steps
    ("mux:periodic:0", (1, 0)),      # a dead past
])
def test_observe_refuses_symbols_other_than_0_and_1(spec, past):
    pred = parse_predictor_spec(spec, trunc=100)
    for s in past:
        pred.observe(s)
    before = pred.predict()
    for bad in (2, -1):
        with pytest.raises(ValueError, match="symbol must be 0 or 1"):
            pred.observe(bad)
    assert pred.predict() == before  # a refused symbol leaves the past as it was


def test_uniform_everywhere():
    pred = UniformPredictor()
    assert pred.conditional(()) == (0.5, 0.5)
    assert pred.conditional((1, 0, 1)) == (0.5, 0.5)


def test_uniform_loss_is_horizon():
    trace = dirac_kl(CoinFlipSource(3), UniformPredictor(), 64)
    assert float(trace.cum_kl_bits[-1]) == 64.0


def test_uniform_adversary_is_all_zeros():
    assert not adversarial_sequence(UniformPredictor(), 32).any()


def test_kt_examples():
    pred = KTPredictor()
    assert pred.conditional(()) == (0.5, 0.5)
    assert pred.conditional((1, 1, 1))[1] == pytest.approx(0.875, rel=1e-15)


def test_kt_cumulative_on_zeros():
    # brute-force product of the add-half conditionals, pinned at n=8
    n = 8
    product = 1.0
    for t in range(1, n + 1):
        product *= (t - 0.5) / t
    trace = dirac_kl(PeriodicSource("0"), KTPredictor(), n)
    assert float(trace.cum_kl_bits[-1]) == pytest.approx(-math.log2(product), abs=1e-12)
    assert float(trace.cum_kl_bits[-1]) == pytest.approx(2.3482755668919357, abs=1e-12)


@given(pasts)
@settings(max_examples=50)
def test_kt_stateless_matches_incremental(past):
    pred = KTPredictor()
    inc = pred.fresh()
    for s in past:
        inc.observe(s)
    assert inc.predict() == pred.conditional(past)
    # the add-half formula from the past's counts
    p1 = (sum(past) + 0.5) / (len(past) + 1)
    assert inc.predict() == (1.0 - p1, p1)


@given(pasts)
@settings(max_examples=50)
def test_mixture_order_zero_is_kt(past):
    mix = FiniteOrderMixture(0)
    assert mix.conditional(past) == KTPredictor().conditional(past)


def test_mixture_learns_alternation():
    src = PeriodicSource("01")
    trace = dirac_kl(src, FiniteOrderMixture(2), 1000)
    assert float(trace.cesaro_kl[-1]) < 0.05


def test_mixture_dominance():
    # cumulative mixture loss <= any component's loss plus its weight cost
    for src in (PeriodicSource("01"), CoinFlipSource(2), PeriodicSource("0")):
        for n in (50, 300):
            mix = FiniteOrderMixture(3)
            for t in range(1, n + 1):
                mix.observe(src.symbol_at(t))
            mix_loss = -mix.log2_joint()
            for k, comp_log2_joint in enumerate(mix.log2_joints):
                comp_loss = -comp_log2_joint
                assert mix_loss <= comp_loss - mix.log2_weights[k] + 1e-9


def _exact_mixture(max_order, past):
    """The mixture's and each order's probability of ``past`` as fractions:
    products of KT add-half conditionals per context (the last k symbols, or
    the whole past while shorter), mixed under the prior 2^-k normalised."""
    joints = []
    for k in range(max_order + 1):
        counts = {}
        p = Fraction(1)
        for t, s in enumerate(past):
            n = counts.setdefault(past[max(t - k, 0):t], [0, 0])
            p *= Fraction(2 * n[s] + 1, 2 * (n[0] + n[1] + 1))
            n[s] += 1
        joints.append(p)
    prior = [Fraction(1, 2**k) for k in range(max_order + 1)]
    mix = sum(w * j for w, j in zip(prior, joints)) / sum(prior)
    return mix, joints


@given(st.integers(0, 5), st.lists(st.integers(0, 1), max_size=24).map(tuple))
@settings(max_examples=80, deadline=None)
def test_mixture_matches_exact_rational_oracle(max_order, past):
    mix = FiniteOrderMixture(max_order)
    for s in past:
        mix.observe(s)
    exact, joints = _exact_mixture(max_order, past)
    p1 = _exact_mixture(max_order, past + (1,))[0] / exact
    assert mix.predict() == (pytest.approx(float(1 - p1), rel=1e-12),
                             pytest.approx(float(p1), rel=1e-12))
    assert mix.log2_joint() == pytest.approx(math.log2(exact), rel=1e-12)
    for k, joint in enumerate(joints):
        assert mix.log2_joints[k] == pytest.approx(math.log2(joint), rel=1e-12)


def _kt_conditionals(max_order, past):
    """Each order's KT P(next=1) in its context before each symbol of past
    and after the last, from counts kept per context as tuples."""
    counts = [{} for _ in range(max_order + 1)]
    out = []
    for t in range(len(past) + 1):
        out.append([(n1 + 0.5) / (n0 + n1 + 1) for n0, n1 in (
            counts[k].get(past[max(t - k, 0):t], (0, 0)) for k in range(max_order + 1))])
        if t < len(past):
            for k in range(max_order + 1):
                n = counts[k].setdefault(past[max(t - k, 0):t], [0, 0])
                n[past[t]] += 1
    return out


def _log2_terms(max_order, past, p1s):
    """log2 w_k + log2 mu_k(past[:t]) before each symbol and after the last."""
    raw = [2.0 ** (-k) for k in range(max_order + 1)]
    log2_weights = [math.log2(w / math.fsum(raw)) for w in raw]
    joints, out = [0.0] * (max_order + 1), []
    for t, p in enumerate(p1s):
        out.append([lw + j for lw, j in zip(log2_weights, joints)])
        if t < len(past):
            joints = [j + math.log2(pk if past[t] else 1.0 - pk) for j, pk in zip(joints, p)]
    return out


def _reference_mixture_predictions(max_order, past):
    """(p0, p1) before each symbol of past and after the last, by the
    mixture's formula written out plainly: linear posterior weights, rebuilt
    from the log2 terms at the start and whenever one falls below 2^-960,
    else multiplied by each order's conditional of the symbol and divided by
    the mixture's; p1 = sum g_k p_k / sum g_k, summed left to right."""
    p1s = _kt_conditionals(max_order, past)
    terms = _log2_terms(max_order, past, p1s)
    g, out = None, []
    for t, p in enumerate(p1s):
        if t:
            s = past[t - 1]
            q = [pk if s else 1.0 - pk for pk in p1s[t - 1]]
            g = [gk * qk / out[-1][s] for gk, qk in zip(g, q)]
        if g is None or min(g) < 2.0**-960:
            m = max(terms[t])
            g = [2.0 ** max(x - m, -960.0) for x in terms[t]]
        p1 = sum_left([gk * pk for gk, pk in zip(g, p)]) / sum_left(g)
        out.append((1.0 - p1, p1))
    return out


def _log_space_mixture_predictions(max_order, past):
    """The same conditionals with the posterior formed afresh each step from
    the log2 terms, shifted by their max, raised to powers of 2 and
    normalised, summed left to right: a second, independent reference."""
    p1s, out = _kt_conditionals(max_order, past), []
    for a, p in zip(_log2_terms(max_order, past, p1s), p1s):
        m = max(a)
        g = [2.0 ** (x - m) for x in a]
        total = sum_left(g)
        p1 = min(max(sum_left([gk / total * pk for gk, pk in zip(g, p)]), 0.0), 1.0)
        out.append((1.0 - p1, p1))
    return out


@given(st.integers(0, 8), st.lists(st.integers(0, 1), max_size=300).map(tuple))
@settings(max_examples=60, deadline=None)
def test_mixture_predictions_are_bit_identical_to_the_plain_formula(max_order, past):
    mix, got = FiniteOrderMixture(max_order), []
    for s in past + (None,):
        got.append(mix.predict())
        assert mix.predict() == got[-1]  # predict does no work of its own
        if s is not None:
            mix.observe(s)
    assert repr(got) == repr(_reference_mixture_predictions(max_order, past))


# SHA-256 of the first 500 adversarial symbols against mix:K, K = 0..5
MIXTURE_ADVERSARY_SHA256 = [
    "20374d6634c1bec377a751dbfe78e44aab0ceb4d189c3d9d84f118c9decae33e",
    "76e745c48a0620f62fad669d5ff768b83b642e09c4038a4179d4418936085bb3",
    "bf81d08bbce8b999ac16730d9d81af758a2fcb645749b7ded6213c7867cccd3a",
    "12a809a99975c1d5cf14dec7cf868e347826a4339ae949fde27fb06783a5467f",
    "5abbb8d806fb1baf0bab3872ff05ad49fe5caa286692ceb524b2676f039a2dc5",
    "c43e192900d78edaa038c21233061e4a0586fb778f503667e4de46cce146ee4b",
]


@pytest.mark.parametrize("max_order", range(6))
def test_mixture_adversary_is_pinned(max_order):
    x = format_bits(adversarial_sequence(FiniteOrderMixture(max_order), 500))
    digest = hashlib.sha256(x.encode()).hexdigest()
    assert digest == MIXTURE_ADVERSARY_SHA256[max_order]


# SHA-256 of the first 10,064 adversarial symbols (J + 64 at J = 1e4, the
# length theorem1 builds) against mix:K, and of the repr of the probabilities
# mix:K gave them: sums run left to right, so these hold on every Python
MIXTURE_ADVERSARY_FULL_SHA256 = {
    3: "10189c0c9d71e6506efe4e12a0c21a41bca4a75d949a29b94a31ce31aae40a4f",
    5: "a2444639c02274cf05f3121715cd31a96459f36ebc8f460f09b01520cd2cfac5",
}
MIXTURE_PICKED_PROBS_SHA256 = {
    3: "eb004375c022f0d8b3af81e69cb5985200b1f13136b43b09ba44cbb958b6f2af",
    5: "13ebaea75f72ee85009b289e16ffa36b58cc083685a99c5c363f34e149471413",
}


@pytest.mark.parametrize("max_order", sorted(MIXTURE_ADVERSARY_FULL_SHA256))
def test_mixture_adversary_is_pinned_at_theorem1_length(max_order):
    source = AdversarialSource(FiniteOrderMixture(max_order))
    x = format_bits(source.prefix_array(10064))
    digest = hashlib.sha256(x.encode()).hexdigest()
    assert digest == MIXTURE_ADVERSARY_FULL_SHA256[max_order]
    probs = repr(source.picked_probs(10064).tolist())
    assert hashlib.sha256(probs.encode()).hexdigest() == MIXTURE_PICKED_PROBS_SHA256[max_order]


@pytest.mark.parametrize("max_order", range(9))
def test_mixture_adversary_matches_the_exact_rational_adversary(max_order):
    # ties go to 0: at K = 7, step 7, the exact conditional is 1/2, which a
    # posterior normalising each weight before the sum reads as
    # 0.49999999999999994
    past = ()
    for _ in range(40):
        p1 = _exact_mixture(max_order, past + (1,))[0] / _exact_mixture(max_order, past)[0]
        past += (0 if p1 >= 1 - p1 else 1,)
    assert adversarial_sequence(FiniteOrderMixture(max_order), 40).tolist() == list(past)


def _assert_close_to_log_space(mix, past):
    """Checks each conditional along past against the log-space posterior,
    and that no weight is 0; returns the conditionals."""
    want, got = _log_space_mixture_predictions(mix.max_order, past), []
    for s, (w0, w1) in zip(past + (None,), want):
        p0, p1 = mix.predict()
        assert abs(p0 - w0) <= 1e-12 * w0 and abs(p1 - w1) <= 1e-12 * w1
        assert all(g > 0.0 for g in mix._g)
        got.append((p0, p1))
        if s is not None:
            mix.observe(s)
    return got


@pytest.mark.parametrize("max_order", [0, 1, 3, 5, 8])
def test_mixture_stays_close_to_the_log_space_posterior(max_order):
    # the theorem1 battery's length at n = 500, J = 1e4
    past = tuple(adversarial_sequence(FiniteOrderMixture(max_order), 11_322).tolist())
    _assert_close_to_log_space(FiniteOrderMixture(max_order), past)


def test_mixture_weights_rebuild_below_the_floor():
    # on 0101... order 0 loses about a bit a step to order 1, so its weight
    # passes 2^-960 near step 970 and would underflow to 0 near step 1080
    past = (0, 1) * 600
    mix = FiniteOrderMixture(1)
    got = _assert_close_to_log_space(mix, past)
    assert repr(got) == repr(_reference_mixture_predictions(1, past))
    terms = [lw + j for lw, j in zip(mix.log2_weights, mix.log2_joints)]
    assert terms[0] - terms[1] < -1100


def _assert_chain_rule(mix, past):
    """predict()[s] == 2^(log2_joint after observe(s) - log2_joint before)."""
    before = mix.log2_joint()
    for s in past:
        p = mix.predict()[s]
        mix.observe(s)
        after = mix.log2_joint()
        assert p == pytest.approx(2.0 ** (after - before), rel=1e-9)
        before = after


@pytest.mark.parametrize("max_order", range(9))
def test_mixture_chain_rule_on_long_pasts(max_order):
    # the rational oracle stops at 24 symbols; this reaches benchmark lengths
    _assert_chain_rule(FiniteOrderMixture(max_order),
                       CoinFlipSource(3).prefix_array(2000).tolist())
    x = adversarial_sequence(FiniteOrderMixture(max_order), 2000).tolist()
    _assert_chain_rule(FiniteOrderMixture(max_order), x)


def test_mixture_refuses_large_order():
    with pytest.raises(ValueError):
        FiniteOrderMixture(17)


def test_mixture_short_past_falls_back_to_full_context():
    # pasts shorter than the order use the whole past as context, so the
    # order-2 component already discriminates after one symbol
    mix = FiniteOrderMixture(2)
    p_after_one = mix.conditional((1,))
    assert p_after_one[1] > 0.5  # the order-0 component has seen the 1
    # with no observations every component is uniform
    assert FiniteOrderMixture(2).conditional(())[0] == pytest.approx(0.5, abs=1e-12)


@given(pasts)
@settings(max_examples=30, deadline=None)
def test_battery_normalization_contract(past):
    for name, pred in predictor_battery(trunc=200).items():
        p0, p1 = pred.conditional(past)
        assert p0 >= 0.0 and p1 >= 0.0, name
        assert abs((p0 + p1) - 1.0) <= 2.0**-40, name
        assert min(p0, p1) <= 0.5, name


def test_battery_determinism():
    past = (0, 1, 1, 0, 1)
    for name, pred in predictor_battery(trunc=200).items():
        assert pred.conditional(past) == pred.fresh().conditional(past), name


def test_every_baseline_loses_a_bit_per_step_on_its_adversary():
    for name, pred in predictor_battery(trunc=200).items():
        x = adversarial_sequence(pred, 50)
        probs = []
        scored = pred.fresh()
        for s in x:
            p0, p1 = scored.predict()
            probs.append(p1 if s else p0)
            scored.observe(int(s))
        assert all(p <= 0.5 for p in probs), name
