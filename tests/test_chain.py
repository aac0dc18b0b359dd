import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predlab import (
    PI1,
    ChainSpec,
    first_return_prob,
    mean_return_time,
    return_prob_partial_sum,
    sample_path,
    stationary_weight,
    transition_prob,
)
from predlab import chain
from predlab.chain import sample_stationary_state

from conftest import pin_start

PI_SQ_OVER_6 = math.pi**2 / 6.0


def test_transition_prob_values():
    assert transition_prob(1) == 0.25
    assert transition_prob(2) == pytest.approx(4.0 / 9.0, rel=1e-15)
    assert transition_prob(10) == pytest.approx(100.0 / 121.0, rel=1e-15)


def test_transition_prob_domain():
    with pytest.raises(ValueError):
        transition_prob(0)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=50)
def test_transition_prob_increases_toward_one(j):
    p = transition_prob(j)
    assert 0.0 < p < 1.0
    assert p < transition_prob(j + 1)
    assert 1.0 - p <= 2.0 / (j + 1)  # p_j -> 1


def test_first_return_values():
    assert first_return_prob(1) == 0.75
    assert first_return_prob(2) == pytest.approx(5.0 / 36.0, rel=1e-15)
    assert first_return_prob(3) == pytest.approx(7.0 / 144.0, rel=1e-15)
    with pytest.raises(ValueError):
        first_return_prob(0)


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=40)
def test_first_return_equals_stay_product(n):
    # f(n) = (1 - p_n) * prod_{i<n} p_i, the product telescoping to 1/n^2
    product = 1.0
    for i in range(1, n):
        product *= transition_prob(i)
    expect = (1.0 - transition_prob(n)) * product
    assert first_return_prob(n) == pytest.approx(expect, rel=1e-13)


def test_return_partial_sum_telescopes():
    for N in (1, 10, 1000):
        assert return_prob_partial_sum(N) == pytest.approx(
            1.0 - 1.0 / (N + 1) ** 2, rel=1e-13
        )


def test_return_partial_sum_near_one_at_1e4():
    assert abs(return_prob_partial_sum(10**4) - 1.0) < 1e-7


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_partial_sums_in_blocks_equal_the_whole_list_fsum():
    N = 10**6
    n = np.arange(1, N + 1, dtype=np.float64)
    whole = math.fsum(((2.0 * n + 1.0) / (n * n * (n + 1.0) * (n + 1.0))).tolist())
    mean = math.fsum(((2.0 * n + 1.0) / (n * (n + 1.0) * (n + 1.0))).tolist())
    del n
    value, peak = _traced_peak(return_prob_partial_sum, N)
    assert value == whole and peak <= 4 * 2**20
    (value, _), peak = _traced_peak(mean_return_time, N)
    assert value == mean and peak <= 4 * 2**20


def test_mean_return_time_single_term():
    value, remainder = mean_return_time(1)
    assert value == 0.75
    assert remainder == 3.0


def test_mean_return_time_enclosure():
    value, remainder = mean_return_time(10**4)
    # the enclosure contains the limit and its midpoint is within 1e-4 of it
    assert value <= PI_SQ_OVER_6 <= value + remainder
    assert abs(value + remainder / 2.0 - PI_SQ_OVER_6) < 1e-4


def test_mean_return_time_against_plain_loop():
    # independent accumulation order as the oracle
    N = 2000
    loop = 0.0
    for n in range(1, N + 1):
        loop += n * first_return_prob(n)
    value, _ = mean_return_time(N)
    assert value == pytest.approx(loop, rel=1e-13)


def test_stationary_weight_values():
    assert stationary_weight(1) == pytest.approx(0.6079271018540267, abs=1e-12)
    assert stationary_weight(1) == pytest.approx(6.0 / math.pi**2, rel=1e-15)
    assert stationary_weight(2) == pytest.approx(0.1519817754635067, abs=1e-12)
    with pytest.raises(ValueError):
        stationary_weight(0)


def test_stationary_weights_normalize():
    N = 10**6
    partial = math.fsum(stationary_weight(j) for j in range(1, N + 1))
    assert partial <= 1.0 + 1e-12
    assert partial + PI1 / N >= 1.0 - 1e-12


@given(st.integers(min_value=1, max_value=1000))
@settings(max_examples=50)
def test_balance_equation_stepwise(j):
    # pi_{j+1} = pi_j * p_j exactly in real arithmetic
    assert abs(stationary_weight(j + 1) - stationary_weight(j) * transition_prob(j)) <= 1e-12


def test_balance_equation_global():
    # inflow to state 1: pi_1 = sum_j pi_j (1 - p_j)
    N = 10**6
    j = np.arange(1, N + 1, dtype=np.float64)
    terms = (PI1 / (j * j)) * (1.0 - (j * j) / ((j + 1.0) * (j + 1.0)))
    inflow = math.fsum(terms.tolist())
    assert abs(PI1 - inflow) <= 1e-8


def test_stationary_weight_matches_inverse_return_time():
    value, remainder = mean_return_time(10**5)
    assert 1.0 / (value + remainder) <= PI1 <= 1.0 / value


def test_tail_mass_bound():
    spec = ChainSpec(1000)
    tail = math.fsum((PI1 / (j * j) for j in range(1001, 10**6)))
    assert tail <= spec.tail_mass_bound <= PI1 / 1000


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sampled_from(monkeypatch, n, seed, start):
    """sample_path(n, seed).states, started at ``start`` (None: drawn)."""
    with monkeypatch.context() as m:
        if start is not None:
            pin_start(m, start)
        return sample_path(n, seed).states


def test_sample_path_single_step_fixed_start(monkeypatch):
    pin_start(monkeypatch, 1)
    path = sample_path(1, seed=0)
    assert list(path.states) == [1]


def test_sample_path_deterministic():
    a = sample_path(5000, seed=42)
    b = sample_path(5000, seed=42)
    assert np.array_equal(a.states, b.states)


# SHA-256 of sample_path(2e5, seed).states started at ``start`` (None: drawn), as int64 bytes
SAMPLE_PATH_SHA256 = {
    (1, None): "909a070365a59009ddf14a46a4ccf924f300b14bb0f981256f281071a94925d9",
    (2, None): "5b6314d9d718ae7eef3a977445bedbfadd9f691635a0237e0f65d746b54bea0e",
    (3, None): "d1030459c3d749b38d8da2c120496a8187986292d09211f9e7fd615ce5c35948",
    (5, 7): "324d21b20eebeef153b7bf9d7104625d46cb841ecfeeb4b0b817155a9301880e",
    (5, 2**40): "6247044d653b43dabf4a962969ee14c35524e86609ed2bd31fa9ba498ec232a6",
}


@pytest.mark.parametrize("seed, start", sorted(SAMPLE_PATH_SHA256, key=str))
def test_sample_path_is_pinned(monkeypatch, seed, start):
    states = sampled_from(monkeypatch, 200_000, seed, start)
    assert states.dtype == np.int64
    digest = hashlib.sha256(states.tobytes()).hexdigest()
    assert digest == SAMPLE_PATH_SHA256[seed, start]


# seed 1074's stationary first run lasts 66,903 steps, longer than every n below
@pytest.mark.parametrize("block, B", [(1, 1), (2, 2), (3, 3), (64, 64), (64, chain._BLOCK)])
def test_sample_path_does_not_depend_on_the_block_size(monkeypatch, block, B):
    cases = [(n, seed, start)
             for n in sorted({1, B - 1, B, B + 1, 3 * B + 5} - {0})
             for seed in (3, 1074)
             for start in (None, 1, 7, 2**40)]
    expect = [sampled_from(monkeypatch, *case) for case in cases]
    monkeypatch.setattr(chain, "_BLOCK", block)
    for case, states in zip(cases, expect):
        assert np.array_equal(sampled_from(monkeypatch, *case), states), case


def test_sample_path_allocates_nothing_path_sized_but_the_path():
    path, peak = _traced_peak(sample_path, 10**6, 7)
    assert peak - path.states.nbytes <= 2**20


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_sample_path_support(seed):
    path = sample_path(400, seed=seed)
    s = path.states
    assert (s >= 1).all()
    steps_ok = (s[1:] == s[:-1] + 1) | (s[1:] == 1)
    assert steps_ok.all()


def test_state1_frequency_matches_stationary_weight():
    path = sample_path(10**6, seed=7)
    freq = float(np.mean(path.states == 1))
    assert freq == pytest.approx(PI1, abs=0.01)


def test_empirical_mean_return_time(monkeypatch):
    pin_start(monkeypatch, 1)
    path = sample_path(10**6, seed=11)
    hits = np.flatnonzero(path.states == 1)
    gaps = np.diff(hits)
    assert float(np.mean(gaps)) == pytest.approx(PI_SQ_OVER_6, abs=0.01)


def test_transition_frequencies_binomial(monkeypatch):
    pin_start(monkeypatch, 1)
    path = sample_path(5 * 10**5, seed=3)
    s = path.states
    for j in (1, 2, 3):
        at_j = s[:-1] == j
        m = int(np.count_nonzero(at_j))
        ups = int(np.count_nonzero(s[1:][at_j] == j + 1))
        p = transition_prob(j)
        margin = 4.0 * math.sqrt(p * (1.0 - p) / m)
        assert ups / m == pytest.approx(p, abs=margin)


def _assert_binomial(hits, p):
    margin = 4.0 * math.sqrt(p * (1.0 - p) / len(hits))
    assert float(np.mean(hits)) == pytest.approx(p, abs=margin)


def test_stationary_state_exact_law():
    # no truncation: every head and tail share of pi_j = pi1/j^2, with
    # P(j > m) = 1 - pi1 sum_{j<=m} 1/j^2
    rng = np.random.default_rng(5)
    draws = np.array([sample_stationary_state(rng) for _ in range(200_000)])
    assert draws.min() >= 1
    _assert_binomial(draws == 1, PI1)
    _assert_binomial(draws == 2, PI1 / 4)
    for m in (2, 10, 100, 1000):
        tail = 1.0 - PI1 * math.fsum(1.0 / (j * j) for j in range(1, m + 1))
        _assert_binomial(draws > m, tail)


def test_first_run_exact_law(monkeypatch):
    # from state 7 the chain makes at least k more up-moves with probability
    # prod_{j=7}^{6+k} p_j = 49/(7+k)^2
    pin_start(monkeypatch, 7)
    seeds = np.random.SeedSequence(5).generate_state(10_000)
    paths = np.array([sample_path(11, int(s)).states for s in seeds])
    for k in (1, 3, 10):
        _assert_binomial(paths[:, k] == 7 + k, 49.0 / (7 + k) ** 2)
