import math

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
from predlab.chain import sample_stationary_state

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


def test_sample_path_single_step_fixed_start():
    path = sample_path(1, seed=0, start=1)
    assert list(path.states) == [1]


def test_sample_path_deterministic():
    a = sample_path(5000, seed=42)
    b = sample_path(5000, seed=42)
    assert np.array_equal(a.states, b.states)


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


def test_empirical_mean_return_time():
    path = sample_path(10**6, seed=11, start=1)
    hits = np.flatnonzero(path.states == 1)
    gaps = np.diff(hits)
    assert float(np.mean(gaps)) == pytest.approx(PI_SQ_OVER_6, abs=0.01)


def test_transition_frequencies_binomial():
    path = sample_path(5 * 10**5, seed=3, start=1)
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


def test_first_run_exact_law():
    # from state 7 the chain makes at least k more up-moves with probability
    # prod_{j=7}^{6+k} p_j = 49/(7+k)^2
    seeds = np.random.SeedSequence(5).generate_state(10_000)
    paths = np.array([sample_path(11, int(s), start=7).states for s in seeds])
    for k in (1, 3, 10):
        _assert_binomial(paths[:, k] == 7 + k, 49.0 / (7 + k) ** 2)
