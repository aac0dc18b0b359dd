import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predlab import (
    IMPOSSIBLE,
    PI1,
    AdversarialSource,
    ChainSpec,
    ChampernowneSource,
    CoinFlipSource,
    FileSource,
    LogInterval,
    MuX,
    PeriodicSource,
    SequenceSource,
    SourceExhaustedError,
    brute_force_marginal,
    dirac_kl,
    log_loss_bound,
    parse_bits,
    stationarity_window_check,
    word_frequency,
)
from predlab.cli import main, parse_predictor_spec, parse_source_spec
from predlab import mux as mux_module
from predlab.mux import ForwardState, _as_range, _matching

from conftest import corpus_sources, pin_start


def mux01(trunc=10_000):
    return MuX(PeriodicSource("01"), ChainSpec(trunc))


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginal_alternating_single_zero():
    # states emitting 0 are the odd ones; their stationary mass is
    # pi1 * (sum of odd reciprocal squares) = (6/pi^2)(pi^2/8) = 3/4
    iv = mux01().marginal((0,))
    assert iv.contains(0.75)
    assert iv.width <= PI1 / 10_000


def test_marginal_impossible_symbol():
    iv = MuX(PeriodicSource("0"), ChainSpec(10_000)).marginal((1,))
    assert iv.lower_prob == 0.0
    assert iv.upper_prob <= ChainSpec(10_000).tail_mass_bound * (1 + 1e-12)


def test_marginal_rejects_empty_word():
    with pytest.raises(ValueError):
        mux01().marginal(())


def test_marginal_own_prefix_lower_bound():
    # the never-reset path from state 1 alone contributes pi1 / n^2
    for src in corpus_sources():
        mux = MuX(src, ChainSpec(2000))
        pred = mux.predictor()
        for t in range(1, 501):
            pred.observe(src.symbol_at(t))
            lower = 2.0 ** pred.log2_mass()
            assert lower >= 0.999 * PI1 / (t + 1) ** 2, (src.spec, t)


def test_brute_force_is_forward_lower_bound():
    mux = MuX(PeriodicSource("01"), ChainSpec(50))
    bf = brute_force_marginal(mux, parse_bits("01"), 50)
    lo = mux.marginal(parse_bits("01")).lower_prob
    assert bf == pytest.approx(lo, rel=1e-12)
    assert mux.marginal(parse_bits("01")).contains(bf)


def test_brute_force_trivial_cases():
    mux = MuX(PeriodicSource("0"), ChainSpec(50))
    assert brute_force_marginal(mux, (1,), 50) == 0.0
    # length-1 queries reduce to a stationary mass sum
    mux = mux01(50)
    want = math.fsum(PI1 / (j * j) for j in range(1, 51) if j % 2 == 1)
    assert brute_force_marginal(mux, (0,), 50) == pytest.approx(want, rel=1e-13)


def test_brute_force_refuses_large_inputs():
    mux = mux01(50)
    with pytest.raises(ValueError):
        brute_force_marginal(mux, (0,) * 15, 10)
    with pytest.raises(ValueError):
        brute_force_marginal(mux, (0,), 65)


@given(
    pattern=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple),
    j0=st.integers(min_value=2, max_value=20),
)
@settings(max_examples=40, deadline=None)
def test_brute_force_within_enclosure(pattern, bits, j0):
    src = PeriodicSource(pattern)
    mux = MuX(src, ChainSpec(j0))
    bf = brute_force_marginal(mux, bits, j0)
    iv = mux.marginal(bits)
    assert iv.lower_prob - 1e-15 <= bf <= iv.upper_prob + 1e-15


def test_truncation_refinement_shrinks_and_nests():
    y = parse_bits("0110")
    src = CoinFlipSource(9)
    coarse = MuX(src, ChainSpec(1000)).marginal(y)
    fine = MuX(src, ChainSpec(10_000)).marginal(y)
    assert fine.width * 9.0 <= coarse.width
    assert coarse.lower_prob <= fine.lower_prob
    assert fine.upper_prob <= coarse.upper_prob * (1.0 + 1e-12)


def test_conditional_consistency():
    # child marginals sum to an enclosure intersecting the parent's
    y = parse_bits("010")
    mux = mux01(2000)
    parent = mux.marginal(y)
    lows, highs = [], []
    for a in (0, 1):
        child = mux.marginal(y + (a,))
        lows.append(child.lower_prob)
        highs.append(child.upper_prob)
    assert sum(lows) <= parent.upper_prob + 1e-15
    assert sum(highs) >= parent.lower_prob - 1e-15


def test_monotone_information():
    mux = mux01(2000)
    y = parse_bits("0101")
    for cut in range(1, len(y)):
        assert (
            mux.marginal(y[:cut]).lower_prob
            >= mux.marginal(y).lower_prob - 1e-15
        )


def test_fine_enclosure_covers_coarse_brute_force():
    src = PeriodicSource("01")
    y = parse_bits("0101")
    iv = MuX(src, ChainSpec(500)).marginal(y)
    bf = brute_force_marginal(MuX(src, ChainSpec(50)), y, 50)
    # every path from states <= 50 is tracked at J = 500 as well
    assert bf <= iv.lower_prob <= iv.upper_prob


# ---------------------------------------------------------------------------
# conditionals
# ---------------------------------------------------------------------------


def test_conditional_next_empty_past():
    i0, i1 = mux01().conditional_next(())
    assert i0.contains(0.75)
    assert i1.contains(0.25)


def test_conditional_next_all_zeros():
    i0, _ = MuX(PeriodicSource("0"), ChainSpec(5000)).conditional_next((0, 0, 0))
    assert i0.contains(1.0)


def test_conditional_off_support_is_vacuous_and_predictor_uniform():
    mux = MuX(PeriodicSource("0"), ChainSpec(1000))
    i0, i1 = mux.conditional_next((1,))
    assert i0.lower_prob == 0.0 and i0.upper_prob == 1.0
    assert i1.lower_prob == 0.0 and i1.upper_prob == 1.0
    pred = mux.predictor()
    pred.observe(1)  # kills the tracked mass
    assert pred.log2_mass() == -math.inf
    assert pred.predict() == (0.5, 0.5)
    pred.observe(0)  # stays total after death
    assert pred.predict() == (0.5, 0.5)


def test_long_off_support_past_after_two_rescales():
    # 4,325 zeros on periodic:01 at J = 100: the tracked mass is rescaled
    # twice, so the dropped mass in the state's units overflows a float and
    # the conditional enclosures are read as vacuous
    mux = MuX(PeriodicSource("01"), ChainSpec(100))
    y = (0,) * 4325
    pred = mux._walk(y)
    state = pred._state
    assert state.scale_log2 == -1796.0 and state.total > 0.0
    with pytest.raises(OverflowError):
        math.ldexp(state.dropped_mass, -int(state.scale_log2))
    for iv in mux.conditional_next(y):
        assert (iv.lower_prob, iv.upper_prob) == (0.0, 1.0)
    assert pred.predict() == (0.75, 0.25)
    assert pred.last_interval_width == 1.0
    assert mux.marginal(y).upper_prob == pytest.approx(PI1 / 100, rel=1e-9)


def test_tracking_conditionals_sharpen_on_target():
    src = PeriodicSource("01")
    mux = MuX(src, ChainSpec(2000))
    pred = mux.predictor()
    realized = []
    for t in range(1, 1001):
        p0, p1 = pred.predict()
        s = src.symbol_at(t)
        realized.append(p1 if s else p0)
        pred.observe(s)
    realized = np.array(realized)
    assert (realized[10:] > 0.5).all()
    cesaro = np.cumsum(-np.log2(realized)) / np.arange(1, 1001)
    assert cesaro[999] < cesaro[99] < cesaro[9]


def test_predictor_incremental_matches_stateless():
    src = ChampernowneSource()
    mux = MuX(src, ChainSpec(500))
    inc = mux.predictor()
    for t in range(1, 15):
        past = src.prefix(t - 1)
        assert inc.predict() == mux.predictor().conditional(past)
        inc.observe(src.symbol_at(t))


def test_interval_width_logged():
    mux = mux01(1000)
    pred = mux.predictor()
    pred.predict()
    assert 0.0 < pred.last_interval_width <= 1.0


def test_predict_forms_the_width_without_log2_or_exp2(monkeypatch):
    # the logged width is hi - lo of the linear ends: no outward log2 and no
    # exp2 that reads a log2 end back
    mux = MuX(CoinFlipSource(5), ChainSpec(10_000))
    pred = mux.predictor()
    for s in mux.source.prefix_array(36).tolist():  # both ends strictly inside (0, 1)
        pred.observe(s)

    def refuse(*args):
        raise AssertionError("predict left linear space")

    monkeypatch.setattr(mux_module, "_log2_out", refuse)
    monkeypatch.setattr(mux_module, "prob", refuse, raising=False)
    assert pred._state.total > 0.0
    p0, _ = pred.predict()
    lo, hi = mux._conditional_ends(pred._state, pred._propagated(), 0)
    assert 0.0 < lo <= p0 <= hi < 1.0 and pred.last_interval_width == hi - lo


def test_a_subnormal_lower_end_reads_zero():
    # a subnormal quotient has no relative rounding bound: it is no certified
    # lower end, and conditional_next's log2 end reads it as IMPOSSIBLE
    mux = mux01(1000)
    state, step = mux.initial_state(), mux.propagate(mux.initial_state())
    for s0, subnormal in ((1e-300, False), (1e-310, True)):
        lo, hi = mux._conditional_ends(state, step._replace(s0=s0), 0)
        assert (lo == 0.0) == subnormal and 0.0 < hi < 1.0
        assert (_log_enclosure((lo, hi)).lower_log2 == IMPOSSIBLE) == subnormal


# ---------------------------------------------------------------------------
# the first steps that a MuX shares
# ---------------------------------------------------------------------------

SHARED_SPECS = ["coin:5", "periodic:01", "champernowne", "periodic:0"]


def _predictor_run(mux, y):
    pred, out = mux.predictor(), []
    for s in y:
        out.append(repr((pred.predict(), pred.last_interval_width, pred.log2_mass())))
        pred.observe(s)
    return out + [repr(pred.log2_mass())]


def _unshared_run(mux, y):
    # the predictor's outputs from initial_state, propagate and advance,
    # which share nothing; a past of zero tracked mass predicts uniformly
    state, out = mux.initial_state(), []
    for s in y:
        if state.total <= 0.0:
            out.append(repr(((0.5, 0.5), 1.0, state.log2_mass())))
            continue
        step = mux.propagate(state)
        p1 = step.s1 / (step.s0 + step.s1)
        lo, hi = mux._conditional_ends(state, step, 0)
        out.append(repr(((1.0 - p1, p1), hi - lo, state.log2_mass())))
        state = mux.advance(state, s, step)
    return out + [repr(state.log2_mass())]


QUERY_LENGTHS = (1, 2, 3, 30)


def _queries(mux, y):
    return [repr((mux.marginal(y[:k]), mux.conditional_next(y[:k - 1])))
            for k in QUERY_LENGTHS]


def _log_enclosure(ends):
    """The LogInterval that conditional_next reports for _conditional_ends' ends."""
    hi = min(0.0, mux_module._log2_out(ends[1], True))
    return LogInterval(min(mux_module._log2_out(ends[0], False), hi), hi)


def _unshared_queries(mux, y):
    states = [mux.initial_state()]
    for s in y:
        states.append(mux.advance(states[-1], s, mux.propagate(states[-1])))
    return [repr((states[k].interval(), tuple(
        _log_enclosure(mux._conditional_ends(states[k - 1], mux.propagate(states[k - 1]), a))
        for a in (0, 1)))) for k in QUERY_LENGTHS]


@pytest.mark.parametrize("spec", SHARED_SPECS)
@pytest.mark.parametrize("first", [0, 1])
def test_shared_first_steps_give_the_fresh_outputs(spec, first):
    # periodic:0 dies on a first 1 (the dead path); the other specs keep a
    # range (periodic:01) or an index array (coin, champernowne) after it
    y = (first,) + tuple(int(b) for b in parse_source_spec(spec).prefix_array(30)[1:])
    warm = MuX(parse_source_spec(spec), ChainSpec(10_000))
    runs = [_predictor_run(warm, y) for _ in range(3)]
    fresh = _predictor_run(MuX(parse_source_spec(spec), ChainSpec(10_000)), y)
    assert runs[1] == fresh and runs[2] == fresh
    assert fresh == _unshared_run(MuX(parse_source_spec(spec), ChainSpec(10_000)), y)
    cold = _queries(MuX(parse_source_spec(spec), ChainSpec(10_000)), y)
    assert _queries(warm, y) == cold
    assert _queries(warm, y) == cold  # a second round reads the shared steps
    assert cold == _unshared_queries(MuX(parse_source_spec(spec), ChainSpec(10_000)), y)


def test_first_step_is_propagated_once_per_mux(monkeypatch):
    propagate, calls = MuX.propagate, []

    def counted(self, state):
        calls.append(state.t)
        return propagate(self, state)

    monkeypatch.setattr(MuX, "propagate", counted)
    mux = MuX(parse_source_spec("coin:5"), ChainSpec(10_000))
    for _ in range(5):
        pred = mux.predictor()
        for s in (1, 0, 1):
            pred.predict()
            pred.observe(s)
    mux.marginal((0, 1))
    mux.conditional_next((1,))
    assert calls.count(0) == 1
    # the shared arrays are read-only, so no later step can change them
    arrays = [a for v in mux._first.values() for a in v if isinstance(a, np.ndarray)]
    assert len(mux._first) == 6 and len(arrays) >= 10
    assert not any(a.flags.writeable for a in arrays)
    for a in arrays:
        if len(a):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]


def test_exhausted_first_steps_leave_nothing_shared():
    # shorter than J: the tables cannot be built, for any predictor
    mux = MuX(_FiniteSource(CoinFlipSource(3), 50), ChainSpec(100))
    for _ in range(2):
        with pytest.raises(SourceExhaustedError, match="only 50"):
            mux.predictor()
        assert mux._first == {} and mux._cap == 0
    # exactly J: the step after a first symbol emitted by state J needs
    # state J + 1, so it fails where it did before sharing, at that predict
    src = _FiniteSource(CoinFlipSource(3), 100)
    s = int(src.prefix_array(100)[-1])
    mux = MuX(src, ChainSpec(100))
    for _ in range(2):
        pred = mux.predictor()
        pred.predict()
        pred.observe(s)
        with pytest.raises(SourceExhaustedError, match="only 100"):
            pred.predict()
        assert ((s,), True) not in mux._first
    with pytest.raises(SourceExhaustedError, match="only 100"):
        mux.conditional_next((s,))


FORWARD_STATE_FIELDS = ("t", "born_states", "born_weights", "dropped_mass", "total",
                        "scale_log2", "roundings", "origins")


@pytest.mark.parametrize("spec", ["periodic:01", "coin:5"])
def test_forward_states_are_immutable(spec):
    # every past on a MuX reads its shared first states, so none may change;
    # the walks reach tuple, array, range and (on coin) index-array blocks
    assert ForwardState._fields == FORWARD_STATE_FIELDS  # the positional order
    mux = MuX(parse_source_spec(spec), ChainSpec(100_000))
    pred = mux.predictor()
    states = [mux._shared(())]
    for s in (1,) + tuple(int(b) for b in mux.source.prefix_array(40)):
        pred.observe(s)
        states.append(pred._state)
    for state in states:
        for field in FORWARD_STATE_FIELDS:
            with pytest.raises(AttributeError):
                setattr(state, field, getattr(state, field))


def test_a_finite_source_shorter_than_the_request_names_it(tmp_path):
    # on a fresh MuX the capacity asked for is the request itself, so the
    # source's own refusal reaches the caller
    path = tmp_path / "hundred.txt"
    path.write_text("01" * 50 + "\n", encoding="ascii")
    mux = MuX(FileSource(path), ChainSpec(10))
    with pytest.raises(SourceExhaustedError, match="holds 100 symbols, prefix 500 requested"):
        mux._ensure_tables(500)
    assert mux._cap == 0


# ---------------------------------------------------------------------------
# the loss ceiling
# ---------------------------------------------------------------------------


def test_log_loss_bound_values():
    assert log_loss_bound(1) == pytest.approx(2.7180297582234814, abs=1e-10)
    assert log_loss_bound(10) == pytest.approx(7.636892995498076, abs=1e-10)
    assert log_loss_bound(1000) / 1000 == pytest.approx(0.020652482275895466, abs=1e-10)
    with pytest.raises(ValueError):
        log_loss_bound(0)
    horizons = np.array([1, 10, 1000])
    assert log_loss_bound(horizons).tolist() == [log_loss_bound(1), log_loss_bound(10),
                                                 log_loss_bound(1000)]
    with pytest.raises(ValueError):
        log_loss_bound(np.array([3, 0, 5]))


@pytest.mark.parametrize("n", [math.nan, [3.0, math.nan]])
def test_log_loss_bound_rejects_nan(n):
    with pytest.raises(ValueError, match="horizon"):
        log_loss_bound(n)


def test_cumulative_loss_under_bound_periodic():
    src = PeriodicSource("01")
    trace = dirac_kl(src, MuX(src, ChainSpec(10_000)).predictor(), 1000)
    assert float(trace.cum_kl_bits[-1]) <= log_loss_bound(1000) + 1e-6


# ---------------------------------------------------------------------------
# trajectory sampling
# ---------------------------------------------------------------------------


def test_sample_trajectory_constant_source():
    traj = MuX(PeriodicSource("0"), ChainSpec(100)).sample_trajectory(500, seed=1)
    assert not traj.any()


def test_sample_trajectory_deterministic():
    mux = mux01(100)
    assert np.array_equal(mux.sample_trajectory(2000, 5), mux.sample_trajectory(2000, 5))


def test_sample_trajectory_symbol_frequency():
    traj = mux01(100).sample_trajectory(10**5, seed=2)
    freq0 = 1.0 - float(np.mean(traj))
    assert freq0 == pytest.approx(0.75, abs=0.02)


def test_sample_trajectory_word_frequency_matches_marginal():
    mux = mux01(2000)
    traj = mux.sample_trajectory(10**5, seed=4)
    iv = mux.marginal((0, 0))
    assert word_frequency((0, 0), traj) == pytest.approx(iv.lower_prob, abs=0.02)


def test_stationarity_windows():
    traj = mux01(100).sample_trajectory(2 * 10**5, seed=6)
    for word, fa, fb, se in stationarity_window_check(traj, 3, 1, 50):
        assert abs(fa - fb) <= 3.0 * se + 1e-12, word


def test_sample_trajectory_reads_large_states_through_symbol_at(monkeypatch, tmp_path,
                                                               capsys):
    # only the first run climbs above n; a start at 2^40 must be read state
    # by state, never as a 2^40-symbol prefix (a coin source draws only the
    # block that holds the state)
    from predlab import chain

    def start_at(j0):
        pin_start(monkeypatch, j0)
        return chain.sample_path(n, seed).states

    n, seed = 300, 9
    for j0 in (2**40, n - 5):
        states = start_at(j0)
        assert states.max() > n
        tracemalloc.start()
        try:
            for spec in ("periodic:011", "champernowne", "coin:5"):
                src = parse_source_spec(spec)
                traj = MuX(src).sample_trajectory(n, seed)
                assert [int(b) for b in traj] == [src.symbol_at(int(j)) for j in states]
            capsys.readouterr()
            assert main(["ergodicity", "--target", "coin:5", "-n", str(n),
                         "--seed", str(seed)]) == 0
            freq_1 = json.loads(capsys.readouterr().out)["freq_1"]
            assert freq_1 == float(np.mean(traj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24
    path = tmp_path / "short.txt"
    path.write_text("0110\n", encoding="ascii")
    start_at(2**40)
    with pytest.raises(SourceExhaustedError, match=str(2**40)):
        MuX(FileSource(path)).sample_trajectory(n, seed)


@pytest.mark.parametrize("spec", ["periodic:011", "champernowne", "coin:5"])
def test_sample_trajectory_with_the_first_run_above_n(monkeypatch, spec):
    # every state above n (an empty emission prefix), and a start at n + 1
    # whose later runs are read from the prefix
    from predlab import chain

    n = 300
    for j0, seed, all_above in ((10**6, 9, True), (n + 1, 2, False)):
        pin_start(monkeypatch, j0)
        states = chain.sample_path(n, seed).states
        assert states[0] == j0 and (states.min() > n) == all_above
        src = parse_source_spec(spec)
        traj = MuX(src).sample_trajectory(n, seed)
        assert traj.dtype == np.uint8
        assert traj.tolist() == [src.symbol_at(int(j)) for j in states]


# ---------------------------------------------------------------------------
# plumbing edges
# ---------------------------------------------------------------------------


def test_emission_range_error_for_short_file(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("0101\n", encoding="ascii")
    with pytest.raises(SourceExhaustedError):
        MuX(FileSource(path), ChainSpec(100)).marginal((0,))


def test_forward_state_rescaling():
    mux = MuX(PeriodicSource("0"), ChainSpec(8))
    tiny = ForwardState(
        t=1, born_states=np.arange(1, 9, dtype=np.int64),
        born_weights=np.full(8, 1e-290), dropped_mass=0.0, total=8e-290, scale_log2=0.0
    )
    advanced = mux.advance(tiny, 0, mux.propagate(tiny))
    assert advanced.scale_log2 < 0.0
    assert advanced.weights.max() > 1e-200  # rescaled into safe range
    # true mass: 8e-290 spread once through the transition kernel
    assert advanced.log2_mass() == pytest.approx(math.log2(8e-290), abs=1e-9)


def test_weights_too_small_to_multiply_join_dropped_mass():
    mux = MuX(PeriodicSource("0"), ChainSpec(4))
    state = ForwardState(t=1, born_states=np.arange(1, 4, dtype=np.int64),
                         born_weights=np.array([0.5, 1e-290, 0.25]), dropped_mass=0.0,
                         total=0.75)
    advanced = mux.advance(state, 0, mux.propagate(state))
    # state 2's up-move, 1e-290 * 4/9, falls below the floor and is dropped
    assert list(advanced.states) == [1, 2, 4]
    assert advanced.dropped_mass >= 1e-290 * 4.0 / 9.0
    exact = 0.5 * 0.75 + 1e-290 * 5.0 / 9.0 + 0.25 * 7.0 / 16.0 + 0.5 / 4.0 + 0.25 * 9.0 / 16.0
    assert advanced.interval().contains(exact)


# ---------------------------------------------------------------------------
# the sparse forward state against an independent high-precision recursion
# ---------------------------------------------------------------------------


def mp_forward_sums(source, trunc, y):
    """(s0, s1) before each symbol of y: the truncated forward recursion in
    50-digit arithmetic with exact p_j = j^2/(j+1)^2 and pi_j = (6/pi^2)/j^2."""
    x = source.prefix_array(trunc + len(y))
    out = []
    with mpmath.workdps(50):
        w = {j: 6 / mpmath.pi**2 / j**2 for j in range(1, trunc + 1)}
        for t, sym in enumerate(y):
            if t:
                inflow = mpmath.fsum(wj * (2 * j + 1) / mpmath.mpf((j + 1) ** 2)
                                     for j, wj in w.items())
                w = {j + 1: wj * j * j / mpmath.mpf((j + 1) ** 2)
                     for j, wj in w.items()}
                w[1] = inflow
            out.append(tuple(mpmath.fsum(wj for j, wj in w.items() if x[j - 1] == a)
                             for a in (0, 1)))
            w = {j: wj for j, wj in w.items() if x[j - 1] == sym}
    return out


def assert_encloses(iv, lower, upper):
    """lower <= iv's low end and iv's high end >= upper, in log2 and after
    reading the ends back as probabilities, with no slack."""
    with mpmath.workdps(50):
        if lower > 0:
            assert iv.lower_log2 <= mpmath.log(lower, 2)
        assert iv.lower_prob <= lower
        assert iv.upper_log2 >= mpmath.log(upper, 2)
        assert iv.upper_prob >= upper


@pytest.mark.parametrize("trunc", [64, 500])
@pytest.mark.parametrize("spec", ["periodic:01", "coin:5", "champernowne",
                                  "periodic:0", "periodic:011"])
def test_enclosures_contain_high_precision_recursion(spec, trunc):
    rng = np.random.default_rng(trunc)
    src = parse_source_spec(spec)
    mux = MuX(src, ChainSpec(trunc))
    # a path of the measure itself, a uniform word (its mass may die) and
    # the target's own prefix
    words = [tuple(int(b) for b in mux.sample_trajectory(200, seed=trunc)),
             tuple(int(b) for b in rng.integers(0, 2, size=200)),
             tuple(int(b) for b in src.prefix_array(200))]
    if spec == "periodic:01":
        words.append((0,) * 2500)  # mass about (3/4)^t: crosses the rescale
    with mpmath.workdps(50):
        tail = 1 - 6 / mpmath.pi**2 * mpmath.fsum(
            mpmath.mpf(1) / j**2 for j in range(1, trunc + 1))
    for y in words:
        sums = mp_forward_sums(src, trunc, y)
        cuts = {1, len(y)} | {int(m) for m in rng.integers(1, len(y), size=6)}
        for m in sorted(cuts):
            tracked = sums[m - 1][y[m - 1]]
            assert_encloses(mux.marginal(y[:m]), tracked, tracked + tail)
            if m == len(y):
                continue
            s0, s1 = sums[m]
            if s0 + s1 == 0:
                continue
            pred = mux._walk(y[:m])
            for a, (iv, s_a) in enumerate(zip(mux.conditional_next(y[:m]), (s0, s1))):
                ratio = s_a / (s0 + s1)
                assert_encloses(iv, ratio, ratio)
                lo, hi = mux._conditional_ends(pred._state, pred._propagated(), a)
                assert lo <= ratio <= hi  # the linear ends, with no slack
    if spec == "periodic:01":
        pred = mux.predictor()
        for s in (0,) * 2500:
            pred.observe(s)
        assert pred._state.scale_log2 < 0.0


@pytest.mark.parametrize("spec, trunc", [("coin:7", 64), ("champernowne", 64),
                                         ("coin:7", 500), ("periodic:011", 500)])
def test_conditional_ends_without_the_dropped_mass_contain_the_truncated_conditional(
        spec, trunc):
    # with dropped_mass = 0 the ends are s_a (1 -+ r) / (den (1 +- r)): only
    # the rounding term r separates them from the truncated measure's
    # conditional s_a / (s0 + s1), which the 50-digit recursion gives, so a
    # wrong sign of r shows here where the truncation term d would hide it
    src = parse_source_spec(spec)
    mux = MuX(src, ChainSpec(trunc))
    words = [mux.sample_trajectory(120, seed=trunc).tolist(), src.prefix_array(120).tolist()]
    checked = 0
    for y in words:
        pred = mux.predictor()
        for s, (s0, s1) in zip(y, mp_forward_sums(src, trunc, y)):
            if pred._state.total > 0.0:
                state = pred._state._replace(dropped_mass=0.0)
                for a, s_a in enumerate((s0, s1)):
                    lo, hi = mux._conditional_ends(state, pred._propagated(), a)
                    assert lo <= s_a / (s0 + s1) <= hi
                    checked += 1
            pred.observe(s)
    assert checked >= 2 * 120  # the target's prefix never dies


@pytest.mark.parametrize("trunc", [64, 500, 10_000])
def test_periodic01_enclosures_contain_closed_form_marginals(trunc):
    # at J = infinity on periodic:01 the odd states emit 0, so mu(0) = pi1 *
    # (sum of odd 1/j^2) = 3/4; an even state (a 1) moves on to an odd state
    # or to state 1, so mu(11) = 0; and an odd state's up-move lands on an
    # even one, so after the first 0 every further 0 is a reset from state
    # 1, with probability 3/4
    mux = mux01(trunc)
    exact = {(0,): mpmath.mpf(3) / 4, (1,): mpmath.mpf(1) / 4,
             (0, 0): mpmath.mpf(1) / 2, (0, 1): mpmath.mpf(1) / 4,
             (1, 0): mpmath.mpf(1) / 4, (1, 1): mpmath.mpf(0)}
    for k in (3, 10, 200):
        exact[(0,) * k] = mpmath.mpf(1) / 2 * (mpmath.mpf(3) / 4) ** (k - 2)
    for y, value in exact.items():
        assert_encloses(mux.marginal(y), value, value)


def zeta_forward_sums(pattern, trunc, y):
    """mp_forward_sums for the target periodic:<pattern>, in O(t) per step.

    Origins of one residue class mod the period P stay alive or die
    together.  A never-reset class run of n origins, in states a, a + P,
    ..., a + (n-1)P, sums pi1 (zeta(2, a/P) - zeta(2, b/P)) / P^2 with
    b = a + nP (Hurwitz zeta), and its reset share pi_m (1 - p_m) =
    pi1 (m^-2 - (m+1)^-2) telescopes within each term; the states born by
    a reset keep explicit weights."""
    P = len(pattern)
    emits = lambda m: int(pattern[(m - 1) % P])  # state m's symbol
    out = []
    with mpmath.workdps(50):
        pi1, zetas = 6 / mpmath.pi**2, {}

        def run(a, n):  # sum over k < n of (a + kP)^-2
            for v in (a, a + n * P):
                if v not in zetas:
                    zetas[v] = mpmath.zeta(2, mpmath.mpf(v) / P)
            return (zetas[a] - zetas[a + n * P]) / P**2

        # first origin r -> its count n; at step t its origins are in
        # states r + t, r + t + P, ...
        classes = {r: (trunc - r) // P + 1 for r in range(1, min(P, trunc) + 1)}
        born = {}
        for t, sym in enumerate(y):
            if t:
                inflow = mpmath.fsum(w * (2 * m + 1) / mpmath.mpf((m + 1) ** 2)
                                     for m, w in born.items())
                inflow += pi1 * mpmath.fsum(run(r + t - 1, n) - run(r + t, n)
                                            for r, n in classes.items())
                born = {m + 1: w * m * m / mpmath.mpf((m + 1) ** 2) for m, w in born.items()}
                born[1] = inflow
            sums = [mpmath.mpf(0), mpmath.mpf(0)]
            for m, w in born.items():
                sums[emits(m)] += w
            for r, n in classes.items():
                sums[emits(r + t)] += pi1 * run(r + t, n)
            out.append(tuple(sums))
            born = {m: w for m, w in born.items() if emits(m) == sym}
            classes = {r: n for r, n in classes.items() if emits(r + t) == sym}
    return out


@pytest.mark.parametrize("pattern", ["0", "01", "011"])
def test_zeta_oracle_agrees_with_the_direct_recursion(pattern):
    src = PeriodicSource(pattern)
    for y in (src.prefix_array(70).tolist(), src.prefix_array(71).tolist()[1:]):
        for got, want in zip(zeta_forward_sums(pattern, 64, y), mp_forward_sums(src, 64, y)):
            for g, w in zip(got, want):
                assert abs(g - w) <= mpmath.mpf(10) ** -40 * max(w, 1)


@pytest.mark.parametrize("pattern", ["0", "01", "011"])
def test_enclosures_contain_the_zeta_oracle_at_a_million_states(pattern):
    # J = 1e6 keeps a range block of about J / P origins; the 80 steps cross
    # the capacity growth at t = 65.  The target's own prefix keeps every
    # class alive; the prefix from x_2 on starts periodic:011 with two
    # classes, an index array, before its next symbol leaves one
    trunc, steps = 10**6, 80
    src = PeriodicSource(pattern)
    with mpmath.workdps(50):
        tail = 6 / mpmath.pi**2 * mpmath.zeta(2, trunc + 1)
    for y in (src.prefix_array(steps).tolist(), src.prefix_array(steps + 1).tolist()[1:]):
        mux = MuX(src, ChainSpec(trunc))
        pred = mux.predictor()
        for t, ((s0, s1), sym) in enumerate(zip(zeta_forward_sums(pattern, trunc, y), y)):
            state, step = pred._state, pred._propagated()
            # the linear ends, with no slack, at every step; the public
            # query, which walks a fresh predictor, at the first and every 20th
            queries = mux.conditional_next(y[:t]) if t < 3 or t % 20 == 0 else None
            for a, s_a in enumerate((s0, s1)):
                ratio = s_a / (s0 + s1)
                lo, hi = mux._conditional_ends(state, step, a)
                assert lo <= ratio <= hi
                if queries:
                    assert_encloses(queries[a], ratio, ratio)
            pred.observe(sym)
            tracked = (s0, s1)[sym]
            assert_encloses(pred._state.interval(), tracked, tracked + tail)
        assert mux._cap > trunc + 64


# double-double arithmetic: a value is an unevaluated sum hi + lo of two
# float64 arrays, about 106 bits (Dekker 1971; Higham ch. 4)


def _two_sum(a, b):
    """s + e = a + b exactly, with s = fl(a + b), in any order of magnitude."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """_two_sum for |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """Veltkamp's split: a = hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    """p + e = a b exactly, with p = fl(a b)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(a, b):
    p, e = _two_prod(a[0], b[0])
    return _fast_two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def _dd_add(a, b):
    """a + b for nonnegative a and b, within a few u^2 relative."""
    s, e = _two_sum(a[0], b[0])
    return _fast_two_sum(s, e + (a[1] + b[1]))


def _dd_ratio(a, b):
    """a / b for float64 arrays a and b, as a double-double."""
    q = a / b
    p, e = _two_prod(q, b)
    return q, ((a - p) - e) / b  # a - p is exact (Sterbenz)


def _dd_sum(x):
    """The pairwise sum of a nonnegative double-double array, as an mpf."""
    hi, lo = x
    if not len(hi):
        return mpmath.mpf(0)
    while len(hi) > 1:
        if len(hi) % 2:
            hi, lo = np.append(hi, 0.0), np.append(lo, 0.0)
        hi, lo = _dd_add((hi[0::2], lo[0::2]), (hi[1::2], lo[1::2]))
    return mpmath.mpf(float(hi[0])) + mpmath.mpf(float(lo[0]))


def dd_forward_sums(source, trunc, y):
    """mp_forward_sums in double-double arithmetic over all trunc + len(y)
    states, dead ones at weight 0: O(J + t) numpy work per step.  Each
    operation errs by a few u^2 and a pairwise sum by log2 of its length
    more; it read within 4e-32 relative of mp_forward_sums on the specs below,
    at J = 500 and for three steps at J = 2^18."""
    size = trunc + len(y)
    x = source.prefix_array(size)  # state j emits x[j - 1]
    j = np.arange(1.0, size + 1.0)
    square, next_square = j * j, (j + 1.0) * (j + 1.0)  # exact integers
    up, leave = _dd_ratio(square, next_square), _dd_ratio(2.0 * j + 1.0, next_square)
    with mpmath.workdps(50):
        pi1 = 6 / mpmath.pi**2
        pi1 = [np.full(size, float(pi1)), np.full(size, float(pi1 - float(pi1)))]
    w = _dd_mul(pi1, _dd_ratio(np.ones(size), square))
    for part in w:
        part[trunc:] = 0.0
    out = []
    with mpmath.workdps(50):
        for t, sym in enumerate(y):
            if t:
                inflow = _dd_sum(_dd_mul(w, leave))
                moved = _dd_mul((w[0][:-1], w[1][:-1]), (up[0][:-1], up[1][:-1]))
                w = [np.concatenate(([float(part)], rest))
                     for part, rest in zip((inflow, inflow - float(inflow)), moved)]
            out.append(tuple(_dd_sum((w[0][x == a], w[1][x == a])) for a in (0, 1)))
            w = [np.where(x == sym, part, 0.0) for part in w]
    return out


@pytest.mark.parametrize("spec", ["coin:7", "champernowne"])
def test_double_double_oracle_agrees_with_the_50_digit_recursion(spec):
    src = parse_source_spec(spec)
    mux = MuX(src, ChainSpec(500))
    for y in (src.prefix_array(20).tolist(), mux.sample_trajectory(20, seed=3).tolist()):
        for got, want in zip(dd_forward_sums(src, 500, y), mp_forward_sums(src, 500, y)):
            for g, w in zip(got, want):
                assert abs(g - w) <= mpmath.mpf(10) ** -30 * w


@pytest.mark.parametrize("spec", ["coin:7", "champernowne"])
def test_enclosures_contain_the_double_double_oracle_past_the_first_chunk(spec):
    # at J = 2^18 the origins that survive the first and second symbols are
    # index arrays of about four and two chunks, which _direct_sums forms
    # chunk by chunk; every step's marginal ends, and the ends of both
    # conditionals without the dropped mass (where only the rounding term r
    # separates them from the truncated conditional), must enclose the
    # oracle widened by its own error
    trunc, steps = 2**18, 20
    src = parse_source_spec(spec)
    y = src.prefix_array(steps).tolist()
    mux = MuX(src, ChainSpec(trunc))
    pred = mux.predictor()
    with mpmath.workdps(50):
        tail, err = 6 / mpmath.pi**2 * mpmath.zeta(2, trunc + 1), mpmath.mpf(10) ** -25
        for t, ((s0, s1), sym) in enumerate(zip(dd_forward_sums(src, trunc, y), y)):
            if t in (1, 2):
                assert isinstance(pred._state.origins, np.ndarray)
                assert len(pred._state.origins) > (3 - t) * mux_module._CHUNK
            state, step = pred._state._replace(dropped_mass=0.0), pred._propagated()
            for a, s_a in enumerate((s0, s1)):
                lo, hi = mux._conditional_ends(state, step, a)
                ratio = s_a / (s0 + s1)
                assert lo <= ratio * (1 - err) and min(ratio * (1 + err), 1) <= hi
            pred.observe(sym)
            tracked = (s0, s1)[sym]
            assert_encloses(pred._state.interval(), tracked * (1 - err),
                            (tracked + tail) * (1 + err))


def dense_forward(source, trunc, y):
    """The plain float64 forward recursion over every state 1..trunc+len(y),
    dead states included: the weights after each symbol of y."""
    size = trunc + len(y)
    x = source.prefix_array(size)
    j = np.arange(1.0, size + 1.0)
    w = np.where(j <= trunc, PI1 / (j * j), 0.0)
    out = []
    for t, sym in enumerate(y):
        if t:
            inflow = float(np.sum(w * (2.0 * j + 1.0) / ((j + 1.0) * (j + 1.0))))
            w = np.concatenate([[inflow], w[:-1] * (j[:-1] * j[:-1])
                                / ((j[:-1] + 1.0) * (j[:-1] + 1.0))])
        w = np.where(x == sym, w, 0.0)
        out.append(w)
    return out


class _ArraySource(SequenceSource):
    """The bits of an array, as a finite target."""

    def __init__(self, bits, spec):
        self.bits = np.asarray(bits, dtype=np.uint8)
        self.spec = spec

    def symbol_at(self, t):
        return int(self.bits[t - 1])

    def prefix_array(self, n):
        if n > len(self.bits):
            raise SourceExhaustedError(f"needs {n} symbols")
        return self.bits[:n].copy()


def test_forward_state_blocks_match_dense_recursion(monkeypatch):
    # index arrays of up to one chunk join the reset-born block; a chunk of
    # 16 keeps them as blocks at J = 300 and sums them over several chunks
    monkeypatch.setattr(mux_module, "_CHUNK", 16)
    rng = np.random.default_rng(8)
    # alternating up to J, random after it: the every-other-state range
    # meets mixed emissions once its top states pass J
    alternating_then_random = _ArraySource(
        np.concatenate([np.arange(300) % 2, rng.integers(0, 2, size=800)]),
        "alternating then random")
    layouts = set()
    for src in corpus_sources() + [PeriodicSource("011"), alternating_then_random]:
        recorder = _RecordingSource(src)
        mux = MuX(recorder, ChainSpec(300))
        # the target's own prefix keeps its top states alive past J + 64; a
        # word starting with 1 leaves periodic:011 two residue classes
        for y in (tuple(int(b) for b in src.prefix_array(150)),
                  (1,) + tuple(int(b) for b in rng.integers(0, 2, size=149))):
            state = mux.initial_state()
            for s, want in zip(y, dense_forward(src, 300, y)):
                kind = type(state.origins)
                state = mux.advance(state, s, mux.propagate(state))
                layouts.add((kind, type(state.origins)))
                alive = np.flatnonzero(want)
                assert np.array_equal(state.states, alive + 1)
                np.testing.assert_allclose(state.weights, want[alive], rtol=1e-12, atol=0)
                assert state.total == pytest.approx(float(want.sum()), rel=1e-12)
        if src.spec == "periodic:01":
            assert recorder.largest_prefix > 300 + 64
    assert {(range, range), (range, np.ndarray), (np.ndarray, np.ndarray)} <= layouts


@pytest.mark.parametrize("pattern", ["0", "01"])
def test_range_steps_that_do_not_split_take_the_closed_form(monkeypatch, pattern):
    # periodic:0 keeps a stride-1 range and periodic:01 a stride-2 one; the
    # 100 steps cross the capacity growth at J + 64, which rebuilds the
    # class counts
    direct, fallbacks = MuX._direct_sums, []

    def counted(self, o, t):
        sums = direct(self, o, t)
        if isinstance(o, range) and t >= 2 and sums[4] is not None:
            fallbacks.append(t)  # a range that did not split
        return sums

    monkeypatch.setattr(MuX, "_direct_sums", counted)
    src = PeriodicSource(pattern)
    mux = MuX(src, ChainSpec(100_000))
    state = mux.initial_state()
    for s in src.prefix_array(100):
        state = mux.advance(state, int(s), mux.propagate(state))
    assert isinstance(state.origins, range) and state.origins.step == len(pattern)
    assert mux._cap > 100_000 + 64
    assert fallbacks == []


def test_initial_total_is_summed_once_per_mux(monkeypatch):
    mux = mux01(1000)
    first = mux._shared(()).total  # the one cache of the initial state
    assert first == pytest.approx(math.fsum(PI1 / (j * j) for j in range(1, 1001)), rel=1e-15)

    def refuse(j):
        raise AssertionError("pi_j formed again")

    monkeypatch.setattr(mux_module, "_stationary", refuse)
    assert mux.predictor().fresh().log2_initial_mass() == math.log2(first)


def _gamma(k):
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def test_short_range_below_the_capacity_takes_the_closed_form(monkeypatch):
    # 100 origins 2000, 2002, ..., 2198 at t = 3 read states 2002..2200, far
    # below the capacity J + 64, whose class sums above them outweigh them
    mux, o, t = mux01(10_000), range(2000, 2200, 2), 3
    mux.initial_state()
    direct, calls = MuX._direct_sums, []
    monkeypatch.setattr(MuX, "_direct_sums",
                        lambda self, o, t: calls.append(o) or direct(self, o, t))
    empty = np.empty(0, dtype=np.int64)
    step = mux.propagate(ForwardState(t, empty, np.empty(0), 0.0, roundings=6,
                                      total=1.0, origins=o))
    assert calls == []
    # the next states c + 1 are odd and emit 0, and so does the new state 1
    c = [j + t - 1 for j in o]
    want = math.fsum([PI1 / ((k + 1) * (k + 1)) for k in c]
                     + [PI1 / (k * k) * ((2 * k + 1) / ((k + 1) * (k + 1))) for k in c])
    assert step.s1 == 0.0
    assert abs(step.s0 - want) <= _gamma(step.roundings + len(o)) * want


class _FiniteSource(SequenceSource):
    """The first n bits of ``inner``; asking for more raises."""

    def __init__(self, inner, n):
        self.inner, self.n, self.spec = inner, n, f"{inner.spec}[:{n}]"

    def symbol_at(self, t):
        if t > self.n:
            raise SourceExhaustedError(f"only {self.n} symbols")
        return self.inner.symbol_at(t)

    def prefix_array(self, n):
        if n > self.n:
            raise SourceExhaustedError(f"only {self.n} symbols")
        return self.inner.prefix_array(n)


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
@pytest.mark.parametrize("make", [
    lambda: MuX(CoinFlipSource(2), ChainSpec(99)),  # capacity J + 64 = 163
    # a finite source of J + 10 symbols: the capacity is J = 203
    lambda: MuX(_FiniteSource(CoinFlipSource(3), 213), ChainSpec(203))],
    ids=["infinite", "finite"])
def test_class_tables_match_fsum(stride, make):
    # the class counts against the emissions, and the closed-form sums of
    # runs of each class (from state index 1 on) against fsum of their terms
    mux = make()
    mux.initial_state()
    cap = mux._cap
    assert cap % stride or stride == 1
    x = mux.source.prefix_array(cap)
    counts = mux._class_counts(stride)
    rows = len(counts) - 1
    for r in range(stride):
        cs = list(range(r, cap, stride))  # state indices c of class r
        for q in range(rows + 1):
            assert counts[q, r] == int(x[cs[:q]].sum())
        for q in range(1 if r == 0 else 0, len(cs)):
            for n in {1, 2, 17, len(cs) - q}:
                run = cs[q:q + n]
                ahead, reset = mux_module._class_sums(run[0], stride, len(run))
                # each fsum term is rounded once, and the fsum once more
                want = math.fsum([1 / ((c + 1) * (c + 1)) for c in run])
                assert abs(ahead - want) <= _gamma(20 + 2) * want
                want = math.fsum([(2 * c + 1) / (c * c * (c + 1) * (c + 1)) for c in run])
                assert abs(reset - want) <= _gamma(27 + 2) * want


@pytest.mark.parametrize("stride", range(1, 8))
def test_class_sums_are_within_their_stated_bounds(stride):
    # states c, c + s, ..., c + (n-1)s against 40-digit Hurwitz zeta
    # differences: from c >= 16 s on only the Euler-Maclaurin tail (4 and 11
    # roundings), below it up to 16 head terms and their additions as well
    s = stride

    def run(a, n):  # sum over k < n of (a + ks)^-2
        return (mpmath.zeta(2, mpmath.mpf(a) / s)
                - mpmath.zeta(2, mpmath.mpf(a + n * s) / s)) / s**2

    starts = [1, 16 * s - 1, 16 * s, 16 * s + 1, 10**6 + 65 - 100 * s, 10**6 + 65]
    with mpmath.workdps(40):
        for c in starts:
            for n in (1, 2, 1000, 10**6 // s):
                up, share = mux_module._class_sums(c, s, n)
                want_up, want_share = run(c + 1, n), run(c, n) - run(c + 1, n)
                head = c < 16 * s
                assert abs(up - want_up) <= _gamma(20 if head else 4) * want_up
                assert abs(share - want_share) <= _gamma(27 if head else 11) * want_share


def test_em_bracket_is_within_its_stated_bound():
    # K(v, w) = sum_m c_m (v^m - w^m)/(v - w) with c_2 = 1/2 and
    # c_(2j+1) = B_2j up to B_14, within 3.4 u K for 0 <= w < v <= 1/16
    coeffs = [(2, mpmath.mpf(1) / 2)] + [(2 * j + 1, mpmath.bernoulli(2 * j)) for j in range(1, 8)]
    with mpmath.workdps(40):
        for v, w in ((1 / 16, 1 / 17), (1 / 16, 16 / 257), (1 / 16, 1e-6), (2 / 33, 2 / 34),
                     (1e-3, 0.999e-3), (7e-6, 1e-12)):
            got = mux_module._em_bracket(v, w)
            V, W = mpmath.mpf(v), mpmath.mpf(w)
            want = sum(c * (V**m - W**m) / (V - W) for m, c in coeffs)
            assert abs(got - want) <= 3.4 * 2.0**-53 * want


@pytest.mark.parametrize("stride", [1, 2])
def test_range_step_counts_the_roundings_of_its_run(stride):
    # a closed-form step adds _RANGE_ROUNDINGS, whatever the run's length
    mux = MuX(PeriodicSource("0" * stride), ChainSpec(10_000))
    mux.initial_state()
    for o, t in ((range(1, 10_001, stride), 1), (range(1, 5001, stride), 7),
                 (range(1, 129, stride), 3)):
        sums = mux._range_sums(o, t)
        assert sums is not None
        assert sums[-1] == mux_module._RANGE_ROUNDINGS == 33


def _reference_roundings(x, J, y, range_used):
    """The rounding count after each symbol of y, by the rules of README's
    Numerics section, from the blocks a walk passes through; x[m - 1] is
    state m's emission.  range_used[t] tells whether the closed form gave
    the never-reset block's sums at time t (it does unless the range
    splits).

    A stationary weight carries 6 roundings and a transition probability 3;
    the born dot product's n terms add n (a product and a sum each); a
    block summed origin by origin adds one rounding per origin, and a range
    block's closed form adds 11 + 16 + 6 = 33, whatever its length.  The
    first step only reads the initial weights.  A block joins the
    reset-born one below 64 origins, or at up to 32Ki origins that are not
    evenly spaced (an index array)."""

    def joins(origins):
        spaced = len(origins) < 3 or len(set(np.diff(origins).tolist())) == 1
        return 0 < len(origins) < 64 or not spaced and len(origins) <= 1 << 15

    t, count, born, origins, out = 0, 6, [], list(range(1, J + 1)), []
    for a in y:
        if born or origins:  # a dead past keeps its count
            if t:
                if not origins:
                    block = 0
                elif range_used.get(t):
                    block = 33
                else:
                    block = len(origins)
                count += 3 + len(born) + block
                born = [1] + [m + 1 for m in born]
            # origin j is in state j + t once the step is taken
            born = [m for m in born if x[m - 1] == a]
            origins = [j for j in origins if x[j + t - 1] == a]
            t += 1
            if joins(origins):  # the block joins the reset-born one
                born, origins = sorted(born + [j + t - 1 for j in origins]), []
        out.append((count, len(born) + len(origins)))
    return out


ROUNDING_COUNT_SPECS = ["periodic:01", "coin:5", "champernowne", "periodic:0", "periodic:011"]


@pytest.mark.parametrize("trunc, steps", [(64, 200), (500, 600), (10_000, 200)])
@pytest.mark.parametrize("spec", ROUNDING_COUNT_SPECS)
def test_rounding_count_follows_the_numerics_rules(monkeypatch, spec, trunc, steps):
    # the target's own prefix takes the tables past their first capacity,
    # J + 64, in all cases but coin:5 and champernowne at J = 1e4, whose
    # alive states stay far below it
    range_sums, range_used = MuX._range_sums, {}

    def spied(self, o, t):
        sums = range_sums(self, o, t)
        range_used[t] = sums is not None
        return sums

    monkeypatch.setattr(MuX, "_range_sums", spied)
    src = parse_source_spec(spec)
    x = src.prefix_array(trunc + steps + 1).tolist()
    for y in (x[:steps], MuX(src).sample_trajectory(steps, seed=trunc).tolist()):
        range_used.clear()
        mux = MuX(src, ChainSpec(trunc))
        pred, got = mux.predictor(), []
        for s in y:
            pred.observe(s)
            got.append((pred._state.roundings,
                        len(pred._state.born_states) + len(pred._state.origins)))
        assert got == _reference_roundings(x, trunc, y, range_used)


@given(st.integers(1, 300), st.sampled_from(["random", "alternating", "zeros", "ones"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_born_block_split_is_within_the_counted_error(n, mask, seed):
    # a reset-born block alone (so b0 = b1 = 0) of states 1..n at t = n + 1:
    # after the step its states 1..n + 1 emit the target's bits 1..n + 1
    rng = np.random.default_rng(seed)
    bits = {"random": rng.integers(0, 2, size=n + 1),
            "alternating": (np.arange(n + 1) + seed) % 2,
            "zeros": np.zeros(n + 1), "ones": np.ones(n + 1)}[mask]
    mux = MuX(_ArraySource(bits, mask), ChainSpec(1))
    w = 2.0 ** rng.uniform(-60.0, 0.0, size=n)  # 18 decades of magnitudes
    state = ForwardState(n + 1, np.arange(1, n + 1, dtype=np.int64), w, 0.0,
                         roundings=6, total=math.fsum(w))
    step = mux.propagate(state)
    assert not len(step.origins) and len(step.born_weights) == n + 1
    for s_a, emits in ((step.s0, ~step.born_ones), (step.s1, step.born_ones)):
        want = math.fsum(step.born_weights[emits])
        assert abs(s_a - want) <= mux_module._rel_err(step) * want


@pytest.mark.parametrize("spec", ROUNDING_COUNT_SPECS)
def test_index_arrays_of_up_to_one_chunk_join_without_changing_the_conditionals(
        monkeypatch, spec):
    # a chunk of 1 joins no index array of 64 origins or more (an index
    # array has at least 3), as ranges alone join; the default chunk joins
    # index arrays of up to 32Ki origins.  Joined weights then follow the
    # born recursion instead of pi1/m^2, so the conditionals agree up to
    # rounding, the alive counts exactly, and so do the rounding counts
    # while a joined origin adds one rounding a step either way.  A chunk
    # of 1 also forms each split's origins one mask entry at a time
    src = parse_source_spec(spec)
    words = (src.prefix_array(200).tolist(),
             MuX(src).sample_trajectory(200, seed=5).tolist())

    def run(y):
        mux, out = MuX(src, ChainSpec(10_000)), []
        pred = mux.predictor()
        for s in y:
            state = pred._state
            ends = [e for a in (0, 1) for e in mux._conditional_ends(state, pred._propagated(), a)]
            out.append((pred.predict() + tuple(ends), state.roundings,
                        len(state.born_states) + len(state.origins),
                        type(state.origins) if len(state.origins) else None))
            pred.observe(s)
        return out

    joined = [run(y) for y in words]
    monkeypatch.setattr(mux_module, "_CHUNK", 1)
    blocks = [run(y) for y in words]
    arrays = 0
    for got, want in zip(joined, blocks):
        diverged = False
        for (p, r, alive, kind), (q, want_r, want_alive, want_kind) in zip(got, want):
            assert p == pytest.approx(q, rel=1e-12, abs=0)
            assert alive == want_alive
            # a split can turn the unjoined index array into a range of at
            # least 64 origins, whose closed form adds 33 roundings a step
            # where the joined origins add one each
            diverged |= want_kind is range and kind is None
            assert r >= want_r if diverged else r == want_r
            arrays += want_kind is np.ndarray and kind is None
    if spec in ("coin:5", "champernowne", "periodic:011"):  # the joined index arrays
        assert arrays > 0


def _steps(mux, y):
    """(alive states, rounding count, conditionals, held as tuples) per step."""
    pred, out = mux.predictor(), []
    for s in y:
        state = pred._state
        out.append((state.states.tolist(), state.roundings, pred.predict(),
                    isinstance(state.born_states, tuple)))
        pred.observe(s)
    return out


@pytest.mark.parametrize("spec, trunc, n", [
    ("uniform", 10_000, 500), ("kt", 10_000, 500), ("mix:3", 10_000, 500),
    ("mux:periodic:01", 10_000, 500), ("coin:7", 10**6, 60), ("champernowne", 10**6, 60)])
def test_small_blocks_in_python_floats_match_the_numpy_step(monkeypatch, spec, trunc, n):
    # theorem1's four sequences, and the deep targets, whose index arrays
    # join the reset-born block near step 5 and shrink below the switch by
    # step 20; a size of -1 holds every block in numpy.  The sums' order
    # differs, so conditionals agree within 1e-12 and the counts exactly
    if spec in ("coin:7", "champernowne"):
        src = parse_source_spec(spec)
    else:
        src = AdversarialSource(parse_predictor_spec(spec, trunc))
    y = src.prefix_array(n).tolist()
    small = _steps(MuX(src, ChainSpec(trunc)), y)
    monkeypatch.setattr(mux_module, "_SMALL_BLOCK", -1)
    blocks = _steps(MuX(src, ChainSpec(trunc)), y)
    for (states, r, p, _), (want_states, want_r, q, in_tuples) in zip(small, blocks):
        assert states == want_states and r == want_r and not in_tuples
        assert p == pytest.approx(q, rel=1e-12, abs=0)
    # both forms, and a switch between them, on every target
    kinds = [s[3] for s in small]
    assert any(kinds) and any(a != b for a, b in zip(kinds, kinds[1:]))


@given(st.lists(st.integers(1, 60), max_size=12, unique=True))
@example([1, 3, 4, 7])  # even ends, uneven inside
@example([1, 3, 5, 8])  # even start, the ends rule it out
def test_evenly_spaced_origins_become_a_range(values):
    origins = np.array(sorted(values), dtype=np.int64)
    got = _as_range(origins)
    assert isinstance(got, range) == (len(origins) < 3 or len(set(np.diff(origins))) == 1)
    assert list(got) == origins.tolist()


@pytest.mark.parametrize("length", [0, 1, mux_module._CHUNK - 1, mux_module._CHUNK,
                                    mux_module._CHUNK + 1, 3 * mux_module._CHUNK + 5])
@pytest.mark.parametrize("symbol", [0, 1])
def test_matching_origins_are_flatnonzero_formed_a_chunk_at_a_time(length, symbol):
    ones = np.random.default_rng(length).integers(0, 2, size=length).astype(bool)
    want = np.flatnonzero(ones if symbol else ~ones)
    index_array = np.arange(7, 7 + 3 * length, 3, dtype=np.int32)
    for origins, expected in ((range(length), want),
                              (range(5, 5 + 4 * length, 4), 4 * want + 5),
                              (index_array, index_array[want])):
        got = _matching(origins, ones, symbol)
        assert got.dtype == np.int32
        assert got.tolist() == expected.tolist()


def test_split_origins_are_int32_at_a_million_states():
    # coin:7's first symbol splits the range 1..J into an index array of
    # about J/2 origins, the second one that again: both stay int32
    src = parse_source_spec("coin:7")
    mux = MuX(src, ChainSpec(10**6))
    state = mux.initial_state()
    for s in src.prefix_array(2).tolist():
        state = mux.advance(state, s, mux.propagate(state))
        assert isinstance(state.origins, np.ndarray) and len(state.origins) > mux_module._CHUNK
        assert state.origins.dtype == np.int32
        assert state.states.dtype == np.int64


class _UnreadSource(SequenceSource):
    """Fails the test if any symbol is asked for."""

    def symbol_at(self, t):
        pytest.fail(f"symbol_at({t}) was called")

    def prefix_array(self, n):
        pytest.fail(f"prefix_array({n}) was called")


def test_states_above_the_int32_limit_are_refused_before_the_source_is_read():
    limit = np.iinfo(np.int32).max
    assert mux_module._MAX_STATE == limit
    with pytest.raises(ValueError, match=str(limit)):
        MuX(_UnreadSource(), ChainSpec(limit + 1)).initial_state()
    assert main(["mux", "marginal", "--target", "periodic:0", "--query", "0",
                 "--trunc", str(limit + 1)]) == 2


class _StubTableSource(SequenceSource):
    """Records prefix requests and serves one symbol for each: a stand-in
    for tables too large to build in a test."""

    def __init__(self):
        self.requests = []

    def symbol_at(self, t):
        return 0

    def prefix_array(self, n):
        self.requests.append(n)
        return np.zeros(1, dtype=np.uint8)


def test_table_growth_stops_at_the_int32_limit():
    # an eighth more than a capacity near the limit would pass it, so the
    # request is cut to the limit
    limit = mux_module._MAX_STATE
    src = _StubTableSource()
    mux = MuX(src, ChainSpec(1000))
    mux._cap = limit - 100
    mux._ensure_tables(limit - 50)
    assert src.requests == [limit] and mux._cap == limit
    mux._ensure_tables(limit)  # the limit itself is a valid state
    assert src.requests == [limit]
    with pytest.raises(ValueError):
        mux._ensure_tables(limit + 1)


def test_forward_states_are_sparse_and_sorted():
    rng = np.random.default_rng(3)
    for src in corpus_sources():
        mux = MuX(src, ChainSpec(300))
        for y in (tuple(int(b) for b in src.prefix_array(150)),
                  tuple(int(b) for b in rng.integers(0, 2, size=150))):
            state = mux.initial_state()
            for s in y:
                state = mux.advance(state, s, mux.propagate(state))
                assert state.states.dtype == np.int64
                assert len(state.states) == len(state.weights)
                assert (np.diff(state.states) > 0).all()
                assert (state.weights > 0.0).all()
                assert state.total == pytest.approx(float(state.weights.sum()),
                                                    rel=1e-12)


class _RecordingSource(SequenceSource):
    """Passes through to ``inner`` and records its prefix requests."""

    def __init__(self, inner):
        self.inner = inner
        self.largest_prefix = 0
        self.requests = []

    def symbol_at(self, t):
        return self.inner.symbol_at(t)

    def prefix_array(self, n):
        self.largest_prefix = max(self.largest_prefix, n)
        self.requests.append(n)
        return self.inner.prefix_array(n)


@pytest.mark.parametrize("spec", ["coin:3", "champernowne"])
def test_tables_follow_the_largest_alive_state(spec):
    # on these targets the states near J die out within a few steps, so the
    # tables stay at their initial J + 64 however far the frontier J + t runs
    src = _RecordingSource(parse_source_spec(spec))
    mux = MuX(src, ChainSpec(1000))
    state = mux.initial_state()
    for s in src.inner.prefix_array(300):
        state = mux.advance(state, int(s), mux.propagate(state))
    assert state.t == 300
    assert src.largest_prefix <= 1000 + 64


def test_table_capacity_grows_by_an_eighth():
    # periodic:0 keeps its never-reset range alive, so the tables follow the
    # frontier J + t: each growth adds at least an eighth of the capacity
    # (so there are O(log) rebuilds), and none reads more than an eighth
    # past the frontier
    J, steps = 1000, 3000
    src = _RecordingSource(PeriodicSource("0"))
    mux = MuX(src, ChainSpec(J))
    pred, caps, asked = mux.predictor(), [mux._cap], [(0, n) for n in src.requests]
    for t in range(steps):
        seen = len(src.requests)
        pred.predict()
        pred.observe(0)
        asked += [(t, n) for n in src.requests[seen:]]
        if mux._cap != caps[-1]:
            caps.append(mux._cap)
    assert isinstance(pred._state.origins, range) and len(pred._state.origins) == J
    assert caps[0] == J + 64 and caps[-1] >= J + steps
    assert all(8 * b >= 9 * a for a, b in zip(caps, caps[1:]))
    # the first table counts as one growth
    assert len(caps) <= math.ceil(math.log((J + steps) / (J + 64), 9 / 8)) + 1
    assert all(n <= max(J + 64, 9 / 8 * (J + t) + 1) for t, n in asked)


LOGGED_WIDTH_TARGETS = [(src.spec, None) for src in corpus_sources()] + [("periodic:0", 1)]


@pytest.mark.parametrize("spec, first", LOGGED_WIDTH_TARGETS)
def test_logged_width_is_the_next_zero_enclosure_width(spec, first):
    # the target's own prefix, or with a first 1 periodic:0's dead past
    y = [int(b) for b in parse_source_spec(spec).prefix_array(100)]
    if first is not None:
        y[0] = first
    mux = MuX(parse_source_spec(spec), ChainSpec(10_000))
    pred = mux.predictor()
    for t, s in enumerate(y):
        pred.predict()
        if pred._state.total > 0.0:
            lo, hi = mux._conditional_ends(pred._state, pred._propagated(), 0)
            assert repr(pred.last_interval_width) == repr(hi - lo)
        assert pred.last_interval_width <= mux.conditional_next(y[:t])[0].width
        pred.observe(s)


@pytest.mark.parametrize("rho", ["uniform", "kt", "mix:3", "mux:periodic:01"])
def test_logged_width_is_the_enclosure_width_on_theorem1_sequences(rho):
    # the battery's sequences at its size: the width logged after every
    # predict is hi - lo of the linear ends, and within the width of the
    # LogInterval that conditional_next rounds out of them; the public query,
    # which walks a fresh predictor, is checked at the first steps and then
    # every 25th (it costs O(t) each)
    src = AdversarialSource(parse_predictor_spec(rho, 10_000))
    y = src.prefix_array(500).tolist()
    mux = MuX(src, ChainSpec(10_000))
    pred = mux.predictor()
    for t, s in enumerate(y):
        pred.predict()
        width = pred.last_interval_width
        if pred._state.total > 0.0:
            lo, hi = mux._conditional_ends(pred._state, pred._propagated(), 0)
            assert repr(width) == repr(hi - lo)
            assert width <= _log_enclosure((lo, hi)).width
        if t < 20 or t % 25 == 0:
            assert width <= mux.conditional_next(y[:t])[0].width
        pred.observe(s)


def test_fields_read_by_the_benchmark_trace():
    # the traced benchmark run (perfbench/tracing.py) reads these names
    mux = mux01(100)
    assert mux.chain.truncation_level == 100
    first = mux.initial_state()
    state = mux.advance(first, 0, mux.propagate(first))
    assert state.t == 1
    assert np.count_nonzero(state.weights) == 50
    assert state.scale_log2 == 0.0
    assert state.dropped_mass == mux.chain.tail_mass_bound
    pred = mux.predictor()
    pred.predict()
    assert 0.0 < pred.last_interval_width <= 1.0
    pred.observe(0)
    odd = math.fsum(PI1 / (j * j) for j in range(1, 101, 2))
    assert pred.log2_mass() == pytest.approx(math.log2(odd), rel=1e-12)
    assert pred.log2_initial_mass() == pytest.approx(math.log2(odd / 0.75), abs=1e-2)
