import hashlib
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predlab
from predlab import (
    IMPOSSIBLE,
    AdversarialSource,
    ChainSpec,
    ChampernowneSource,
    CoinFlipSource,
    DiracPredictor,
    FileSource,
    FiniteOrderMixture,
    KTPredictor,
    LogInterval,
    LossTrace,
    PeriodicSource,
    SourceExhaustedError,
    adversarial_sequence,
    chain_info,
    MuX,
    format_bits,
    mean_return_time,
    parse_bits,
    return_prob_partial_sum,
    sample_path,
    stationarity_window_check,
)

words = st.lists(st.integers(0, 1), max_size=40).map(tuple)


# ---------------------------------------------------------------------------
# symbols, words
# ---------------------------------------------------------------------------


def test_star_import_exposes_no_modules():
    namespace = {}
    exec("from predlab import *", namespace)
    assert not [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert "MuX" in namespace and "sample_path" in namespace


def test_public_names_are_unique_and_resolve():
    # a deleted name left in __all__ would break ``from predlab import *``
    assert len(set(predlab.__all__)) == len(predlab.__all__)
    assert [name for name in predlab.__all__ if not hasattr(predlab, name)] == []


@given(words)
def test_bits_roundtrip(w):
    assert parse_bits(format_bits(w)) == w


def test_parse_bits_rejects_junk():
    with pytest.raises(ValueError):
        parse_bits("01x0")


# ---------------------------------------------------------------------------
# log2 probability plumbing
# ---------------------------------------------------------------------------


def test_impossible_saturates():
    assert LogInterval(IMPOSSIBLE, IMPOSSIBLE).upper_prob == 0.0
    # logaddexp2 with IMPOSSIBLE is the identity: an impossible word's upper
    # end is log2 of the dropped mass (its width), within the outward slack
    iv = MuX(PeriodicSource("0"), ChainSpec(10_000)).marginal((1,))
    assert iv.lower_log2 == IMPOSSIBLE and iv.width > 0.0
    assert math.log2(iv.width) < iv.upper_log2 <= math.log2(iv.width) + 1e-13


def test_log_interval_invariants():
    iv = LogInterval(math.log2(0.25), math.log2(0.375))
    assert iv.lower_log2 <= iv.upper_log2
    assert iv.width == pytest.approx(0.125, rel=1e-12)
    assert iv.contains(0.3)
    assert not iv.contains(0.5)
    with pytest.raises(ValueError):
        LogInterval(-1.0, -2.0)


@pytest.mark.parametrize("ends", [(math.nan, 0.0), (-1.0, math.nan), (math.nan, math.nan)])
def test_log_interval_rejects_nan_ends(ends):
    with pytest.raises(ValueError):
        LogInterval(*ends)
    assert LogInterval(IMPOSSIBLE, IMPOSSIBLE).upper_prob == 0.0


# ---------------------------------------------------------------------------
# sequence sources
# ---------------------------------------------------------------------------


def test_periodic_prefix():
    assert format_bits(PeriodicSource("01").prefix(4)) == "0101"
    assert PeriodicSource("01").prefix(0) == ()


def test_periodic_prefix_array_matches_symbol_at():
    src = PeriodicSource("0110")
    arr = src.prefix_array(17)
    assert [int(b) for b in arr] == [src.symbol_at(t) for t in range(1, 18)]


def test_champernowne_prefix():
    # concatenation of binary expansions of 0, 1, 2, ...: 0 1 10 11 100 101 ...
    want = [0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0]
    src = ChampernowneSource()
    assert list(src.prefix(20)) == want
    assert src.symbol_at(3) == 1


def test_champernowne_prefix_array_matches_symbol_at():
    src = ChampernowneSource()
    assert src.prefix_array(0).shape == (0,)
    assert [int(b) for b in src.prefix_array(301)] == [
        src.symbol_at(t) for t in range(1, 302)]
    # every block of L-bit integers ends at 2 + sum_{l=2..L} l 2^(l-1)
    end = 2
    for length in range(2, 13):
        end += length << (length - 1)
        for n in (end - 1, end, end + 1):
            arr = src.prefix_array(n)
            assert len(arr) == n
            assert [int(b) for b in arr[-3:]] == [
                src.symbol_at(t) for t in range(n - 2, n + 1)]
    full = src.prefix_array(end + 5)
    assert [int(b) for b in full] == [src.symbol_at(t) for t in range(1, end + 6)]


def test_coin_flip_purity():
    a = CoinFlipSource(7)
    b = CoinFlipSource(7)
    assert np.array_equal(a.prefix_array(10**5), b.prefix_array(10**5))
    # repeated queries agree with themselves
    assert a.symbol_at(123) == a.symbol_at(123)


def test_coin_flip_draws_missing_blocks_as_one_stream():
    # drawing k blocks at once must give the block-by-block stream
    block = CoinFlipSource._BLOCK
    for seed in (0, 1, 21, 12345):
        rng = np.random.default_rng(seed)
        ref = np.concatenate([rng.integers(0, 2, size=block, dtype=np.uint8)
                              for _ in range(4)])
        src = CoinFlipSource(seed)
        for n in (1, block, block + 1, 3 * block + 5):
            assert src.symbol_at(n + 2) == ref[n + 1]
            assert np.array_equal(src.prefix_array(n), ref[:n])
        assert np.array_equal(CoinFlipSource(seed).prefix_array(3 * block + 5),
                              ref[:3 * block + 5])


def _held_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds in its attributes."""
    def walk(v):
        if isinstance(v, np.ndarray):
            return v.nbytes
        if isinstance(v, (tuple, list)):
            return sum(walk(u) for u in v)
        if isinstance(v, dict):
            return sum(walk(u) for u in v.values())
        return 0
    return walk(vars(obj))


def test_coin_flip_far_blocks_match_the_stream():
    # symbol_at draws its block from a generator advanced to the block
    # start; it must read the sequential stream
    block = CoinFlipSource._BLOCK
    for seed in (0, 1, 5):
        ref = CoinFlipSource(seed).prefix_array(6 * block)
        src = CoinFlipSource(seed)
        for t in (6 * block, 5 * block + 1, 1, block, block + 1, 4 * block + 77,
                  2 * block, 2 * block + 1, 3 * block - 1):
            assert src.symbol_at(t) == ref[t - 1], (seed, t)
        # far reads leave the sequential stream untouched
        assert np.array_equal(src.prefix_array(6 * block), ref)
        assert src.symbol_at(6 * block) == ref[-1]
    # after any reads the source holds at most the one block it read last
    src = CoinFlipSource(5)
    assert _held_bytes(src) <= block
    src.prefix_array(3 * block + 5)
    assert _held_bytes(src) <= block
    for b in (0, 40, 3, 2**20, 1, 5, 0):
        src.symbol_at(b * block + 1)
        assert _held_bytes(src) <= block, b
    src.prefix_array(2 * block)
    assert _held_bytes(src) <= block
    assert np.array_equal(
        [src.symbol_at(b * block + 1) for b in range(6)], ref[::block])


SOURCE_KINDS = ["periodic", "champernowne", "coin", "file", "adversarial"]


def _source(kind, tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("0110100111\n", encoding="ascii")
    return {
        "periodic": lambda: PeriodicSource("011"),
        "champernowne": ChampernowneSource,
        "coin": lambda: CoinFlipSource(1),
        "file": lambda: FileSource(path),
        "adversarial": lambda: AdversarialSource(KTPredictor()),
    }[kind]()


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_prefix_array_rejects_negative_length(kind, tmp_path):
    src = _source(kind, tmp_path)
    src.prefix_array(3)  # a cached prefix must not answer a negative length
    with pytest.raises(ValueError, match="prefix length"):
        src.prefix_array(-1)
    assert len(src.prefix_array(0)) == 0


def _symbol_at_zero(kind):
    return lambda tmp_path: _source(kind, tmp_path).symbol_at(0)


EDGE_INPUTS = [
    pytest.param(lambda _: PeriodicSource(""), "pattern must be nonempty", id="empty-pattern"),
    *(pytest.param(_symbol_at_zero(kind), "t must be >= 1", id=f"{kind}-symbol_at-0")
      for kind in SOURCE_KINDS),
    pytest.param(lambda _: adversarial_sequence(KTPredictor(), 0), "horizon",
                 id="adversarial-horizon-0"),
    pytest.param(lambda _: FiniteOrderMixture(-1), "max_order", id="mixture-order-minus-1"),
    pytest.param(lambda _: return_prob_partial_sum(0), "N must be >= 1", id="partial-sum-0"),
    pytest.param(lambda _: mean_return_time(0), "N must be >= 1", id="mean-return-time-0"),
    pytest.param(lambda _: ChainSpec(0), "truncation_level", id="chain-spec-0"),
    pytest.param(lambda _: sample_path(0, 1), "path length", id="sample-path-0"),
    pytest.param(lambda _: chain_info(0, 1), "max_n and trunc", id="chain-info-0"),
    pytest.param(lambda _: LossTrace(np.zeros(3), np.zeros(2), np.zeros(3)), "equal length",
                 id="loss-trace-ragged"),
    pytest.param(lambda _: stationarity_window_check(np.zeros(200, np.uint8), 1, 0, 50),
                 "start and stride", id="window-before-position-1"),
]


@pytest.mark.parametrize("call, message", EDGE_INPUTS)
def test_edge_inputs_are_refused(call, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_prefix_array_belongs_to_the_caller(kind, tmp_path):
    # a caller may write to the array it got; no later read sees the change
    src = _source(kind, tmp_path)
    first = src.prefix_array(10)
    ref = first.copy()
    first ^= 1
    assert np.array_equal(src.prefix_array(10), ref)
    assert [src.symbol_at(t) for t in range(1, 11)] == ref.tolist()
    assert np.array_equal(src.prefix_array(4), ref[:4])


def test_periodic_prefix_array_forms_its_table_once():
    # the tiled table is returned as is, not copied: the peak is about
    # n + P bytes, not twice n
    n, src = 10**6, PeriodicSource("01")
    tracemalloc.start()
    try:
        src.prefix_array(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n + 2**12


def test_coin_flip_regression_anchor():
    # pinned once from a run of the seeded generator
    assert format_bits(CoinFlipSource(7).prefix(5)) == "10111"


@pytest.mark.parametrize("seed, digest", [
    (0, "eca1d5a57b1bba4d0c7aed14f351340e900394cdfbacadb119a0f1f94abef99d"),
    (1, "6d270fff59567e7546b47958dff224acbd00ddbb72ef5263ead786347b7c7813"),
    (7, "eb87afdca3a5f5781c521bfa19480adc846552b683c0b7b06a523fb90c759110"),
])
def test_coin_flip_stream_is_pinned(seed, digest):
    # SHA-256 of 16 blocks and 3 symbols, pinned from the sequential draw
    # np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)
    arr = CoinFlipSource(seed).prefix_array(2**20 + 3)
    assert hashlib.sha256(arr.tobytes()).hexdigest() == digest


def test_coin_flip_block_starts_match_the_prefix():
    block = CoinFlipSource._BLOCK
    ref = CoinFlipSource(11).prefix_array(2**20 + 1)
    src = CoinFlipSource(11)
    for t in range(1, 2**20 + 2, block):  # every block start up to 2^20
        assert src.symbol_at(t) == ref[t - 1], t


def test_file_source(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("0101\n11\n", encoding="ascii")
    src = FileSource(path)
    assert format_bits(src.prefix(6)) == "010111"
    with pytest.raises(SourceExhaustedError):
        src.symbol_at(7)
    with pytest.raises(SourceExhaustedError):
        src.prefix_array(7)


def test_file_source_rejects_other_characters(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("01021\n", encoding="ascii")
    with pytest.raises(ValueError):
        FileSource(path)


@given(st.integers(min_value=1, max_value=300))
@settings(max_examples=30)
def test_source_symbol_at_is_pure(t):
    src = ChampernowneSource()
    assert src.symbol_at(t) == src.symbol_at(t)


# ---------------------------------------------------------------------------
# the Dirac predictor
# ---------------------------------------------------------------------------


def test_dirac_on_alternating():
    pred = DiracPredictor(PeriodicSource("01"))
    assert pred.conditional((0,)) == (0.0, 1.0)
    assert pred.conditional(()) == (1.0, 0.0)


def test_dirac_on_zeros_empty_past():
    pred = DiracPredictor(PeriodicSource("0"))
    assert pred.conditional(()) == (1.0, 0.0)


def test_dirac_on_champernowne():
    # third symbol of the concatenation is 1
    pred = DiracPredictor(ChampernowneSource())
    assert pred.conditional((0, 1)) == (0.0, 1.0)


def test_dirac_off_support_convention():
    # conditionals off the support still predict x_{t+1} with probability 1
    pred = DiracPredictor(PeriodicSource("01"))
    assert pred.conditional((1,)) == (0.0, 1.0)
    assert pred.conditional((1, 1)) == (1.0, 0.0)


def test_dirac_incremental_matches_stateless():
    pred = DiracPredictor(ChampernowneSource())
    inc = pred.fresh()
    past = []
    for t in range(1, 12):
        assert inc.predict() == pred.conditional(tuple(past))
        s = ChampernowneSource().symbol_at(t)
        inc.observe(s)
        past.append(s)
