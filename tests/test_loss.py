import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predlab import (
    ChainSpec,
    DiracPredictor,
    FileSource,
    FiniteOrderMixture,
    KTPredictor,
    LossTrace,
    MuX,
    PeriodicSource,
    SourceExhaustedError,
    UniformPredictor,
    dirac_kl,
    stationarity_window_check,
    window_distribution,
    word_frequency,
)
from predlab.loss import (
    CSV_COLUMNS,
    MAX_WINDOW,
    _window_counts,
    trace_from_realized_probs,
    word_counts,
    write_artifact,
    write_tidy_csv,
)


def test_uniform_coin_costs_one_bit_per_step():
    trace = dirac_kl(PeriodicSource("01"), UniformPredictor(), 100)
    assert float(trace.cum_kl_bits[-1]) == 100.0
    assert (trace.cesaro_kl == 1.0).all()


def test_perfect_predictor_costs_nothing():
    src = PeriodicSource("011")
    trace = dirac_kl(src, DiracPredictor(src), 50)
    assert (trace.kl_bits == 0.0).all()
    assert (trace.abs_loss == 0.0).all()
    assert (trace.sq_loss == 0.0).all()


def test_impossible_symbol_records_inf_and_run_continues():
    # the Dirac predictor for all-zeros gives the alternating sequence
    # probability zero at step 2; later steps still get recorded
    trace = dirac_kl(PeriodicSource("01"), DiracPredictor(PeriodicSource("0")), 6)
    assert trace.kl_bits[0] == 0.0
    assert math.isinf(trace.kl_bits[1])
    assert math.isinf(trace.cum_kl_bits[-1])
    assert math.isinf(trace.cesaro_kl[-1])
    assert len(trace) == 6


def test_chain_rule_against_kt_closed_form():
    # independent joint: KT assigns a word with counts (a, b) probability
    # prod_{i<a}(i+1/2) * prod_{i<b}(i+1/2) / prod_{t<a+b}(t+1)
    src = PeriodicSource("0110")
    n = 1000
    trace = dirac_kl(src, KTPredictor(), n)
    a = sum(1 - s for s in src.prefix(n))
    b = n - a
    log2_joint = (
        math.fsum(math.log2(i + 0.5) for i in range(a))
        + math.fsum(math.log2(i + 0.5) for i in range(b))
        - math.fsum(math.log2(t + 1.0) for t in range(n))
    )
    assert float(trace.cum_kl_bits[-1]) == pytest.approx(-log2_joint, abs=1e-9)


def test_chain_rule_against_mixture_joint():
    src = PeriodicSource("01")
    n = 300
    mix = FiniteOrderMixture(2)
    trace = dirac_kl(src, mix, n)
    replay = mix.fresh()
    for t in range(1, n + 1):
        replay.observe(src.symbol_at(t))
    assert float(trace.cum_kl_bits[-1]) == pytest.approx(-replay.log2_joint(), abs=1e-9)
    # dirac_kl scored mix itself, which now holds the joint of x_{1..n}
    assert float(trace.cum_kl_bits[-1]) == pytest.approx(-mix.log2_joint(), abs=1e-9)


def test_chain_rule_against_forward_mass():
    src = PeriodicSource("01")
    mux = MuX(src, ChainSpec(2000))
    n = 400
    scored = mux.predictor()
    trace = dirac_kl(src, scored, n)
    pred = mux.predictor()
    for t in range(1, n + 1):
        pred.observe(src.symbol_at(t))
    joint = pred.log2_mass() - pred.log2_initial_mass()
    assert float(trace.cum_kl_bits[-1]) == pytest.approx(-joint, abs=1e-9)
    # the scored instance ends at the same forward mass
    assert float(trace.cum_kl_bits[-1]) == pytest.approx(
        scored.log2_initial_mass() - scored.log2_mass(), abs=1e-9)


def test_other_losses_uniform():
    trace = dirac_kl(PeriodicSource("10"), UniformPredictor(), 40)
    assert (trace.abs_loss == 0.5).all()
    assert (trace.sq_loss == 0.5).all()
    assert trace.cesaro_abs[-1] == 0.5


def test_absolute_loss_shrinks_with_tracking():
    src = PeriodicSource("01")
    trace = dirac_kl(src, MuX(src, ChainSpec(10_000)).predictor(), 1000)
    assert trace.cesaro_abs[999] < trace.cesaro_abs[99]


def test_loss_ranges_and_monotone_cumulative():
    src = PeriodicSource("0")
    for rho in (UniformPredictor(), KTPredictor(), FiniteOrderMixture(2)):
        trace = dirac_kl(src, rho, 200)
        assert (trace.kl_bits >= 0.0).all()
        assert ((trace.abs_loss >= 0.0) & (trace.abs_loss <= 1.0)).all()
        assert ((trace.sq_loss >= 0.0) & (trace.sq_loss <= 2.0)).all()
        assert (np.diff(trace.cum_kl_bits) >= 0.0).all()


def test_pinsker_corollary_on_traces():
    # cesaro_abs <= sqrt(cesaro_kl * ln 2 / 2) at every horizon: Pinsker's
    # inequality plus Jensen ties the trace's absolute-loss and KL columns
    src = PeriodicSource("01")
    for rho in (
        UniformPredictor(),
        KTPredictor(),
        MuX(src, ChainSpec(2000)).predictor(),
    ):
        trace = dirac_kl(src, rho, 300)
        bound = np.sqrt(trace.cesaro_kl * math.log(2.0) / 2.0) + 1e-6
        assert (trace.cesaro_abs <= bound).all()


def test_dirac_kl_refuses_an_empty_horizon():
    with pytest.raises(ValueError, match="horizon"):
        dirac_kl(PeriodicSource("01"), KTPredictor(), 0)


def test_dirac_kl_reads_a_short_source_before_scoring(tmp_path):
    # the prefix is read first: a finite source shorter than n is refused
    # whole, and the predictor has not moved
    path = tmp_path / "bits.txt"
    path.write_text("01101\n", encoding="ascii")
    rho = KTPredictor()
    with pytest.raises(SourceExhaustedError, match="holds 5 symbols, prefix 8 requested"):
        dirac_kl(FileSource(path), rho, 8)
    assert rho.counts == [0, 0]


def test_trace_scores_subnormal_probabilities_exactly():
    # 5e-324 is 2^-1074 and 1e-323 is 2^-1073; zero scores an infinite loss
    trace = trace_from_realized_probs([5e-324, 1e-323, 0.0])
    assert trace.kl_bits.tolist() == [1074.0, 1073.0, math.inf]


def test_liminf_proxy_is_tail_window_minimum():
    trace = trace_from_realized_probs(np.linspace(0.3, 0.9, 20))
    proxy = trace.liminf_proxy()
    window = trace.cesaro_kl[9:]
    assert proxy == pytest.approx(float(window.min()), rel=1e-15)
    assert (proxy <= window + 1e-15).all()


def test_csv_format(tmp_path):
    trace = dirac_kl(PeriodicSource("01"), KTPredictor(), 10)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with path.open(encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 11
    assert int(rows[1][0]) == 1
    assert float(rows[1][1]) == pytest.approx(1.0)  # KT first step is 1/2


def test_csv_writers_match_per_row_repr_reference(tmp_path):
    # inf, zero, the smallest subnormal and the largest double below 1
    values = np.array([math.inf, 0.0, 5e-324, 1.0 - 2.0**-53])
    trace = LossTrace(kl_bits=values, abs_loss=values[::-1].copy(),
                      sq_loss=np.roll(values, 1))
    trace.to_csv(tmp_path / "trace.csv")
    columns = [trace.kl_bits, trace.cum_kl_bits, trace.cesaro_kl,
               trace.abs_loss, trace.cesaro_abs, trace.sq_loss, trace.cesaro_sq]
    with (tmp_path / "trace_ref.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for i in range(len(trace)):
            row = {"step": i + 1}
            for name, col in zip(CSV_COLUMNS[1:], columns):
                row[name] = repr(float(col[i]))
            writer.writerow(row)
    assert (tmp_path / "trace.csv").read_bytes() == \
        (tmp_path / "trace_ref.csv").read_bytes()

    series = {"a": values, "b": values[:2]}
    write_tidy_csv(tmp_path / "tidy.csv", series)
    with (tmp_path / "tidy_ref.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "metric", "value"])
        for metric, col in series.items():
            for t, v in enumerate(col, start=1):
                writer.writerow([t, metric, repr(float(v))])
    assert (tmp_path / "tidy.csv").read_bytes() == \
        (tmp_path / "tidy_ref.csv").read_bytes()


@pytest.mark.parametrize("name", ["a,b", 'say "x"', "a\rb", "a\nb"])
def test_tidy_csv_refuses_metric_names_csv_would_quote(tmp_path, name):
    with pytest.raises(ValueError, match="metric names"):
        write_tidy_csv(tmp_path / "tidy.csv", {"ok": np.ones(2), name: np.ones(2)})
    assert not (tmp_path / "tidy.csv").exists()


def test_write_artifact_makes_parents_and_keeps_line_ends(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    write_artifact(path, "x\r\ny\n\u00b5\n")
    assert path.read_bytes() == b"x\r\ny\n\xc2\xb5\n"
    write_artifact(str(path), "z\n")  # a str path too, and the file is replaced
    assert path.read_bytes() == b"z\n"


# ---------------------------------------------------------------------------
# word frequencies
# ---------------------------------------------------------------------------


def test_word_frequency_examples():
    assert word_frequency((0,), (0, 1, 0, 1)) == 0.5
    assert word_frequency((0, 1), (0, 1, 0, 1)) == pytest.approx(2.0 / 3.0)
    assert word_frequency((1, 1), (0, 1, 0, 1)) == 0.0


def test_word_frequency_domain_errors():
    with pytest.raises(ValueError):
        word_frequency((), (0, 1))
    with pytest.raises(ValueError):
        word_frequency((0, 1, 0), (0, 1))
    with pytest.raises(ValueError, match="window length"):
        word_frequency((0,) * (MAX_WINDOW + 1), (0,) * 40)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
       st.lists(st.integers(0, 1), min_size=3, max_size=30))
@settings(max_examples=40)
def test_word_frequency_matches_naive_scan(w, seq):
    if len(seq) < len(w):
        return
    naive = sum(
        1 for i in range(len(seq) - len(w) + 1) if tuple(seq[i : i + len(w)]) == w
    ) / (len(seq) - len(w) + 1)
    assert word_frequency(w, seq) == pytest.approx(naive, rel=1e-15)


def _naive_windows(seq, k, start, stride):
    return [tuple(seq[p : p + k]) for p in range(start - 1, len(seq) - k + 1, stride)]


def _word(code, k):
    return tuple((code >> (k - 1 - i)) & 1 for i in range(k))


@given(st.lists(st.integers(0, 1), max_size=40), st.integers(1, 4),
       st.integers(1, 8), st.integers(1, 6))
@example(seq=[0, 1], k=4, start=1, stride=1)  # len - k + 1 < 0 as a slice end
@settings(max_examples=150)
def test_window_statistics_match_naive_scan(seq, k, start, stride):
    windows = _naive_windows(seq, k, start, stride)
    counts = _window_counts(seq, k, start, stride)
    assert counts.tolist() == [windows.count(_word(c, k)) for c in range(1 << k)]
    if not windows:
        with pytest.raises(ValueError):
            window_distribution(seq, k, start, stride)
        return
    expected = {w: windows.count(w) / len(windows) for w in set(windows)}
    assert window_distribution(seq, k, start, stride) == expected


@given(st.lists(st.integers(0, 1), max_size=60), st.integers(1, 4),
       st.integers(1, 8), st.integers(1, 8), st.integers(1, 6))
@settings(max_examples=150)
def test_stationarity_window_check_matches_naive_scan(seq, k, a, b, stride):
    wa = _naive_windows(seq, k, a, stride)
    wb = _naive_windows(seq, k, b, stride)
    if not (wa and wb):
        with pytest.raises(ValueError):
            stationarity_window_check(seq, k, a, b, stride)
        return
    n_a, n_b = len(wa), len(wb)
    expected = []
    for w in sorted(set(wa) | set(wb)):
        fa, fb = wa.count(w) / n_a, wb.count(w) / n_b
        pooled = (fa * n_a + fb * n_b) / (n_a + n_b)
        se = math.sqrt(max(pooled * (1.0 - pooled), 0.0) * (1.0 / n_a + 1.0 / n_b))
        expected.append((w, fa, fb, se))
    assert stationarity_window_check(seq, k, a, b, stride) == expected


@given(st.lists(st.integers(0, 1), max_size=60))
@example(seq=[])
@settings(max_examples=150)
def test_word_counts_fold_to_each_window_length(seq):
    counts = word_counts(seq, 3)
    assert len(counts) == 3
    for k, c in enumerate(counts, 1):
        assert c.tolist() == _window_counts(seq, k).tolist()
        if len(seq) < k:
            assert not c.any()
            continue
        present = np.flatnonzero(c)
        folded = dict(zip((_word(int(code), k) for code in present),
                          (c[present] / (len(seq) - k + 1)).tolist()))
        assert folded == window_distribution(seq, k, 1, 1)


def test_window_length_outside_counted_range_rejected():
    seq = [0, 1] * 20
    for k in (0, MAX_WINDOW + 1):
        with pytest.raises(ValueError):
            _window_counts(seq, k)
        with pytest.raises(ValueError):
            window_distribution(seq, k, 1, 1)
        with pytest.raises(ValueError):
            stationarity_window_check(seq, k, 1, 2, 3)
        with pytest.raises(ValueError):
            word_counts(seq, k)
    assert len(_window_counts(seq, MAX_WINDOW)) == 1 << MAX_WINDOW
