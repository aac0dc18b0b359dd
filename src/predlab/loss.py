"""Prediction-quality functionals: cumulative log2 (KL) loss along a fixed
sequence, Monte-Carlo expected KL between measures, bounded absolute and
squared per-step losses with Cesaro averages, word frequencies and window
distributions (all read from one window count, word length k <= MAX_WINDOW),
and the CSV artifacts (all written by one CSV writer).

A per-step loss of +inf (the predictor assigned probability zero to the
realized symbol) is recorded as the float inf sentinel; cumulative sums and
Cesaro averages containing it are themselves inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DiracPredictor, Predictor, SequenceSource, Word, validate_symbol

_LN2 = math.log(2.0)

CSV_COLUMNS = [
    "step", "kl_bits", "cum_kl_bits", "cesaro_kl",
    "abs", "cesaro_abs", "sq", "cesaro_sq",
]


@dataclass
class LossTrace:
    """Per-step and cumulative loss records for one predictor on one sequence.

    kl_bits[t-1] = -log2 p_t where p_t is the probability the predictor gave
    the realized symbol; abs_loss = 1 - p_t; sq_loss = 2 (1 - p_t)^2 (the
    two-point Brier score, range [0, 2]).
    """

    kl_bits: np.ndarray
    abs_loss: np.ndarray
    sq_loss: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.kl_bits)
        if not (len(self.abs_loss) == len(self.sq_loss) == n):
            raise ValueError("per-step columns must have equal length")

    def __len__(self) -> int:
        return len(self.kl_bits)

    @property
    def steps(self) -> np.ndarray:
        return np.arange(1, len(self) + 1)

    @property
    def cum_kl_bits(self) -> np.ndarray:
        return np.cumsum(self.kl_bits)

    @property
    def cesaro_kl(self) -> np.ndarray:
        return self.cum_kl_bits / self.steps

    @property
    def cesaro_abs(self) -> np.ndarray:
        return np.cumsum(self.abs_loss) / self.steps

    @property
    def cesaro_sq(self) -> np.ndarray:
        return np.cumsum(self.sq_loss) / self.steps

    def liminf_proxy(self) -> float:
        """Minimum Cesaro KL average over the tail window [n/2, n]: a
        monotone-safe finite-horizon upper estimate of the limit inferior."""
        start = max(len(self) // 2, 1)
        return float(np.min(self.cesaro_kl[start - 1:]))

    def to_csv(self, path) -> None:
        _write_csv(path, CSV_COLUMNS, [
            self.steps, self.kl_bits, self.cum_kl_bits, self.cesaro_kl,
            self.abs_loss, self.cesaro_abs, self.sq_loss, self.cesaro_sq,
        ])


def _write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns under a header, one row per index, in one
    write.  The bytes are those of ``csv.writer`` (excel dialect: "," between
    fields, "\r\n" after each row), since no field needs quoting: floats
    print as ``str(float)``, which equals ``repr(float)``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cells = [map(str, c.tolist()) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True)), ""]
    with path.open("w", newline="", encoding="utf-8") as f:
        f.write("\r\n".join(lines))


def write_tidy_csv(path, series: dict[str, np.ndarray]) -> None:
    """Plot-ready long format: one row per (t, metric, value), t = 1..len
    within each metric.  A metric name that CSV would quote is refused."""
    quoted = [m for m in series if any(ch in m for ch in ',"\r\n')]
    if quoted:
        raise ValueError(f"metric names must not contain , \" or line breaks: {quoted}")
    lengths = [len(v) for v in series.values()]
    _write_csv(path, ["t", "metric", "value"], [
        np.concatenate([np.arange(1, n + 1) for n in lengths]),
        np.repeat(list(series), lengths),
        np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()]),
    ])


def trace_from_realized_probs(probs) -> LossTrace:
    """Build a LossTrace from the per-step probabilities the predictor
    assigned to the realized symbols."""
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore"):
        kl = np.where(p > 0.0, -np.log2(p), np.inf)
    kl = kl + 0.0  # fold -0.0 to +0.0
    miss = 1.0 - p
    return LossTrace(kl_bits=kl, abs_loss=miss, sq_loss=2.0 * miss * miss)


def realized_conditionals(x: SequenceSource, rho: Predictor, n: int) -> np.ndarray:
    """rho(x_t | x_{1..t-1}) for t = 1..n, via one incremental pass on a
    fresh instance of rho."""
    if n < 1:
        raise ValueError("horizon must be >= 1")
    pred = rho.fresh()
    out = np.empty(n, dtype=np.float64)
    for t in range(1, n + 1):
        p0, p1 = pred.predict()
        s = x.symbol_at(t)
        out[t - 1] = p1 if s else p0
        pred.observe(s)
    return out


def dirac_kl(x: SequenceSource, rho: Predictor, n: int) -> LossTrace:
    """Cumulative KL loss of rho on the deterministic sequence x.

    Because the data measure is concentrated on x, the expected per-step KL
    reduces to -log2 rho(x_t | x_{1..t-1}) and the cumulative loss equals
    -log2 rho(x_{1..n}) by the chain rule.  Steps where rho assigns x_t
    probability zero are recorded as +inf and the run continues.
    """
    return trace_from_realized_probs(realized_conditionals(x, rho, n))


def _kl_term(q: float, r: float) -> float:
    """q * log2(q / r), with 0 log 0 = 0 and q > 0, r = 0 -> inf."""
    if q <= 0.0:
        return 0.0
    if r <= 0.0:
        return math.inf
    return q * math.log2(q / r)


def expected_kl(
    mu,
    rho: Predictor,
    n: int,
    num_samples: int = 100,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate (value, stderr) of the expected cumulative KL
    divergence between mu- and rho-conditionals over horizon n.

    ``mu`` must expose ``predictor()`` and ``sample_trajectory(n, seed)``
    (true for both the tracking measure and Dirac sources).  Per-trajectory
    seeds are spawned deterministically from ``seed``.  For a Dirac mu every
    trajectory is the same, the estimate equals ``dirac_kl``'s cumulative
    value, and the stderr is zero.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    child_seeds = np.random.SeedSequence(seed).generate_state(num_samples)
    totals = np.empty(num_samples, dtype=np.float64)
    for i in range(num_samples):
        y = mu.sample_trajectory(n, int(child_seeds[i]))
        mu_pred = mu.predictor()
        rho_pred = rho.fresh()
        acc = 0.0
        for t in range(n):
            q0, q1 = mu_pred.predict()
            r0, r1 = rho_pred.predict()
            acc += _kl_term(q0, r0) + _kl_term(q1, r1)
            s = int(y[t])
            mu_pred.observe(s)
            rho_pred.observe(s)
        totals[i] = acc
    if np.isinf(totals).any():
        return math.inf, math.inf
    estimate = float(np.mean(totals))
    if num_samples == 1:
        return estimate, 0.0
    stderr = float(np.std(totals, ddof=1) / math.sqrt(num_samples))
    return estimate, stderr


class DiracMeasure:
    """Measure view of a deterministic sequence, for ``expected_kl``."""

    def __init__(self, source: SequenceSource) -> None:
        self.source = source

    def predictor(self) -> Predictor:
        return DiracPredictor(self.source)

    def sample_trajectory(self, n: int, seed: int) -> np.ndarray:
        return self.source.prefix_array(n)


#: largest k for the counted window statistics: they hold 2^k bins
MAX_WINDOW = 16


def _window_counts(seq, k: int, start: int = 1, stride: int = 1) -> np.ndarray:
    """Counts of the length-k windows of seq starting at positions start,
    start+stride, ... (1-indexed), indexed by the window read as a k-bit
    code, first symbol most significant."""
    if not 1 <= k <= MAX_WINDOW:
        raise ValueError(f"window length must be in 1..{MAX_WINDOW}")
    if start < 1 or stride < 1:
        raise ValueError("start and stride must be >= 1")
    seq = np.asarray(seq, dtype=np.uint8)
    end = max(len(seq) - k + 1, 0)  # one past the last window start
    codes = seq[start - 1 : end : stride].astype(np.intp)
    for i in range(1, k):
        codes <<= 1
        codes |= seq[start - 1 + i : end + i : stride]
    return np.bincount(codes, minlength=1 << k)


def _code_words(codes: np.ndarray, k: int) -> list[Word]:
    """The k-bit codes as words, first symbol most significant."""
    bits = (codes[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return list(map(tuple, bits.tolist()))


def window_distribution(seq, k: int, start: int, stride: int) -> dict[Word, float]:
    """Empirical distribution of the length-k windows starting at positions
    start, start+stride, ... (1-indexed) of seq; words that never occur are
    absent."""
    counts = _window_counts(seq, k, start, stride)
    total = int(counts.sum())
    if total == 0:
        raise ValueError("sequence too short for any window")
    present = np.flatnonzero(counts)
    return dict(zip(_code_words(present, k), (counts[present] / total).tolist()))


def word_frequency(w: Word, seq) -> float:
    """Frequency of overlapping occurrences of w among the |seq|-|w|+1
    windows of seq, for 1 <= |w| <= MAX_WINDOW."""
    code = 0  # w as a |w|-bit code, first symbol most significant
    for s in w:
        code = 2 * code + validate_symbol(s)
    if len(seq) < len(w):
        raise ValueError("sequence shorter than pattern")
    counts = _window_counts(seq, len(w))
    return float(counts[code] / counts.sum())


def stationarity_window_check(
    seq, k: int, offset_a: int, offset_b: int, stride: int = 100
) -> list[tuple[Word, float, float, float]]:
    """Compare length-k window distributions taken at two within-stride
    offsets of one trajectory.

    Returns (word, freq_a, freq_b, stderr) per word seen at either offset, in
    word order, where stderr is the pooled binomial standard error of the
    difference; under stationarity the differences are within a few stderr.
    """
    counts_a = _window_counts(seq, k, offset_a, stride)
    counts_b = _window_counts(seq, k, offset_b, stride)
    n_a, n_b = int(counts_a.sum()), int(counts_b.sum())
    if n_a == 0 or n_b == 0:
        raise ValueError("sequence too short for any window")
    fa, fb = counts_a / n_a, counts_b / n_b
    pooled = (fa * n_a + fb * n_b) / (n_a + n_b)
    se = np.sqrt(np.maximum(pooled * (1.0 - pooled), 0.0) * (1.0 / n_a + 1.0 / n_b))
    present = np.flatnonzero(counts_a + counts_b)
    return list(zip(_code_words(present, k), fa[present].tolist(),
                    fb[present].tolist(), se[present].tolist()))


def pinsker_abs_bound(cesaro_kl_bits):
    """Upper bound sqrt(eps * ln 2 / 2) on the Cesaro absolute loss implied
    by a Cesaro KL of eps bits (total-variation form of Pinsker's inequality
    plus Jensen), elementwise; an infinite KL gives an infinite bound."""
    return np.sqrt(np.maximum(cesaro_kl_bits, 0.0) * _LN2 / 2.0)


def check_pinsker(trace: LossTrace, slack: float = 1e-6) -> bool:
    """Whether every horizon of the trace satisfies the Pinsker corollary
    cesaro_abs <= sqrt(cesaro_kl * ln2 / 2) + slack."""
    bound = pinsker_abs_bound(trace.cesaro_kl) + slack
    return not bool(np.any(trace.cesaro_abs > bound))
