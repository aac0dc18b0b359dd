"""Prediction-quality functionals: cumulative log2 (KL) loss along a fixed
sequence, bounded absolute and squared per-step losses with Cesaro averages,
word frequencies and window distributions (all read from one window count,
word length k <= MAX_WINDOW), and the CSV artifacts (all written by one CSV
writer).

A per-step loss of +inf (the predictor assigned probability zero to the
realized symbol) is recorded as the float inf sentinel; cumulative sums and
Cesaro averages containing it are themselves inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .core import Predictor, SequenceSource, Word, validate_symbol

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

    def to_csv(self, path) -> list[str]:
        """Write the trace; return its cesaro_kl fields for ``write_tidy_csv``."""
        cesaro_kl = list(map(str, self.cesaro_kl.tolist()))
        _write_csv(path, CSV_COLUMNS, [
            self.steps, self.kl_bits, self.cum_kl_bits, cesaro_kl,
            self.abs_loss, self.cesaro_abs, self.sq_loss, self.cesaro_sq,
        ])
        return cesaro_kl


def _write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns (arrays, or iterables of their fields) under
    a header, one row per index, in one write.  The bytes are those of
    ``csv.writer`` (excel dialect: "," between fields, "\r\n" after each row),
    since no field needs quoting: floats print as ``str(float)`` = ``repr``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cells = [map(str, c.tolist()) if isinstance(c, np.ndarray) else c for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True)), ""]
    with path.open("w", newline="", encoding="utf-8") as f:
        f.write("\r\n".join(lines))


def write_tidy_csv(path, series: dict[str, np.ndarray | list[str]]) -> None:
    """Plot-ready long format: one row per (t, metric, value), t = 1..len
    within each metric, from a float array or a list of the fields that
    ``LossTrace.to_csv`` returns.  A metric name that CSV would quote is refused."""
    quoted = [m for m in series if any(ch in m for ch in ',"\r\n')]
    if quoted:
        raise ValueError(f"metric names must not contain , \" or line breaks: {quoted}")
    lengths = [len(v) for v in series.values()]
    _write_csv(path, ["t", "metric", "value"], [
        chain.from_iterable(map(str, range(1, n + 1)) for n in lengths),
        chain.from_iterable(repeat(m, n) for m, n in zip(series, lengths)),
        chain.from_iterable(v if isinstance(v, list) else map(
            str, np.asarray(v, dtype=np.float64).tolist()) for v in series.values()),
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


def dirac_kl(x: SequenceSource, rho: Predictor, n: int) -> LossTrace:
    """Cumulative KL loss of rho on the deterministic sequence x.

    Because the data measure is concentrated on x, the expected per-step KL
    reduces to -log2 rho(x_t | x_{1..t-1}) and the cumulative loss equals
    -log2 rho(x_{1..n}) by the chain rule.  Steps where rho assigns x_t
    probability zero are recorded as +inf and the run continues.  The
    conditionals come from one incremental pass on a fresh instance of rho.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    pred = rho.fresh()
    probs = np.empty(n, dtype=np.float64)
    for t in range(1, n + 1):
        p0, p1 = pred.predict()
        s = x.symbol_at(t)
        probs[t - 1] = p1 if s else p0
        pred.observe(s)
    return trace_from_realized_probs(probs)


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


def word_counts(seq, k: int) -> list[np.ndarray]:
    """``_window_counts(seq, i)`` for i = 1..k from one count: the i-windows are
    the (i+1)-windows summed over their last symbol, plus the last i-window."""
    counts = [_window_counts(seq, k)]
    for i in range(k - 1, 0, -1):
        counts.insert(0, counts[0].reshape(-1, 2).sum(axis=1) + _window_counts(seq[-i:], i))
    return counts


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

