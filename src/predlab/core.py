"""Binary alphabet, certified enclosures of probabilities in log2 space, the
predictor contract, and deterministic sequence sources.

Conventions used throughout the package:

* symbols are the ints 0 and 1; a Word is a tuple of symbols (the empty
  tuple is the empty past);
* probabilities of whole words are carried in log base 2 ("bits"), with
  probability zero represented by -inf (saturating: adding -inf keeps -inf,
  logaddexp2 with -inf is the identity);
* next-symbol conditionals are carried as a linear pair (p0, p1) that sums
  to 1 by construction, so exact comparisons against 1/2 are meaningful.
"""

from __future__ import annotations

import functools
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Symbol = int
Word = tuple[int, ...]

#: log2 of probability zero; arithmetic with it saturates.
IMPOSSIBLE = float("-inf")
#: floats summed left to right, as the builtin sum does before Python 3.12
sum_left = functools.partial(functools.reduce, operator.add)


class SourceExhaustedError(ValueError):
    """A finite sequence source was asked for a symbol past its end."""


def validate_symbol(s: int) -> int:
    if s not in (0, 1):
        raise ValueError(f"symbol must be 0 or 1, got {s!r}")
    return s


def parse_bits(text: str) -> Word:
    """Parse a bitstring like '0101' into a Word; rejects other characters."""
    word = []
    for ch in text:
        if ch == "0":
            word.append(0)
        elif ch == "1":
            word.append(1)
        else:
            raise ValueError(f"invalid bit character {ch!r}")
    return tuple(word)


def format_bits(word) -> str:
    return "".join("1" if s else "0" for s in word)


@dataclass(frozen=True)
class LogInterval:
    """Certified enclosure [lower, upper] of a probability, in log2 space.

    ``width`` is ``width_prob`` when that is given: a marginal below 1
    carries there the certified mass excluded by truncation, so refining the
    truncation tightens it.  Otherwise the width is upper - lower in
    probability space, the rounding term included.
    """

    lower_log2: float
    upper_log2: float
    width_prob: float | None = None

    def __post_init__(self) -> None:
        if not self.lower_log2 <= self.upper_log2:  # NaN fails too
            raise ValueError(
                f"need lower <= upper, got {self.lower_log2}, {self.upper_log2}"
            )

    @property
    def lower_prob(self) -> float:
        return float(np.exp2(self.lower_log2))

    @property
    def upper_prob(self) -> float:
        return float(np.exp2(self.upper_log2))

    @property
    def width(self) -> float:
        """Width in probability space."""
        if self.width_prob is not None:
            return self.width_prob
        return self.upper_prob - self.lower_prob

    def contains(self, p: float) -> bool:
        return self.lower_prob <= p <= self.upper_prob


class Predictor(ABC):
    """Conditional next-symbol distribution oracle.

    A predictor is advanced incrementally: ``predict()`` returns the pair
    (P(next=0 | seen), P(next=1 | seen)) and ``observe(s)`` appends s to the
    seen past.  ``conditional(past)`` answers the same query statelessly on a
    fresh instance; the two routes must agree (tested).  Implementations
    guarantee p0 + p1 == 1 by deriving one coordinate as the complement of
    the other, so min(p0, p1) <= 1/2 holds exactly in floating point.
    """

    @abstractmethod
    def fresh(self) -> "Predictor":
        """A new instance of the same predictor with empty past."""

    @abstractmethod
    def predict(self) -> tuple[float, float]:
        """(P(next=0 | past so far), P(next=1 | past so far)), linear."""

    @abstractmethod
    def observe(self, symbol: Symbol) -> None:
        """Advance the internal past by one symbol."""

    def conditional(self, past: Word) -> tuple[float, float]:
        """Stateless query: distribution of the next symbol given ``past``."""
        p = self.fresh()
        for s in past:
            p.observe(validate_symbol(s))
        return p.predict()


# ---------------------------------------------------------------------------
# Sequence sources
# ---------------------------------------------------------------------------


class SequenceSource(ABC):
    """A rule producing an arbitrary-length deterministic binary sequence.

    ``symbol_at(t)`` is 1-indexed and pure: the same source parameters yield
    the same symbol on every call and every run.
    """

    #: a name for the source: the source-spec string that rebuilds it where
    #: the CLI grammar has one, a label otherwise; the library never reads it
    spec: str = ""

    @abstractmethod
    def symbol_at(self, t: int) -> Symbol:
        """The t-th symbol, t >= 1."""

    @abstractmethod
    def prefix_array(self, n: int) -> np.ndarray:
        """First n symbols as a uint8 array that the caller owns: no later
        read changes it.  A negative n raises ValueError."""

    def prefix(self, n: int) -> Word:
        return tuple(self.prefix_array(n).tolist())


class PeriodicSource(SequenceSource):
    """Endless repetition of a fixed nonempty pattern."""

    def __init__(self, pattern) -> None:
        if isinstance(pattern, str):
            pattern = parse_bits(pattern)
        self.pattern = tuple(validate_symbol(s) for s in pattern)
        if not self.pattern:
            raise ValueError("pattern must be nonempty")
        self.spec = f"periodic:{format_bits(self.pattern)}"

    def symbol_at(self, t: int) -> Symbol:
        if t < 1:
            raise ValueError("t must be >= 1")
        return self.pattern[(t - 1) % len(self.pattern)]

    def prefix_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        base = np.asarray(self.pattern, dtype=np.uint8)
        return np.tile(base, -(-n // len(base)))[:n]  # a new array per call


class ChampernowneSource(SequenceSource):
    """Concatenated binary expansions of 0, 1, 2, ...: 0 1 10 11 100 ..."""

    spec = "champernowne"

    def symbol_at(self, t: int) -> Symbol:
        if t < 1:
            raise ValueError("t must be >= 1")
        # positions 1..2 hold "0" and "1"; integers with L bits (L >= 2)
        # contribute a block of L * 2^(L-1) symbols.
        if t <= 2:
            return t - 1
        pos = t - 3  # 0-based offset into the blocks for L >= 2
        length = 2
        while pos >= length * (1 << (length - 1)):
            pos -= length * (1 << (length - 1))
            length += 1
        number = (1 << (length - 1)) + pos // length
        return (number >> (length - 1 - pos % length)) & 1

    def prefix_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        blocks = [np.array([0, 1], dtype=np.uint8)]
        size, length = 2, 2
        while size < n:
            # the L-bit integers still needed, one row of L bits each
            count = min(1 << (length - 1), -(-(n - size) // length))
            numbers = np.arange(1 << (length - 1), (1 << (length - 1)) + count)
            shifts = np.arange(length - 1, -1, -1)
            blocks.append(((numbers[:, None] >> shifts) & 1).astype(np.uint8).ravel())
            size += count * length
            length += 1
        return np.concatenate(blocks)[:n]


class CoinFlipSource(SequenceSource):
    """Deterministic pseudorandom bits from a 64-bit seeded PCG64 stream.

    The stream comes in blocks of 2^16 symbols, each drawn from 8192 raw
    64-bit outputs (8 symbols per output), so block b starts 8192 b outputs
    into the stream.  Every read draws whole blocks from one generator,
    advanced to the first block it needs: ``prefix_array`` draws its blocks
    afresh in one draw and keeps none, and ``symbol_at`` draws only the block
    holding its index and keeps that one block, so ascending reads draw each
    block once and a far index costs one block, not the whole prefix.
    """

    _BLOCK = 1 << 16
    _BLOCK_DRAWS = _BLOCK // 8

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.spec = f"coin:{self.seed}"
        self._last = (-1, np.empty(0, dtype=np.uint8))  # the block symbol_at read last

    def _blocks(self, b: int, count: int) -> np.ndarray:
        """Blocks b .. b + count - 1 of the stream, in one draw."""
        bits = np.random.PCG64(self.seed).advance(self._BLOCK_DRAWS * b)
        return np.random.Generator(bits).integers(
            0, 2, size=count * self._BLOCK, dtype=np.uint8)

    def symbol_at(self, t: int) -> Symbol:
        if t < 1:
            raise ValueError("t must be >= 1")
        b, i = divmod(t - 1, self._BLOCK)
        if self._last[0] != b:
            self._last = (b, self._blocks(b, 1))
        return int(self._last[1][i])

    def prefix_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        return self._blocks(0, -(-n // self._BLOCK))[:n]


class FileSource(SequenceSource):
    """Bits read from a text file: one ASCII '0'/'1' per symbol, lines
    concatenated; any other character is rejected.  Finite: reading past the
    end raises SourceExhaustedError."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.spec = f"file:{self.path}"
        bits = []
        for line in self.path.read_text(encoding="ascii").splitlines():
            bits.extend(parse_bits(line))
        self._bits = np.asarray(bits, dtype=np.uint8)

    def symbol_at(self, t: int) -> Symbol:
        if t < 1:
            raise ValueError("t must be >= 1")
        if t > len(self._bits):
            raise SourceExhaustedError(
                f"source exhausted: {self.path} holds {len(self._bits)} symbols, "
                f"index {t} requested"
            )
        return int(self._bits[t - 1])

    def prefix_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        if n > len(self._bits):
            raise SourceExhaustedError(
                f"source exhausted: {self.path} holds {len(self._bits)} symbols, "
                f"prefix {n} requested"
            )
        return self._bits[:n].copy()


class DiracPredictor(Predictor):
    """Predictor concentrated on one fixed sequence.

    Assigns probability 1 to x_t given any past of length t-1.  Off the
    support (pasts that are not prefixes of x) this is a measure-zero
    convention; it never affects losses evaluated along x itself.
    """

    def __init__(self, source: SequenceSource) -> None:
        self.source = source
        self._t = 1

    def fresh(self) -> "DiracPredictor":
        return DiracPredictor(self.source)

    def predict(self) -> tuple[float, float]:
        nxt = self.source.symbol_at(self._t)
        return (1.0, 0.0) if nxt == 0 else (0.0, 1.0)

    def observe(self, symbol: Symbol) -> None:
        validate_symbol(symbol)
        self._t += 1
