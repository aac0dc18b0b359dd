"""The up-or-reset countable-state chain driving the tracking measure.

State space is {1, 2, 3, ...}; from state j the chain moves to j+1 with
probability p_j = j^2/(j+1)^2 and resets to state 1 otherwise.  The first
return to state 1 after exactly n steps has probability
f(n) = (1 - p_n) / n^2 = (2n+1) / (n^2 (n+1)^2), which telescopes:
partial sums of f equal 1 - 1/(N+1)^2, and the mean return time converges
to pi^2/6.  The stationary weights are therefore pi_j = pi1 / j^2 with
pi1 = 6/pi^2; the balance equations pi_{j+1} = pi_j * p_j hold exactly.

Truncation bookkeeping: the stationary mass above a level J is bounded by
pi1/J (integral bound on sum of 1/j^2), which is the certified tail mass
carried by downstream enclosures.

Sampling needs no truncation, because every law it draws from has a closed
form: from state j the chain makes at least k more up-moves with
probability j^2/(j+k)^2, so an excursion from state 1 has P(length >= m) =
1/m^2.  Run lengths are drawn by inversion and the stationary start by
rejection (Devroye, Non-Uniform Random Variate Generation, 1986, II.2-3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: stationary weight of state 1, 6/pi^2
PI1 = 6.0 / math.pi**2


def transition_prob(j: int) -> float:
    """p_j: probability of moving up from state j (reset has 1 - p_j)."""
    if j < 1:
        raise ValueError(f"state must be >= 1, got {j}")
    return (j * j) / ((j + 1) * (j + 1))


def first_return_prob(n: int) -> float:
    """Probability that the first return to state 1 takes exactly n steps."""
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    return (2 * n + 1) / (n * n * (n + 1) * (n + 1))


def return_prob_partial_sum(N: int) -> float:
    """Compensated partial sum of the first-return law up to N steps."""
    if N < 1:
        raise ValueError("N must be >= 1")
    n = np.arange(1, N + 1, dtype=np.float64)
    terms = (2.0 * n + 1.0) / (n * n * (n + 1.0) * (n + 1.0))
    return math.fsum(terms.tolist())


def mean_return_time(N: int) -> tuple[float, float]:
    """(partial sum of n * f(n) up to N, certified remainder bound).

    The remainder bound is 3/N since n*f(n) < 3/n^2 and the tail of 1/n^2
    past N is at most 1/N.  The enclosure [sum, sum + 3/N] contains the
    limit pi^2/6; its midpoint is the point estimate.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n = np.arange(1, N + 1, dtype=np.float64)
    terms = (2.0 * n + 1.0) / (n * (n + 1.0) * (n + 1.0))
    return math.fsum(terms.tolist()), 3.0 / N


def stationary_weight(j: int) -> float:
    """pi_j = pi1 / j^2, the unique stationary distribution."""
    if j < 1:
        raise ValueError(f"state must be >= 1, got {j}")
    return PI1 / (j * j)


@dataclass(frozen=True)
class ChainSpec:
    """Truncation policy for computations over the infinite state space.

    truncation_level J is the largest explicitly represented initial state;
    tail_mass_bound certifies the stationary mass above J.
    """

    truncation_level: int = 10_000

    def __post_init__(self) -> None:
        if self.truncation_level < 1:
            raise ValueError("truncation_level must be >= 1")

    @property
    def tail_mass_bound(self) -> float:
        return PI1 / self.truncation_level


@dataclass
class StatePath:
    """A sampled trajectory of the chain."""

    states: np.ndarray


def sample_stationary_state(rng: np.random.Generator) -> int:
    """Draw an initial state from the stationary law pi1/j^2, exactly, by
    rejection: propose j = floor(1/W), W = 1 - U in (0, 1], whose law is
    1/(j(j+1)), and accept with probability (j+1)/(2j)."""
    while True:
        j = math.floor(1.0 / (1.0 - rng.random()))
        if 2 * j * rng.random() < j + 1:
            return j


def sample_path(n: int, seed: int, start: int | None = None) -> StatePath:
    """Length-n state path; ``start=None`` draws the initial state from the
    stationary law, ``start=j`` pins it.  Deterministic given the seed."""
    if n < 1:
        raise ValueError("path length must be >= 1")
    rng = np.random.default_rng(seed)
    if start is None:
        j0 = sample_stationary_state(rng)
    elif start < 1:
        raise ValueError("fixed start state must be >= 1")
    else:
        j0 = start
    # first run j0, j0+1, ...: k more up-moves with P(>= k) = j0^2/(j0+k)^2
    k0 = math.floor(j0 * ((1.0 - rng.random()) ** -0.5 - 1.0))
    first = min(k0 + 1, n)
    # the rest: runs 1, 2, ..., L from state 1 with P(L >= m) = 1/m^2,
    # about pi1 of them per step
    lengths, covered = [], first
    while covered < n:
        draws = rng.random(int(1.1 * PI1 * (n - covered)) + 64)
        lengths.append(np.floor((1.0 - draws) ** -0.5).astype(np.int64))
        covered += int(lengths[-1].sum())
    # each step's state is its offset from the start of its run, plus one
    starts = first + np.cumsum(np.concatenate([[0], *lengths]))
    starts = starts[starts < n]
    run_start = np.zeros(n, dtype=np.int64)
    run_start[starts] = starts
    np.maximum.accumulate(run_start, out=run_start)
    states = np.arange(1, n + 1, dtype=np.int64) - run_start
    states[:first] += j0 - 1
    return StatePath(states=states)


def chain_info(max_n: int, trunc: int) -> dict:
    """Summary tables and certified constants (CLI backend)."""
    if max_n < 1 or trunc < 1:
        raise ValueError("max_n and trunc must be >= 1")
    mrt, remainder = mean_return_time(trunc)
    return {
        "p": [transition_prob(j) for j in range(1, max_n + 1)],
        "f11": [first_return_prob(n) for n in range(1, max_n + 1)],
        "pi": [stationary_weight(j) for j in range(1, max_n + 1)],
        "pi1": PI1,
        "mean_return_time": {
            "partial_sum": mrt,
            "remainder_bound": remainder,
            "estimate": mrt + remainder / 2.0,
            "lower": mrt,
            "upper": mrt + remainder,
        },
        "first_return_partial_sum": return_prob_partial_sum(trunc),
        "tail_mass_bound": ChainSpec(trunc).tail_mass_bound,
        "trunc": trunc,
    }
