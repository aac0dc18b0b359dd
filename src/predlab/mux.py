"""The tracking measure mu_x: a countable-state hidden-chain process whose
state-j emission is the j-th symbol of a fixed target sequence x.

Started from the chain's stationary law, the induced symbol process is
stationary and ergodic, and it assigns the target prefix x_{1..n} probability
at least pi1 / (n+1)^2 (the never-reset path from state 1), so its cumulative
log2 loss on x is at most -log2(pi1) + 2 log2(n+1) = o(n).

Numerics.  Word marginals come from a forward recursion over initial states
1..J that keeps only the alive states (emissions matched so far), in two
blocks.  Along a path that never resets the weights telescope,
pi1/j^2 * prod_{i=j}^{m-1} i^2/(i+1)^2 = pi1/m^2, so the *never-reset block*
stores only its origins, the initial states that still match.  While they
are evenly spaced with stride s they are a range, whose states at one step
are one run of one residue class mod s: its sums come in closed form, in
O(1) (``_class_sums``), and an int32 count per class tells whether the run
splits by emission (``MuX._class_counts``).  Otherwise (a split or an index
array) they are formed on the fly in chunks of _CHUNK states, in O(block).
The *reset-born block*, the states below t, keeps explicit weights: up to
_SMALL_BLOCK states as tuples, stepped term by term in Python floats, and as
int64 and float64 arrays above.  A never-reset block joins it as a range of
fewer than _MIN_BLOCK origins or an index array of at most _CHUNK; a longer
index array stays a block: its int32 origins, formed _CHUNK at a time, take
less memory than explicit weights.  Both blocks split their sums by emission,
as dots against the 0/1 emission mask or term by term.  States stay at most
_MAX_STATE = 2^31 - 1, the int32 limit of the class counts and the origins.

``dropped_mass`` certifies the weight left out: the tail pi1/J, plus
weights too small to multiply without underflow.  Each weight counts the
roundings behind it and a sum of n terms in any order adds n - 1 (Higham,
Accuracy and Stability of Numerical Algorithms, chs. 3-4); a range's closed
form carries _RANGE_ROUNDINGS, whatever its length.  So the tracked total T
is within a factor 1 +- gamma_k = k u / (1 - k u) of exact:

    T (1 - gamma_k) <= mu_x(y) <= T (1 + gamma_k) + dropped_mass,

with a tracked power-of-two rescale against underflow.  Conditional ends are
formed in linear space, within the spare roundings of gamma_k; log2 ends,
rounded outward, are formed only where an interval is reported.  Dropped
trajectories are never re-examined, so the width never shrinks below
dropped_mass; for long pasts it can exceed the marginal itself, and the
*point* predictor therefore does not midpoint the enclosures.  It serves the
conditionals of the truncated measure (the chain started from the stationary
law restricted to 1..J, renormalized), whose cumulative loss telescopes to T.
"""

from __future__ import annotations

import math
import sys
from itertools import compress
from typing import NamedTuple

import numpy as np

from .chain import PI1, ChainSpec, sample_path, stationary_weight, transition_prob
from .core import (
    IMPOSSIBLE,
    LogInterval,
    Predictor,
    SequenceSource,
    SourceExhaustedError,
    Symbol,
    Word,
    validate_symbol,
)

#: rescale the forward weights when their total drops below this
_RESCALE_FLOOR = 1e-270
#: weights below this join dropped_mass, so that every product of a weight
#: and a transition probability (>= 2^-62 below state 2^61) stays normal and
#: its rounding relative
_WEIGHT_FLOOR = 2.0**-960
_U = 2.0**-53  # unit roundoff
#: roundings behind a stationary weight pi1/j^2 and behind a transition
#: probability p_j or 1 - p_j; the spare ones cover forming enclosure ends
#: from a sum: 2 for a marginal's T (1 -+ r), 6 for each conditional end
_INIT_ROUNDINGS, _TABLE_ROUNDINGS, _SPARE_ROUNDINGS = 6, 3, 8
#: outward slack per bit of log2 magnitude, for an end's log2, adding the
#: scale, logaddexp2 with the dropped mass and the exp2 that reads it back
_LOG_SLACK = 8.0 * _U

_NO_ORIGINS = range(0)
_ZERO = np.zeros(1, dtype=np.int64)
#: a shorter range joins the reset-born block: its tuple step costs less than _range_sums
_MIN_BLOCK = 64
#: a reset-born block of at most this many states is held as tuples (README, Numerics)
_SMALL_BLOCK = 18
#: weights formed on the fly (a block's sums origin by origin) and index
#: arrays of origins are formed this many states at a time; an index array of
#: at most this many origins joins the reset-born block, a longer one stays int32
_CHUNK = 1 << 15
_MAX_STATE = int(np.iinfo(np.int32).max)  # the largest state: int32 counts and origins
#: B_14, B_12, ..., B_2: the Euler-Maclaurin corrections of _class_sums
_BERNOULLI = (7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6)
#: roundings of a range's sums: _class_sums' 11 + 16, then pi1 times a sum
_RANGE_ROUNDINGS = 11 + 16 + _INIT_ROUNDINGS


def _stationary(j: np.ndarray) -> np.ndarray:
    """pi_j = pi1/j^2 for float states j (the values of stationary_weight)."""
    return PI1 / (j * j)


def _em_bracket(v: float, w: float) -> float:
    """K(v, w) = sum_m c_m (v^m - w^m)/(v - w), c_2 = 1/2, c_(2j+1) = B_2j, 0 <= w <= v <= 1/16,
    as (v+w)/2 + v(v+w) Q[v^2, w^2] + Q(w^2), Q(x) = sum_j B_2j x^j, by Horner in v^2 over
    Horner in w^2: no difference of powers, within 3.4 u K, and K <= 0.0645 (README)."""
    y, z, h = v * v, w * w, v + w
    beta = kappa = 0.0
    for b in _BERNOULLI:
        beta = b + z * beta
        kappa = beta + y * kappa
    return v * h * kappa + z * beta + 0.5 * h  # smallest terms first


def _class_sums(c: int, s: int, n: int) -> tuple[float, float]:
    """(sum (c+ks+1)^-2, sum (c+ks)^-2 - (c+ks+1)^-2) over k < n, states c >= 1:
    a range's next-state weights and reset shares over pi1.  Term by term below
    16 s, then Euler-Maclaurin to B_14 (DLMF 2.10.1), whose remainder there is
    within 2 |B_16| 17 16^-16 <= 0.12 u and |B_16| 17 18 16^-16 <= 1.06 u."""
    ahead = reset = 0.0
    while n and c < 16 * s:  # at most 16 terms, each ratio of integers rounded once
        d = (c + 1) * (c + 1)
        ahead, reset = ahead + 1 / d, reset + (2 * c + 1) / (c * c * d)
        c, n = c + s, n - 1
    if n:
        a, b = c + 1, c + n * s + 1  # the first next state, one stride past the last
        # the integral times 1 + the end terms, I c_m H_m(s/a, s/b): 3.4 u
        ahead += n / (a * b) * (1.0 + _em_bracket(s / a, s / b))
        # the integral plus end terms E(x) <= 0.52 (x^-2 - (x+1)^-2), each within 5.4 u: 11 u
        ca, eb = c * a, (b - 1) * b
        reset += (n * (c + b) / (ca * eb) + _em_bracket(s / c, s / a) / (s * ca)
                  - _em_bracket(s / (b - 1), s / b) / (s * eb))
    return ahead, reset


def log_loss_bound(n):
    """Certified ceiling on the cumulative log2 loss of mu_x on x_{1..n}:
    -log2(pi1) + 2 log2(n+1), elementwise for an array of horizons."""
    n = np.asarray(n, dtype=np.float64)
    if not np.all(n >= 1):  # NaN fails too
        raise ValueError("horizon must be >= 1")
    return -math.log2(PI1) + 2.0 * np.log2(n + 1.0)


def _rel_err(fw) -> float:
    """gamma_k bounding the relative error of a sum of the alive weights of
    ``fw`` (a ForwardState or Transition), each carrying at most
    ``fw.roundings`` roundings (plus the spare ones)."""
    alive = len(fw.born_states) + len(fw.origins)
    ku = (fw.roundings + alive + _SPARE_ROUNDINGS) * _U
    return ku / (1.0 - ku)


def _log2_out(x: float, up: bool, scale: float = 0.0) -> float:
    """log2(x * 2**scale) rounded outward: up for an upper end, down for a
    lower one.  A subnormal x has no relative rounding bound, so a lower end
    drops to IMPOSSIBLE and an upper end is lifted to the normal range."""
    if x <= 0.0 or (x < sys.float_info.min and not up):
        return IMPOSSIBLE
    v = math.log2(max(x, sys.float_info.min)) + scale
    slack = _LOG_SLACK * (abs(v) + abs(scale) + 1.0)
    return v + slack if up else v - slack


def _as_range(origins: np.ndarray):
    """Evenly spaced origins as a range, others unchanged; O(len), or O(1) by the ends."""
    if not len(origins):
        return _NO_ORIGINS
    step = int(origins[1] - origins[0]) if len(origins) > 1 else 1
    if origins[-1] - origins[0] == step * (len(origins) - 1) and (np.diff(origins) == step).all():
        return range(int(origins[0]), int(origins[-1]) + 1, step)
    return origins


def _matching(origins, ones: np.ndarray, symbol: Symbol) -> np.ndarray:
    """The origins whose ``ones`` entry is ``symbol``, ascending, in int32, with
    ``flatnonzero`` run _CHUNK entries at a time: no 8-byte array of len(origins)."""
    k = np.count_nonzero(ones)
    out, n = np.empty(k if symbol else len(ones) - k, dtype=np.int32), 0
    for i in range(0, len(ones), _CHUNK):
        e, c = ones[i:i + _CHUNK], origins[i:i + _CHUNK]
        pos = np.flatnonzero(e if symbol else ~e)
        out[n:n + len(pos)] = pos * c.step + c.start if isinstance(c, range) else c[pos]
        n += len(pos)
    return out


class ForwardState(NamedTuple):
    """Forward weights after consuming t symbols, for the alive states
    (all consumed symbols matched) only, in two blocks; immutable.

    ``origins`` (a range or an ascending int32 array) are the never-reset
    block's initial states: at t >= 1 the path from origin j is in state
    j + t - 1 with weight pi1/(j + t - 1)^2, which carries _INIT_ROUNDINGS
    roundings.  ``born_states`` (ascending, 1-based) and ``born_weights`` are
    the reset-born block, tuples up to _SMALL_BLOCK states and arrays above:
    the states below t, plus the paths of a never-reset block that joined it
    (a range below _MIN_BLOCK origins, or an index array of at most _CHUNK,
    whose int32 form saves memory only above that), each weight within a
    factor 1 +- gamma_roundings of exact.  True weights are weights *
    2**scale_log2; only a state without a never-reset block is rescaled.
    ``total`` is the sum of all alive weights; dropped_mass is an absolute
    certified bound on all excluded weight.

    The properties ``states`` and ``weights`` read all alive states, both
    blocks, ascending, as int64 and float64 arrays made on each read; no
    weight is 0.
    """

    t: int
    born_states: tuple | np.ndarray
    born_weights: tuple | np.ndarray
    dropped_mass: float
    total: float
    scale_log2: float = 0.0
    roundings: int = 0
    origins: range | np.ndarray = _NO_ORIGINS

    @property
    def states(self) -> np.ndarray:
        o = self.origins
        if isinstance(o, range):
            o = np.arange(o.start, o.stop, o.step, dtype=np.int64)
        return np.concatenate([np.array(self.born_states, np.int64), o + max(self.t - 1, 0)])

    @property
    def weights(self) -> np.ndarray:
        j = self.states[len(self.born_states):].astype(np.float64)
        return np.concatenate([np.array(self.born_weights, dtype=np.float64), _stationary(j)])

    def log2_mass(self) -> float:
        """log2 of the tracked mass (the point value, not an enclosure end)."""
        w = self.total
        return math.log2(w) + self.scale_log2 if w > 0.0 else IMPOSSIBLE

    def interval(self) -> LogInterval:
        r, scale, d = _rel_err(self), self.scale_log2, self.dropped_mass
        lo = _log2_out(self.total * (1.0 - r), False, scale)
        hi = _log2_out(self.total * (1.0 + r), True, scale)
        if d > 0.0:
            hi = float(np.logaddexp2(hi, _log2_out(d, True)))
            hi += _LOG_SLACK * (abs(hi) + 1.0)
        hi = min(0.0, hi)
        # the width carries the truncation term only; rounding moves the
        # ends out by a further relative gamma of the tracked mass each
        width = d if hi < 0.0 or d == 0.0 else None
        return LogInterval(min(lo, hi), hi, width_prob=width)


class Transition(NamedTuple):
    """``MuX.propagate``'s pre-emission weights at time t+1.

    born_states, born_weights and roundings are as in ForwardState (the
    reset-born block now holds the new state 1 in front); born_ones marks
    its states emitting 1 (bools for a tuple block).  origins is unchanged.
    common is the one symbol all their next states emit, or None if they
    differ; then origin_ones marks the origins whose next state emits 1 (a
    view of the emission table for a range).  s0, s1 are the sums of all weights by emission.
    """

    born_states: np.ndarray
    born_weights: np.ndarray
    born_ones: np.ndarray
    origins: range | np.ndarray
    origin_ones: np.ndarray | None
    common: int | None
    s0: float
    s1: float
    roundings: int


class MuX:
    """The tracking measure for one target sequence at one truncation.

    Its tables and shared first steps are caches; queries are pure.
    """

    def __init__(self, source: SequenceSource, chain: ChainSpec | None = None) -> None:
        self.source = source
        self.chain = chain or ChainSpec()
        self._cap = 0
        # _ones[i]: does state i+1 emit 1
        self._ones = np.empty(0, dtype=bool)
        # stride -> its class counts at the current capacity (_class_counts)
        self._classes: dict[int, np.ndarray] = {}
        # (y, step) -> _shared(y, step): the first steps every past shares
        self._first: dict[tuple, ForwardState | Transition] = {}

    # -- cached tables --------------------------------------------------------

    def _ensure_tables(self, size: int) -> None:
        """The emission table for states 1..size <= _MAX_STATE; the source must serve
        indices up to size or this raises its exhaustion error.  Growing it drops
        the class counts, rebuilt on their next use.  It grows by an eighth (up to
        _MAX_STATE), so those O(capacity) rebuilds cost O(1) per state amortised,
        and the source serves at most about an eighth more symbols than the frontier reads."""
        if size <= self._cap:
            return
        if size > _MAX_STATE:
            raise ValueError(f"state {size} exceeds {_MAX_STATE}, the largest the tables hold")
        new_cap = min(max(size, -(-9 * self._cap // 8), self.chain.truncation_level + 64),
                      _MAX_STATE)
        try:
            emis = self.source.prefix_array(new_cap)
        except SourceExhaustedError:
            new_cap = size  # finite source: take exactly what the query needs
            emis = self.source.prefix_array(new_cap)
        self._ones = emis.view(bool)
        self._classes = {}
        self._cap = new_cap

    def _class_counts(self, s: int) -> np.ndarray:
        """The stride-s class counts, built on first use at this capacity.

        State index c = q s + r (state c + 1 emits _ones[c]) is row q of
        column r: a stride-s range reads rows q .. q + n - 1 of one column,
        and ``counts[q, r]`` counts the ones above row q."""
        counts = self._classes.get(s)
        if counts is None:
            counts = np.zeros((-(-self._cap // s) + 1, s), dtype=np.int32)
            counts.reshape(-1)[s:s + self._cap] = self._ones  # one row down
            counts = self._classes[s] = np.cumsum(counts, axis=0, out=counts)
        return counts

    # -- forward recursion --------------------------------------------------

    def initial_state(self) -> ForwardState:
        """Stationary weights over initial states 1..J, tail mass dropped."""
        J = self.chain.truncation_level
        self._ensure_tables(J)
        # pi1 (1 + the sum over states 2..J): up to J = 16 a plain sum, above
        # it 20 + 1 + 6 roundings; _rel_err counts 6 + J + 8 either way
        total = PI1 * (1.0 + _class_sums(1, 1, J - 1)[0])
        empty = np.empty(0, dtype=np.int64)
        return ForwardState(0, empty, np.empty(0), self.chain.tail_mass_bound,
                            roundings=_INIT_ROUNDINGS, total=total, origins=range(1, J + 1))

    def _shared(self, y: tuple, step: bool = False):
        """The state after y, a word of at most one symbol, or with ``step``
        its Transition.  Every past on this MuX shares them, so each is built
        on first use and kept, with its arrays made read-only."""
        if (y, step) not in self._first:
            new = (self.propagate(self._shared(y)) if step
                   else self.advance(self._shared(()), y[0], self._shared((), True)) if y
                   else self.initial_state())
            for a in new:
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            self._first[y, step] = new
        return self._first[y, step]

    def propagate(self, state: ForwardState) -> Transition:
        """One transition step without emission commitment: the alive states
        move up, weighted by p_j, and a new state 1 in front takes the reset
        inflow (none at t=0, whose weights already are the time-1 law).
        s0 + s1 equals the current total up to rounding."""
        t, s, w, o = state.t, state.born_states, state.born_weights, state.origins
        # state j reads x_{j+1} after its up-move; the new state 1 reads x_1.
        # The tables are sized first: a strided view past their end would
        # come back short instead of failing
        top = int(s[-1]) + 1 if len(s) else 1
        if len(o):
            top = max(top, int(o[-1]) + t)
        self._ensure_tables(top)
        # the never-reset block's reset share and sums, and the roundings its
        # sums add to the weights they feed
        inflow = b0 = b1 = 0.0
        origin_ones, common, block_roundings = None, None, 0
        if len(o):
            sums = self._range_sums(o, t) if t and isinstance(o, range) else None
            inflow, b0, b1, origin_ones, common, block_roundings = (
                sums or self._direct_sums(o, t))
        # the born dot product's terms each add a product and a sum
        roundings = state.roundings + _TABLE_ROUNDINGS + len(s) + block_roundings
        if t == 0:
            states, v, roundings, ones = s, w, state.roundings, self._ones[s - 1]
        elif isinstance(s, tuple):  # a small block: the same terms in Python floats
            table, reset, up, ones, sums = self._ones, 0.0, [], [], [0.0, 0.0]
            for j, x in zip(s, w):
                c, e = j + 1, table.item(j)
                reset += x * ((j + c) / (c * c))
                r = j / c
                x = r * r * x
                up.append(x)
                ones.append(e)
                sums[e] += x
            first, e = reset + inflow, table.item(0)
            sums[e] += first
            return Transition((1, *(j + 1 for j in s)), (first, *up), (e, *ones), o,
                              origin_ones, common, sums[0] + b0, sums[1] + b1, roundings)
        else:
            previous = np.concatenate((_ZERO, s))  # states - 1
            states = previous + 1
            up_states = states[1:]
            v = np.empty(len(states))
            up = v[1:]
            # 1 - p_j = (2j+1)/(j+1)^2, with 2j+1 an exact integer sum
            np.divide(s + up_states, np.square(up_states, dtype=np.float64), out=up)
            v[0] = np.dot(w, up) + inflow
            np.divide(s, up_states, out=up)
            np.square(up, out=up)  # p_j = (j/(j+1))^2: 3 roundings with w
            up *= w
            ones = self._ones.take(previous)
        # dots against the 0/1 emission masks, whose products are exact
        s1, s0 = float(v.dot(ones)) + b1, float(v.dot(~ones)) + b0
        return Transition(states, v, ones, o, origin_ones, common, s0, s1, roundings)

    # with c = j + t - 1, the path from origin j is next in state c + 1,
    # weighs pi[c + 1] and emits x_{c+1}; at t >= 1 it sends c's reset share
    # pi[c] (1 - p_c) to state 1.  Both helpers return (inflow, b0, b1,
    # origin_ones, common, roundings).

    def _range_sums(self, o: range, t: int) -> tuple | None:
        """The block's sums in closed form, or None if the range splits."""
        s, n = o.step, len(o)
        q, r = divmod(o.start + t - 1, s)
        counts = self._class_counts(s)
        k = counts.item(q + n, r) - counts.item(q, r)  # a split reads every origin anyway
        if 0 < k < n:
            return None
        b, reset = _class_sums(o.start + t - 1, s, n)
        b *= PI1
        return (PI1 * reset, 0.0 if k else b, b if k else 0.0, None, int(k > 0),
                _RANGE_ROUNDINGS)

    def _direct_sums(self, o, t: int) -> tuple:
        """The block's sums over every origin, in O(len(o)), with weights
        formed _CHUNK at a time."""
        emits = self._ones[slice(o.start + t - 1, o.stop + t - 1, o.step)
                           if isinstance(o, range) else o + (t - 1)]
        k = np.count_nonzero(emits)
        inflow = b0 = b1 = 0.0
        for i in range(0, len(o), _CHUNK):
            c = o[i:i + _CHUNK]
            c = (np.arange(c.start, c.stop, c.step) if isinstance(c, range) else c) + float(t - 1)
            if t:  # pi_c (1 - p_c) = pi1/c^2 * (2c+1)/(c+1)^2
                leave = (2.0 * c + 1.0) / ((c + 1.0) * (c + 1.0))
                inflow += float((_stationary(c) * leave).sum())
            block, e = _stationary(c + 1.0), emits[i:i + _CHUNK]
            b1 += float(block.dot(e)) if k else 0.0
            b0 += float(block.dot(~e)) if k < len(o) else 0.0
        common = int(k > 0) if k in (0, len(o)) else None
        # each term of the inflow adds a product and a sum
        return inflow, b0, b1, emits if common is None else None, common, len(o)

    def advance(self, state: ForwardState, symbol: Symbol,
                step: Transition) -> ForwardState:
        """Consume one symbol, given ``step = self.propagate(state)``."""
        validate_symbol(symbol)
        states = step.born_states
        if isinstance(states, tuple):
            keep = step.born_ones if symbol else [not e for e in step.born_ones]
            states, w = list(compress(states, keep)), list(compress(step.born_weights, keep))
        else:
            keep = (step.born_ones if symbol else ~step.born_ones).nonzero()[0]
            states, w = states.take(keep), step.born_weights.take(keep)
        origins = step.origins
        if step.common is not None:
            if step.common != symbol:
                origins = _NO_ORIGINS
        elif len(origins):
            origins = _as_range(_matching(origins, step.origin_ones, symbol))
        total = step.s1 if symbol else step.s0
        dropped, scale = state.dropped_mass, state.scale_log2
        joins = 0 < len(origins) < _MIN_BLOCK or (not isinstance(origins, range)
                                                  and len(origins) <= _CHUNK)
        if isinstance(w, list) and (joins or len(w) > _SMALL_BLOCK or 0.0 < total < _RESCALE_FLOOR
                                    or min(w, default=1.0) < _WEIGHT_FLOOR):
            states, w = np.array(states, dtype=np.int64), np.array(w)  # the numpy steps below
        # a never-reset weight is at least pi1/(J+t)^2, and every reset-born
        # one descends from an inflow of at least pi1/(J+t)^3 while the
        # never-reset block lives, so the floors below touch only the
        # reset-born block, and only once the never-reset block is gone
        if 0.0 < total < _RESCALE_FLOOR:
            shift = -math.floor(math.log2(total))
            w = w * 2.0**shift
            total *= 2.0**shift
            scale -= shift
            assert not len(origins)  # a never-reset weight is >= pi1/(J+t)^2
        if isinstance(w, np.ndarray) and len(w) and np.minimum.reduce(w) < _WEIGHT_FLOOR:
            assert not len(origins)
            small = w < _WEIGHT_FLOOR
            bound = float(w[small].sum()) * (1.0 + 2.0 * _rel_err(step))
            if bound > 0.0:
                dropped = float(np.nextafter(dropped + math.ldexp(bound, int(scale)), np.inf))
            states, w = states[~small], w[~small]
            total = float(w.sum())
        if joins:
            # the block joins the reset-born one, origin j in state j + t;
            # its weights' 6 roundings are within the count
            joined = np.add(origins, state.t, dtype=np.int64)
            states = np.concatenate((states, joined))
            w = np.concatenate((w, _stationary(joined.astype(np.float64))))
            origins = _NO_ORIGINS
        if isinstance(states, np.ndarray) and len(states) <= _SMALL_BLOCK:
            states, w = states.tolist(), w.tolist()
        if isinstance(states, list):  # tuple() of an unsized iterator resizes (README)
            states, w = tuple(states), tuple(w)
        return ForwardState(state.t + 1, states, w, dropped, scale_log2=scale,
                            roundings=step.roundings, total=total, origins=origins)

    # -- queries --------------------------------------------------------------

    def _walk(self, y: Word) -> "MuxPredictor":
        pred = MuxPredictor(self)
        for s in y:
            pred.observe(s)
        return pred

    def marginal(self, y: Word) -> LogInterval:
        """Certified enclosure of mu_x(y); ``width`` is the dropped mass."""
        if len(y) == 0:
            raise ValueError("marginal of the empty word is 1; query length >= 1")
        return self._walk(y)._state.interval()

    def conditional_next(self, past: Word) -> tuple[LogInterval, LogInterval]:
        """Enclosures of mu_x(next=0 | past) and mu_x(next=1 | past): the ends of
        ``_conditional_ends`` rounded outward into log2.  A dead past (``total
        <= 0``: zero tracked mass) gets the vacuous enclosures [0, 1]."""
        pred = self._walk(past)
        state, step = pred._state, pred._propagated()
        ends = [self._conditional_ends(state, step, a) for a in (0, 1)]
        ends = [(_log2_out(lo, False), min(0.0, _log2_out(hi, True))) for lo, hi in ends]
        return tuple(LogInterval(min(lo, hi), hi) for lo, hi in ends)

    def _conditional_ends(self, state: ForwardState, step: Transition,
                          symbol: Symbol) -> tuple[float, float]:
        """The ends of the enclosure of the conditional of ``symbol`` after
        ``state``, as probabilities: interval division of the extended mass
        by the past mass, whose upper end includes the dropped mass (>= pi1/J).
        Each end takes 6 roundings on top of the sums' (lo: 1 - r, s_a (1 - r),
        1 + r, den (1 + r), + d, /; hi: the same with -r and +r swapped), within
        the _SPARE_ROUNDINGS that r counts, so both are certified as computed.
        A subnormal lo has no relative rounding bound and reads 0."""
        den = step.s0 + step.s1
        # the dropped mass in the state's scaled units (inf once it dwarfs T)
        try:
            d_scaled = math.ldexp(state.dropped_mass, -int(state.scale_log2))
        except OverflowError:
            d_scaled = math.inf
        r = _rel_err(step)
        den_lower = den * (1.0 - r)
        s_a = step.s1 if symbol else step.s0
        lo = s_a * (1.0 - r) / (den * (1.0 + r) + d_scaled)
        hi = min(1.0, (s_a * (1.0 + r) + d_scaled) / den_lower) if den_lower > 0.0 else 1.0
        return (lo if lo >= sys.float_info.min else 0.0), hi

    # -- views ---------------------------------------------------------------

    def predictor(self) -> "MuxPredictor":
        return MuxPredictor(self)

    def sample_trajectory(self, n: int, seed: int) -> np.ndarray:
        """Emit along a stationary-start chain path; deterministic per seed.

        The source must serve every visited state as an index; a finite one
        raises its exhaustion error otherwise.
        """
        states = sample_path(n, seed).states
        # only the first run j0, j0 + 1, ... can climb above n: its states
        # there, lo:hi, are read one by one instead of from a prefix that long
        j0, last, lo, hi = int(states[0]), int(states.max()), 0, 0
        if last > n:  # then last ends the first run
            lo, hi = max(n + 1 - j0, 0), last - j0 + 1
            last = n if j0 <= n else int(states[hi:].max(initial=0))
        emis = self.source.prefix_array(last)  # through the largest state <= n
        np.subtract(states, 1, out=states)  # 0-based; lo:hi clip, then are overwritten
        out = emis.take(states, mode="clip") if last else np.empty(n, dtype=np.uint8)
        out[lo:hi] = [self.source.symbol_at(j + 1) for j in states[lo:hi].tolist()]
        return out


class MuxPredictor(Predictor):
    """Next-symbol conditionals of the truncated tracking measure.

    Serves the conditionals of the chain-with-emissions process whose
    initial state law is the stationary one restricted to 1..J and
    renormalized; cumulative log2 loss along any sequence telescopes to the
    tracked forward mass.  A past is dead when its tracked mass is zero
    (``total <= 0``, the one dead-past rule); off this truncated support the
    predictor falls back to the uniform conditional, which equals the
    renormalized midpoints of the then-vacuous enclosures; this measure-zero
    convention keeps it total for adversarial use.

    ``last_interval_width`` records hi - lo of the linear enclosure of the
    most recent prediction's next-0 conditional, for diagnostic logging.

    Its first two steps, O(J) and up to O(J/2), are the same on every past,
    so it reads them from the MuX, which builds them once (``MuX._shared``).
    """

    def __init__(self, mux: MuX) -> None:
        self.mux = mux
        self._state = mux._shared(())
        self._shared_past: tuple | None = ()  # the past while the MuX shares its state
        self._cache: Transition | None = None
        self.last_interval_width = 0.0

    def fresh(self) -> "MuxPredictor":
        return MuxPredictor(self.mux)

    def log2_mass(self) -> float:
        """log2 of the tracked (unnormalized) mass of the observed past."""
        return self._state.log2_mass()

    def log2_initial_mass(self) -> float:
        return self.mux._shared(()).log2_mass()

    def _propagated(self) -> Transition:
        if self._cache is None:
            self._cache = (self.mux.propagate(self._state) if self._shared_past is None
                           else self.mux._shared(self._shared_past, True))
        return self._cache

    def predict(self) -> tuple[float, float]:
        if self._state.total <= 0.0:
            self.last_interval_width = 1.0
            return (0.5, 0.5)
        step = self._propagated()
        lo, hi = self.mux._conditional_ends(self._state, step, 0)
        self.last_interval_width = hi - lo
        # a live past's alive weights are >= 2^-960 after the floors, and p_j
        # and 1 - p_j are >= 2^-62: every weight after the step, so s0 + s1, is > 0
        p1 = step.s1 / (step.s0 + step.s1)
        return (1.0 - p1, p1)

    def observe(self, symbol: Symbol) -> None:
        if self._state.total <= 0.0:  # a dead past stays dead
            validate_symbol(symbol)
            return
        # advance checks the symbol before anything here changes
        shared = (symbol,) if self._shared_past == () else None
        self._state = (self.mux._shared(shared) if shared
                       else self.mux.advance(self._state, symbol, self._propagated()))
        self._shared_past, self._cache = shared, None


def brute_force_marginal(mux: MuX, y: Word, max_init_state: int) -> float:
    """Independent oracle for ``MuX.marginal``: exact enumeration of every
    emission-consistent state path from every initial state <= max_init_state.

    Exponential in len(y); refuses len(y) > 14 or max_init_state > 64.  The
    result equals the forward lower bound at truncation J = max_init_state.
    """
    n = len(y)
    if not 1 <= n <= 14:
        raise ValueError("brute force handles 1 <= len(y) <= 14")
    if not 1 <= max_init_state <= 64:
        raise ValueError("brute force handles max_init_state <= 64")
    emis = mux.source.prefix_array(max_init_state + n)
    y_arr = tuple(validate_symbol(s) for s in y)
    leaf_probs: list[float] = []

    def extend(state: int, t: int, acc: float) -> None:
        if emis[state - 1] != y_arr[t]:
            return
        if t + 1 == n:
            leaf_probs.append(acc)
            return
        p = transition_prob(state)
        extend(state + 1, t + 1, acc * p)
        extend(1, t + 1, acc * (1.0 - p))

    for j in range(1, max_init_state + 1):
        extend(j, 0, stationary_weight(j))
    return math.fsum(leaf_probs)
