"""Reference predictors, one class each: `UniformPredictor` (a fair coin),
`KTPredictor` (the Krichevsky-Trofimov add-half estimator) and
`FiniteOrderMixture` (a Bayesian mixture of order-0..K context KT estimators
under the prior w_k proportional to 2^-k).

All of them derive one conditional coordinate as the complement of the other,
so the pair sums to 1 exactly and min(p0, p1) <= 1/2 holds in floating point.
"""

from __future__ import annotations

import math

from .core import Predictor, Symbol, sum_left, validate_symbol

MAX_MIXTURE_ORDER = 16
#: a mixture weight below 2^_LOG2_FLOOR rebuilds the weights from log2 terms
_LOG2_FLOOR = -960.0
_FLOOR = 2.0**_LOG2_FLOOR


class UniformPredictor(Predictor):
    """P(0) = P(1) = 1/2 for every past."""

    def fresh(self) -> "UniformPredictor":
        return UniformPredictor()

    def predict(self) -> tuple[float, float]:
        return (0.5, 0.5)

    def observe(self, symbol: Symbol) -> None:
        validate_symbol(symbol)


class KTPredictor(Predictor):
    """Krichevsky-Trofimov add-half estimator:
    P(next=1 | past) = (n1 + 1/2) / (n0 + n1 + 1)."""

    def __init__(self) -> None:
        self.counts = [0, 0]

    def fresh(self) -> "KTPredictor":
        return KTPredictor()

    def predict(self) -> tuple[float, float]:
        n0, n1 = self.counts
        p1 = (n1 + 0.5) / (n0 + n1 + 1)
        return (1.0 - p1, p1)

    def observe(self, symbol: Symbol) -> None:
        self.counts[validate_symbol(symbol)] += 1


class FiniteOrderMixture(Predictor):
    """Bayesian mixture of order-0..K context KT estimators.

    The order-k component is a KT estimator per context, the context being
    the last k symbols, or the whole past while it is shorter than k, so
    every component is a proper measure from the first symbol on.  A context
    is coded as an integer: its symbols under a leading marker bit, so
    contexts of different lengths get different codes below 2^(k+1).

    The mixture joint is sum_k w_k mu_k(y); conditionals are ratios of
    consecutive joints, i.e. posterior-weighted component conditionals.  The
    joint therefore dominates every component: cumulative mixture loss never
    exceeds a component's cumulative loss plus -log2 w_k.

    ``observe`` walks the orders once per step: it updates each order's
    joint, count, context and conditional in its new context, and its
    posterior weight g_k, multiplied by the order's conditional of the symbol
    and divided by the mixture's; then P(next=1) = sum g_k p_k / sum g_k,
    summed left to right.  A weight below 2^-960 rebuilds them all from the
    exact log2 terms x_k = log2 w_k + log2 mu_k(past), as
    g_k = 2^max(x_k - max x, -960), so an order far behind can come back.
    Dividing by the weights' own sum once, not normalising each, keeps the
    exact ties the tests check.  A conditional may differ from a numpy
    evaluation in the last bit; the adversarial sequences built against it
    are pinned in the tests.
    """

    def __init__(self, max_order: int) -> None:
        if max_order < 0:
            raise ValueError("max_order must be >= 0")
        if max_order > MAX_MIXTURE_ORDER:
            raise ValueError(
                f"max_order {max_order} refused: context tables explode past "
                f"{MAX_MIXTURE_ORDER}"
            )
        raw = [2.0 ** (-k) for k in range(max_order + 1)]
        total = math.fsum(raw)
        self.max_order = max_order
        self.log2_weights = [math.log2(w / total) for w in raw]
        #: log2 of each component's probability of the observed past
        self.log2_joints = [0.0] * (max_order + 1)
        # counts[k][2 c + s]: how often s followed the order-k context coded c
        self._counts = [[0] * (4 << k) for k in range(max_order + 1)]
        self._offsets = [2] * (max_order + 1)  # 2 c, for each order's context c
        self._p1 = [0.5] * (max_order + 1)  # each order's P(next=1) in its context
        self._g = self._rebuilt()  # the posterior weights, up to a common factor
        self._next = (0.5, 0.5)

    def fresh(self) -> "FiniteOrderMixture":
        return FiniteOrderMixture(self.max_order)

    def _terms(self) -> tuple[list[float], float]:
        """log2 w_k + log2 mu_k(past) for each order k, and their max."""
        a = [lw + joint for lw, joint in zip(self.log2_weights, self.log2_joints)]
        return a, max(a)

    def _rebuilt(self) -> list[float]:
        """The posterior weights from the exact log2 terms, floored at 2^-960."""
        a, m = self._terms()
        return [2.0 ** max(x - m, _LOG2_FLOOR) for x in a]

    def predict(self) -> tuple[float, float]:
        return self._next

    def observe(self, symbol: Symbol) -> None:
        validate_symbol(symbol)
        joints, offsets, p1s, g = self.log2_joints, self._offsets, self._p1, self._g
        mixed = self._next[symbol]  # the mixture's conditional of the symbol
        num = total = 0.0
        for k, counts in enumerate(self._counts):
            p1 = p1s[k]
            q = p1 if symbol else 1.0 - p1
            joints[k] += math.log2(q)
            gk = g[k] = g[k] * q / mixed
            b = offsets[k]
            counts[b + symbol] += 1
            b = (b + symbol) << 1
            if b >= 4 << k:  # k + 1 symbols: drop the oldest, keep the marker
                b = (b - (4 << k)) | 2 << k
            offsets[k] = b
            n1 = counts[b + 1]
            p1 = p1s[k] = (n1 + 0.5) / (counts[b] + n1 + 1)
            num += gk * p1
            total += gk
        if min(g) < _FLOOR:
            self._g = g = self._rebuilt()
            num, total = sum_left([gk * pk for gk, pk in zip(g, p1s)]), sum_left(g)
        p1 = num / total
        self._next = (1.0 - p1, p1)

    def log2_joint(self) -> float:
        """log2 of the mixture probability of the observed past."""
        a, m = self._terms()
        return m + math.log2(sum_left([2.0 ** (x - m) for x in a]))
