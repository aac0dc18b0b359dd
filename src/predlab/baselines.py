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
    joint, count, context and conditional in its new context, and its log2
    term, then forms the pair that ``predict`` returns.

    The posterior is computed in Python floats over the K + 1 log2 terms
    (shifted by their max, raised to powers of 2, normalised), so a
    conditional may differ from a numpy evaluation in the last bit; the
    adversarial sequences built against it are pinned in the tests.
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
        # each order's P(next=1) in its current context, and its log2 term
        # log2 w_k + log2 mu_k(past), formed in observe
        self._p1 = [0.5] * (max_order + 1)
        self._terms = list(self.log2_weights)  # every joint is log2 1 = 0
        self._next = self._posterior()

    def fresh(self) -> "FiniteOrderMixture":
        return FiniteOrderMixture(self.max_order)

    def _posterior(self) -> tuple[float, float]:
        """Posterior-weighted (P(next=0), P(next=1)); loops sum left to right."""
        m, g, total, p1 = max(self._terms), [], 0.0, 0.0
        for x in self._terms:
            gk = 2.0 ** (x - m)
            g.append(gk)
            total += gk
        for gk, pk in zip(g, self._p1):
            p1 += gk / total * pk
        p1 = 0.0 if p1 < 0.0 else 1.0 if p1 > 1.0 else p1  # min(max(p1, 0), 1)
        return (1.0 - p1, p1)

    def predict(self) -> tuple[float, float]:
        return self._next

    def observe(self, symbol: Symbol) -> None:
        validate_symbol(symbol)
        joints, offsets, p1s, terms = self.log2_joints, self._offsets, self._p1, self._terms
        lws = self.log2_weights
        for k, counts in enumerate(self._counts):
            p1 = p1s[k]
            joint = joints[k] = joints[k] + math.log2(p1 if symbol else 1.0 - p1)
            terms[k] = lws[k] + joint
            b = offsets[k]
            counts[b + symbol] += 1
            b = (b + symbol) << 1
            if b >= 4 << k:  # k + 1 symbols: drop the oldest, keep the marker
                b = (b - (4 << k)) | 2 << k
            offsets[k] = b
            n1 = counts[b + 1]
            p1s[k] = (n1 + 0.5) / (counts[b] + n1 + 1)
        self._next = self._posterior()

    def log2_joint(self) -> float:
        """log2 of the mixture probability of the observed past."""
        a = self._terms
        m = max(a)
        return m + math.log2(sum_left([2.0 ** (x - m) for x in a]))
