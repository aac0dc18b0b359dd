"""Construction of a sequence on which a given predictor loses at least one
bit per step, and the full head-to-head demonstration: the same sequence is
tracked by its stationary-measure predictor within the certified o(n) bound.

The adversary greedily picks the symbol the target predictor considers less
likely (ties go to 0), so the predictor's conditional on the realized symbol
is <= 1/2 at every step - exactly, because predictors return complement pairs.
The sequence extends lazily to any index, which downstream tracking-measure
queries need (state-j emissions read the sequence at index j).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .core import Predictor, SequenceSource, Symbol
from .loss import LossTrace, trace_from_realized_probs
from .mux import MuX, log_loss_bound


class AdversarialSource(SequenceSource):
    """The sequence built against one predictor, extended on demand.

    Owns a private fresh instance of the target predictor, advanced once per
    generated symbol; both the chosen symbols and the conditional
    probabilities the predictor was scored on are cached, in buffers with no
    object per entry, so assertions run against the exact queried values
    rather than a recomputation.
    """

    def __init__(self, rho: Predictor, spec: str = "adversarial") -> None:
        self._rho = rho.fresh()
        self.spec = spec
        self._symbols = bytearray()
        self._picked_probs = array("d")

    def _extend_to(self, n: int) -> None:
        symbols, picked = self._symbols, self._picked_probs
        predict, observe = self._rho.predict, self._rho.observe
        for _ in range(n - len(symbols)):
            p0, p1 = predict()
            pick: Symbol = 0 if p0 <= p1 else 1
            symbols.append(pick)
            picked.append(p0 if pick == 0 else p1)
            observe(pick)

    def symbol_at(self, t: int) -> Symbol:
        if t < 1:
            raise ValueError("t must be >= 1")
        self._extend_to(t)
        return self._symbols[t - 1]

    def prefix_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        self._extend_to(n)
        return np.asarray(self._symbols[:n], dtype=np.uint8)

    def picked_probs(self, n: int) -> np.ndarray:
        """rho(x_t | x_{1..t-1}) for the chosen symbols, t = 1..n."""
        self._extend_to(n)
        return np.asarray(self._picked_probs[:n], dtype=np.float64)


def adversarial_sequence(rho: Predictor, n: int) -> np.ndarray:
    """First n symbols of the sequence built against rho."""
    if n < 1:
        raise ValueError("horizon must be >= 1")
    return AdversarialSource(rho).prefix_array(n)


@dataclass
class AdversarialRun:
    """Artifacts of one head-to-head run against a target predictor."""

    sequence: np.ndarray          # x_{1..n}
    rho_trace: LossTrace          # target predictor scored on x
    mux_trace: LossTrace          # tracking measure of x scored on x
    bound_per_step: np.ndarray    # log_loss_bound(t) / t for t = 1..n
    mux_widths: np.ndarray        # conditional enclosure widths, logged
    symbols_built: int            # symbols the adversary extended to


def theorem1_experiment(
    rho: Predictor,
    n: int,
    trunc: int = ChainSpec.truncation_level,
    predictor_spec: str = "custom",
) -> AdversarialRun:
    """Build the sequence against rho, score rho on it, and score the
    tracking measure of the same sequence on it.

    The run realizes both halves of the demonstration: rho's per-step loss is
    >= 1 bit by construction, while the tracking measure's cumulative loss
    stays under log_loss_bound(t) for every horizon t.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    source = AdversarialSource(rho, spec=f"adversarial({predictor_spec})")
    x = source.prefix_array(n)
    rho_probs = source.picked_probs(n)
    rho_trace = trace_from_realized_probs(rho_probs)

    mux = MuX(source, ChainSpec(trunc))
    pred = mux.predictor()
    mux_probs, widths = [], []
    for s in x.tolist():
        p0, p1 = pred.predict()
        widths.append(pred.last_interval_width)
        mux_probs.append(p1 if s else p0)
        pred.observe(s)
    mux_trace = trace_from_realized_probs(mux_probs)

    t = np.arange(1, n + 1, dtype=np.float64)
    bound = log_loss_bound(t) / t
    return AdversarialRun(
        sequence=x,
        rho_trace=rho_trace,
        mux_trace=mux_trace,
        bound_per_step=bound,
        mux_widths=np.array(widths),
        symbols_built=len(source._symbols),
    )
