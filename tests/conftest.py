import numpy as np
import pytest

from predlab import (
    ChainSpec,
    ChampernowneSource,
    CoinFlipSource,
    FiniteOrderMixture,
    KTPredictor,
    MuX,
    PeriodicSource,
    Predictor,
    UniformPredictor,
    chain,
)


def pin_start(monkeypatch, j0):
    """Start every sampled path at j0; the pinned draw reads none of the
    generator's stream."""
    monkeypatch.setattr(chain, "sample_stationary_state", lambda rng: j0)


class MomentumPredictor(Predictor):
    """Test-only predictor: repeats the last observed symbol with fixed
    probability; uniform on the empty past."""

    def __init__(self, stick: float = 0.9) -> None:
        self.stick = stick
        self.last: int | None = None

    def fresh(self) -> "MomentumPredictor":
        return MomentumPredictor(self.stick)

    def predict(self) -> tuple[float, float]:
        if self.last is None:
            return (0.5, 0.5)
        if self.last == 0:
            return (self.stick, 1.0 - self.stick)
        return (1.0 - self.stick, self.stick)

    def observe(self, symbol: int) -> None:
        self.last = symbol


def corpus_sources():
    """The consistency-test corpus of target sequences."""
    return (
        [PeriodicSource("01"), PeriodicSource("0"), ChampernowneSource()]
        + [CoinFlipSource(s) for s in range(1, 6)]
    )


def predictor_battery(trunc: int = 2000):
    """Named predictors exercised by contract and adversary tests."""
    return {
        "uniform": UniformPredictor(),
        "kt": KTPredictor(),
        "mix:3": FiniteOrderMixture(3),
        "mux:periodic:01": MuX(PeriodicSource("01"), ChainSpec(trunc)).predictor(),
        "momentum": MomentumPredictor(),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
