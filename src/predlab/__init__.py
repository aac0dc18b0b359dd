"""predlab: a sequential-prediction laboratory for binary sequences.

Pieces: cumulative log2 (KL) prediction loss, an up-or-reset countable-state
chain with certified constants, the stationary tracking measure built on it
(forward algorithm with rigorous truncation enclosures), an adversarial
sequence constructor that defeats any fixed predictor, and baseline
predictors to throw at it.
"""

from .adversary import (
    AdversarialRun,
    AdversarialSource,
    adversarial_sequence,
    theorem1_experiment,
)
from .baselines import FiniteOrderMixture, KTPredictor, UniformPredictor
from .chain import (
    PI1,
    ChainSpec,
    StatePath,
    chain_info,
    first_return_prob,
    mean_return_time,
    return_prob_partial_sum,
    sample_path,
    stationary_weight,
    transition_prob,
)
from .core import (
    IMPOSSIBLE,
    ChampernowneSource,
    CoinFlipSource,
    DiracPredictor,
    FileSource,
    LogInterval,
    PeriodicSource,
    Predictor,
    SequenceSource,
    SourceExhaustedError,
    Symbol,
    Word,
    format_bits,
    log2_sum,
    parse_bits,
    prob,
)
from .loss import (
    LossTrace,
    dirac_kl,
    stationarity_window_check,
    window_distribution,
    word_frequency,
)
from .mux import (
    ForwardState,
    MuX,
    MuxPredictor,
    brute_force_marginal,
    log_loss_bound,
)

#: the public names, one group per submodule (the submodules themselves
#: stay out of ``from predlab import *``)
__all__ = [
    "AdversarialRun", "AdversarialSource", "adversarial_sequence",
    "theorem1_experiment",
    "FiniteOrderMixture", "KTPredictor", "UniformPredictor",
    "PI1", "ChainSpec", "StatePath", "chain_info", "first_return_prob",
    "mean_return_time", "return_prob_partial_sum", "sample_path",
    "stationary_weight", "transition_prob",
    "IMPOSSIBLE", "ChampernowneSource", "CoinFlipSource", "DiracPredictor",
    "FileSource", "LogInterval", "PeriodicSource", "Predictor",
    "SequenceSource", "SourceExhaustedError", "Symbol", "Word",
    "format_bits", "log2_sum", "parse_bits", "prob",
    "LossTrace", "dirac_kl", "stationarity_window_check",
    "window_distribution", "word_frequency",
    "ForwardState", "MuX", "MuxPredictor",
    "brute_force_marginal", "log_loss_bound",
]
__version__ = "0.1.0"
