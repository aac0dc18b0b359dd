"""Command-line orchestration: chain tables, measure queries, loss runs,
adversarial head-to-heads, and ergodicity checks.  Every file a command
writes goes through ``loss.write_artifact``.

Exit codes: 0 success, 2 validation/usage error, 3 numeric-budget failure
(an enclosure wider than the requested budget).

Spec grammars (kept out of the library API):
  source-spec     periodic:<bits> | champernowne | coin:<seed> | file:<path>
  predictor-spec  uniform | kt | mix:<K> | mux:<source-spec> | dirac:<source-spec>
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import adversary, chain, loss
from .baselines import FiniteOrderMixture, KTPredictor, UniformPredictor
from .core import (
    ChampernowneSource,
    CoinFlipSource,
    DiracPredictor,
    FileSource,
    PeriodicSource,
    Predictor,
    SequenceSource,
    parse_bits,
    format_bits,
)
from .mux import MuX, log_loss_bound
from .chain import ChainSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

#: the ergodicity command's stationarity window check, as run and as recorded
_WINDOW_CHECK = {"k": 3, "offset_a": 1, "offset_b": 50, "stride": 100}


class NumericBudgetError(RuntimeError):
    """An enclosure exceeded the configured width budget."""


def parse_source_spec(spec: str) -> SequenceSource:
    kind, _, rest = spec.partition(":")
    if kind == "periodic":
        return PeriodicSource(parse_bits(rest))
    if kind == "champernowne" and not rest:
        return ChampernowneSource()
    if kind == "coin":
        return CoinFlipSource(int(rest))
    if kind == "file":
        return FileSource(rest)
    raise ValueError(f"unknown source spec {spec!r}")


def parse_predictor_spec(spec: str, trunc: int = ChainSpec.truncation_level) -> Predictor:
    kind, _, rest = spec.partition(":")
    if kind == "uniform" and not rest:
        return UniformPredictor()
    if kind == "kt" and not rest:
        return KTPredictor()
    if kind == "mix":
        return FiniteOrderMixture(int(rest))
    if kind == "mux":
        return MuX(parse_source_spec(rest), ChainSpec(trunc)).predictor()
    if kind == "dirac":
        return DiracPredictor(parse_source_spec(rest))
    raise ValueError(f"unknown predictor spec {spec!r}")


@dataclass
class ExperimentConfig:
    """Fully reproducible run description, echoed into every artifact."""

    command: str
    predictor_spec: str | None = None
    source_spec: str | None = None
    horizon: int | None = None
    trunc: int | None = None
    seed: int | None = None
    out_dir: str | None = None


def _jsonable(obj):
    """JSON-safe copy: infinite floats become "inf" and "-inf".  A numpy
    float is a ``float``, which ``json`` writes with ``float.__repr__``."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _dump_json(payload: dict, path: Path | None) -> str:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if path is not None:
        loss.write_artifact(path, text)
    return text


def _check_budget(what: str, width: float, budget: float | None) -> None:
    """Enforce a ``--max-width`` budget, if one was given."""
    if budget is not None and width > budget:
        raise NumericBudgetError(f"{what} {width:g} exceeds budget {budget:g}")


def _cmd_chain_info(args) -> int:
    cfg = ExperimentConfig(command="chain info", horizon=args.max_n,
                           trunc=args.trunc, out_dir=args.out)
    info = chain.chain_info(args.max_n, args.trunc)
    info["config"] = asdict(cfg)
    sys.stdout.write(_dump_json(info, Path(args.out) if args.out else None))
    return EXIT_OK


def _cmd_mux_marginal(args) -> int:
    cfg = ExperimentConfig(command="mux marginal", source_spec=args.target,
                           trunc=args.trunc, out_dir=args.out)
    source = parse_source_spec(args.target)
    mux = MuX(source, ChainSpec(args.trunc))
    interval = mux.marginal(parse_bits(args.query))
    _check_budget("enclosure width", interval.width, args.max_width)
    payload = {
        "config": asdict(cfg),
        "query": args.query,
        "lower_log2": interval.lower_log2,
        "upper_log2": interval.upper_log2,
        "width": interval.width,
        "trunc": args.trunc,
    }
    sys.stdout.write(_dump_json(payload, Path(args.out) if args.out else None))
    return EXIT_OK


def _cmd_mux_sample(args) -> int:
    bits = format_bits(MuX(parse_source_spec(args.target)).sample_trajectory(args.n, args.seed))
    sys.stdout.write(bits + "\n")
    if args.out:
        loss.write_artifact(args.out, bits + "\n")
    return EXIT_OK


def _cmd_loss(args) -> int:
    cfg = ExperimentConfig(command="loss", predictor_spec=args.rho, source_spec=args.target,
                           horizon=args.n, out_dir=args.out,  # only a mux: rho reads trunc
                           trunc=args.trunc if args.rho.startswith("mux:") else None)
    source = parse_source_spec(args.target)
    rho = parse_predictor_spec(args.rho, trunc=args.trunc)
    trace = loss.dirac_kl(source, rho, args.n)
    out_dir = Path(args.out)
    trace.to_csv(out_dir / "trace.csv")
    summary = {
        "config": asdict(cfg),
        "cum_kl_bits": float(trace.cum_kl_bits[-1]),
        "cesaro_kl_final": float(trace.cesaro_kl[-1]),
        "cesaro_abs_final": float(trace.cesaro_abs[-1]),
        "cesaro_sq_final": float(trace.cesaro_sq[-1]),
        "kl_liminf_proxy": trace.liminf_proxy(),
    }
    sys.stdout.write(_dump_json(summary, out_dir / "summary.json"))
    return EXIT_OK


def _cmd_theorem1(args) -> int:
    cfg = ExperimentConfig(command="theorem1", predictor_spec=args.rho,
                           horizon=args.n, trunc=args.trunc, out_dir=args.out)
    rho = parse_predictor_spec(args.rho, trunc=args.trunc)
    run = adversary.theorem1_experiment(rho, args.n, trunc=args.trunc,
                                        predictor_spec=args.rho)
    _check_budget("max conditional enclosure width", run.max_mux_width, args.max_width)
    out_dir = Path(args.out)
    loss.write_artifact(out_dir / "x.txt", format_bits(run.sequence) + "\n")
    rho_cesaro = run.rho_trace.to_csv(out_dir / "rho_trace.csv")
    mux_cesaro = run.mux_trace.to_csv(out_dir / "mux_trace.csv")
    loss.write_tidy_csv(out_dir / "tidy.csv", {
        "rho_cesaro_kl": rho_cesaro,
        "mux_cesaro_kl": mux_cesaro,
        "bound_per_step": run.bound_per_step,
    })
    summary = {
        "config": asdict(cfg),
        "rho_cesaro_final": float(run.rho_trace.cesaro_kl[-1]),
        "mux_cesaro_final": float(run.mux_trace.cesaro_kl[-1]),
        "bound_final": float(run.bound_per_step[-1]),
        "per_step_min_rho_loss": float(run.rho_trace.kl_bits.min()),
        "mux_cumulative_bits": float(run.mux_trace.cum_kl_bits[-1]),
        "mux_cumulative_bound": log_loss_bound(args.n),
        "max_mux_width": run.max_mux_width,
        "adversary_symbols_built": run.symbols_built,
    }
    sys.stdout.write(_dump_json(summary, out_dir / "summary.json"))
    return EXIT_OK


def _cmd_ergodicity(args) -> int:
    cfg = ExperimentConfig(command="ergodicity", source_spec=args.target,
                           horizon=args.n, seed=args.seed, out_dir=args.out)
    traj = MuX(parse_source_spec(args.target)).sample_trajectory(args.n, args.seed)
    word_freqs = {}
    for k, counts in enumerate(loss.word_counts(traj, 3)[:args.n], 1):  # k <= n
        words = map(format_bits, itertools.product((0, 1), repeat=k))
        word_freqs.update(zip(words, (counts / (args.n - k + 1)).tolist()))
    try:
        windows = loss.stationarity_window_check(traj, **_WINDOW_CHECK)
    except ValueError:  # a run too short for a window at either offset
        max_z = None
    else:
        max_z = max((abs(fa - fb) / se for _, fa, fb, se in windows if se > 0.0), default=0.0)
    payload = {
        "config": asdict(cfg),
        "freq_0": 1.0 - word_freqs["1"],
        "freq_1": word_freqs["1"],
        "word_freqs": word_freqs,
        "window_check": {**_WINDOW_CHECK, "max_abs_z": max_z},
    }
    sys.stdout.write(_dump_json(payload, Path(args.out) if args.out else None))
    return EXIT_OK


def _width_budget(text: str) -> float:
    """A ``--max-width`` value: a float >= 0 (NaN would turn the check off)."""
    width = float(text)
    if not width >= 0.0:
        raise argparse.ArgumentTypeError(f"width budget must be >= 0, got {text}")
    return width


@functools.cache  # built on the first call, shared after it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predlab",
        description="sequence-prediction experiments with certified numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chain = sub.add_parser("chain", help="chain constants and tables")
    chain_sub = p_chain.add_subparsers(dest="chain_command", required=True)
    p_info = chain_sub.add_parser("info", help="tables and certified constants")
    p_info.add_argument("--max-n", type=int, default=10)
    p_info.add_argument("--trunc", type=int, default=10**6)
    p_info.add_argument("--out", default=None)
    p_info.set_defaults(func=_cmd_chain_info)

    p_mux = sub.add_parser("mux", help="tracking-measure queries")
    mux_sub = p_mux.add_subparsers(dest="mux_command", required=True)
    p_marg = mux_sub.add_parser("marginal", help="certified word marginal")
    p_marg.add_argument("--target", required=True)
    p_marg.add_argument("--query", required=True)
    p_marg.add_argument("--trunc", type=int, default=ChainSpec.truncation_level)
    p_marg.add_argument("--max-width", type=_width_budget, default=None)
    p_marg.add_argument("--out", default=None)
    p_marg.set_defaults(func=_cmd_mux_marginal)
    p_samp = mux_sub.add_parser("sample", help="sample a trajectory")
    p_samp.add_argument("--target", required=True)
    p_samp.add_argument("-n", type=int, required=True)
    p_samp.add_argument("--seed", type=int, required=True)
    p_samp.add_argument("--out", default=None)
    p_samp.set_defaults(func=_cmd_mux_sample)

    p_loss = sub.add_parser("loss", help="score a predictor on a sequence")
    p_loss.add_argument("--rho", required=True)
    p_loss.add_argument("--target", required=True)
    p_loss.add_argument("-n", type=int, required=True)
    p_loss.add_argument("--trunc", type=int, default=ChainSpec.truncation_level)
    p_loss.add_argument("--out", required=True)
    p_loss.set_defaults(func=_cmd_loss)

    p_thm = sub.add_parser("theorem1",
                           help="adversarial sequence vs tracking measure")
    p_thm.add_argument("--rho", required=True)
    p_thm.add_argument("-n", type=int, required=True)
    p_thm.add_argument("--trunc", type=int, default=ChainSpec.truncation_level)
    p_thm.add_argument("--max-width", type=_width_budget, default=None)
    p_thm.add_argument("--out", required=True)
    p_thm.set_defaults(func=_cmd_theorem1)

    p_erg = sub.add_parser("ergodicity", help="empirical frequency checks")
    p_erg.add_argument("--target", required=True)
    p_erg.add_argument("-n", type=int, required=True)
    p_erg.add_argument("--seed", type=int, required=True)
    p_erg.add_argument("--out", default=None)
    p_erg.set_defaults(func=_cmd_ergodicity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NumericBudgetError as exc:
        print(f"numeric budget failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
