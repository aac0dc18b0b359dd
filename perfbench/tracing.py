"""Spans and counters around the public entry points of predlab's layers.

The wrappers live here, in the benchmark, and are installed only in a traced
run.  Spans are kept in memory (name, start, end, parent) and written out at
the end; per-layer metrics are derived from them.  A span's self time is its
duration minus the time its child spans cover; the benchmark's own counter
bookkeeping runs in ``trace.counters`` spans so that it stays out of every
layer's self time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

WORD_STATS = ("word_frequency", "window_distribution", "stationarity_window_check")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.active = True
        self.counts = {
            "core.prefix_array_symbols": 0,
            "chain.states_sampled": 0,
            "chain.max_state": 0,
            "mux.frontier_peak": 0,
            "mux.alive_peak": 0,
            "mux.rescale_events": 0,
            "mux.uniform_fallbacks": 0,
            "mux.max_width": 0.0,
            "mux.dropped_mass_final": 0.0,
            "loss.csv_rows": 0,
            "adversary.symbols_built": 0,
            "cli.files_written": 0,
            "cli.bytes_written": 0,
        }
        self._alive_frac_sum = 0.0
        self._built = weakref.WeakKeyDictionary()
        self._dead = weakref.WeakSet()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span named ``name``; ``after(result, *args,
        **kwargs)`` updates counters inside a ``trace.counters`` span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                cidx = self._open("trace.counters")
                try:
                    after(result, *args, **kwargs)
                finally:
                    self._close(cidx)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point named in model.json's per_layer.spans."""
        from predlab import adversary, baselines, chain, cli, core, loss, mux

        modules = [m for k, m in sys.modules.items()
                   if k == "predlab" or k.startswith("predlab.")]

        def rebind(owner, attr, name, after=None):
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, after)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)

        def patch(cls, attr, name, after=None):
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], after))

        # core: sources defined in predlab.core
        for cls in _subclasses(core.SequenceSource):
            if cls.__module__ != core.__name__:
                continue
            if "prefix_array" in cls.__dict__:
                patch(cls, "prefix_array", "core.prefix_array")
                cls.prefix_array = self._count_prefix(cls.prefix_array)

        # adversary: the lazily extended source
        for attr in ("prefix_array", "symbol_at", "picked_probs"):
            patch(adversary.AdversarialSource, attr, "adversary.extend",
                  self._count_built)

        # chain
        rebind(chain, "sample_path", "chain.sample_path", self._count_path)

        # mux
        patch(mux.MuX, "initial_state", "mux.initial_state")
        patch(mux.MuX, "propagate", "mux.propagate")
        patch(mux.MuX, "advance", "mux.advance", self._count_advance)
        patch(mux.MuX, "sample_trajectory", "mux.sample_trajectory")
        patch(mux.MuxPredictor, "predict", "mux.predict", self._count_predict)
        patch(mux.MuxPredictor, "observe", "mux.observe")

        # loss
        rebind(loss, "trace_from_realized_probs", "loss.trace_from_realized_probs")
        patch(loss.LossTrace, "to_csv", "loss.to_csv", self._count_csv)
        for attr in WORD_STATS:
            rebind(loss, attr, "loss.word_stats")

        # baselines
        for cls in _subclasses(core.Predictor):
            if cls.__module__ == baselines.__name__:
                for attr in ("predict", "observe"):
                    if attr in cls.__dict__:
                        patch(cls, attr, f"baselines.{attr}")

        # cli
        rebind(cli, "main", "cli.main", self._count_files)

    def _count_prefix(self, wrapped):
        @functools.wraps(wrapped)
        def counted(src, n, *args, **kwargs):
            if self.active:
                self.counts["core.prefix_array_symbols"] += int(n)
            return wrapped(src, n, *args, **kwargs)
        return counted

    # -- counters ------------------------------------------------------------

    def _count_built(self, result, src, n, *args, **kwargs):
        n = int(n)
        prev = self._built.get(src, 0)
        if n > prev:
            self.counts["adversary.symbols_built"] += n - prev
            self._built[src] = n

    def _count_path(self, path, n, *args, **kwargs):
        self.counts["chain.states_sampled"] += int(n)
        self.counts["chain.max_state"] = max(self.counts["chain.max_state"],
                                             int(path.states.max()))

    def _count_advance(self, new, mux, state, *args, **kwargs):
        c = self.counts
        frontier = mux.chain.truncation_level + max(new.t - 1, 0)
        alive = int(np.count_nonzero(new.weights))
        c["mux.frontier_peak"] = max(c["mux.frontier_peak"], frontier)
        c["mux.alive_peak"] = max(c["mux.alive_peak"], alive)
        self._alive_frac_sum += alive / frontier
        if new.scale_log2 != state.scale_log2:
            c["mux.rescale_events"] += 1
        c["mux.dropped_mass_final"] = max(c["mux.dropped_mass_final"],
                                          float(new.dropped_mass))

    def _count_predict(self, result, pred, *args, **kwargs):
        c = self.counts
        c["mux.max_width"] = max(c["mux.max_width"],
                                 float(pred.last_interval_width))
        if tuple(result) == (0.5, 0.5):
            # a dead past never revives, so log2_mass() is read once per predictor
            if pred in self._dead or pred.log2_mass() == -math.inf:
                self._dead.add(pred)
                c["mux.uniform_fallbacks"] += 1

    def _count_csv(self, result, trace, *args, **kwargs):
        self.counts["loss.csv_rows"] += len(trace)

    def _count_files(self, result, argv=None, *args, **kwargs):
        argv = list(argv or [])
        if "--out" not in argv:
            return
        out = Path(argv[argv.index("--out") + 1])
        if out.is_dir():
            for f in out.rglob("*"):
                if f.is_file():
                    self.counts["cli.files_written"] += 1
                    self.counts["cli.bytes_written"] += f.stat().st_size

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, summed self time in seconds)."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = (int(np.count_nonzero(sel)), float(self_t[sel].sum()))
        return out

    def metrics(self, adversary_used: int) -> dict[str, float]:
        st = self.self_times()

        def self_s(*names):
            return math.fsum(st.get(n, (0, 0.0))[1] for n in names)

        def calls(*names):
            return sum(st.get(n, (0, 0.0))[0] for n in names)

        c = self.counts
        advances = calls("mux.advance")
        built = c["adversary.symbols_built"]
        return {
            "core.prefix_array_s": self_s("core.prefix_array"),
            "core.prefix_array_symbols": c["core.prefix_array_symbols"],
            "chain.sample_path_s": self_s("chain.sample_path"),
            "chain.states_sampled": c["chain.states_sampled"],
            "chain.max_state": c["chain.max_state"],
            "mux.initial_state_s": self_s("mux.initial_state"),
            "mux.propagate_s": self_s("mux.propagate"),
            "mux.propagate_calls": calls("mux.propagate"),
            "mux.advance_s": self_s("mux.advance"),
            "mux.advance_calls": advances,
            "mux.predict_self_s": self_s("mux.predict"),
            "mux.sample_trajectory_self_s": self_s("mux.sample_trajectory"),
            "mux.frontier_peak": c["mux.frontier_peak"],
            "mux.alive_peak": c["mux.alive_peak"],
            "mux.alive_frac": self._alive_frac_sum / advances if advances else 0.0,
            "mux.rescale_events": c["mux.rescale_events"],
            "mux.uniform_fallbacks": c["mux.uniform_fallbacks"],
            "mux.max_width": c["mux.max_width"],
            "mux.dropped_mass_final": c["mux.dropped_mass_final"],
            "loss.trace_build_s": self_s("loss.trace_from_realized_probs"),
            "loss.to_csv_s": self_s("loss.to_csv"),
            "loss.csv_rows": c["loss.csv_rows"],
            "loss.word_stats_s": self_s("loss.word_stats"),
            "adversary.extend_s": self_s("adversary.extend"),
            "adversary.symbols_built": built,
            "adversary.used_frac": adversary_used / built if built else 0.0,
            "baselines.predict_s": self_s("baselines.predict"),
            "baselines.observe_s": self_s("baselines.observe"),
            "baselines.calls": calls("baselines.predict", "baselines.observe"),
            "cli.self_s": self_s("cli.main"),
            "cli.files_written": c["cli.files_written"],
            "cli.bytes_written": c["cli.bytes_written"],
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
