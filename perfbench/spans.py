"""Spans around slicerc's public functions, recorded from outside the package.

The tracer replaces each listed function with a wrapper in every loaded
``slicerc`` module namespace that holds it (``harness`` imports
``simulate_link`` by name, so patching ``slicerc.link`` alone would miss
the calls made from ``run_experiment``). A wrapper records one span
(name, start, end, parent) per call and the counters that are measured
at that boundary. Spans stay in memory and are written when the run
ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

# layer -> public functions whose self time is reported
LAYERS = {
    "link": (
        "generate_frame",
        "pulse_shape",
        "mzm_modulate",
        "propagate_cd",
        "slice_spectrum",
        "photodetect_and_load_noise",
        "simulate_link",
    ),
    "esn": ("init_weights", "fit_readout", "equalize"),
    "metrics": ("hard_decision", "count_errors", "snr_at_threshold"),
    "harness": ("load_config", "run_experiment", "write_results", "read_results", "emit_plot_data"),
}

# spans whose allocations are followed with tracemalloc, and the layer
# peak they feed
_MEMORY_LAYER = {
    "link.simulate_link": "link",
    "esn.init_weights": "esn",
    "esn.fit_readout": "esn",
    "esn.equalize": "esn",
}

# root span of one timed workload round; its self time is the part of
# the round that no wrapped function covers
ROUND = "bench.round"
# root span of the extra round that follows allocations with tracemalloc
MEMORY_ROUND = "bench.memory_round"


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith(("_calls", "_frames", "_steps")):
        return "count"
    for suffix, name in (("_ratio", "ratio"), ("_mb", "MB"), ("_per_fold_step", "us"), ("_s", "s")):
        if metric.endswith(suffix):
            return name
    raise ValueError(f"no unit for {metric}")


class Tracer:
    """Span and counter store for one traced child process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # tracemalloc hooks every Python allocation and roughly doubles
        # the fold loop's time, so only an untimed round follows memory
        self.follow_memory = False
        self.begin_round()

    def begin_round(self) -> int:
        """Zero the counters; returns the index the round's spans start at."""
        self.counts = {"simulate_link_calls": 0, "fold_steps": 0}
        self.frames: set[tuple] = set()
        self.peak_alloc = {"link": 0, "esn": 0}
        return len(self.spans)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        """Wrap every listed function wherever a slicerc module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "slicerc" or n.startswith("slicerc.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"slicerc.{layer}"]
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, func):
        signature = inspect.signature(func)
        count = self._counter(name, signature)
        mem_layer = _MEMORY_LAYER.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            follow = self.follow_memory and mem_layer is not None and not tracemalloc.is_tracing()
            if follow:
                tracemalloc.start()
            index = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(index)
                if follow:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[mem_layer] = max(self.peak_alloc[mem_layer], peak)

        return wrapper

    def _counter(self, name: str, signature: inspect.Signature):
        if name == "link.simulate_link":

            def count(args, kwargs):
                cfg = signature.bind(*args, **kwargs).arguments["cfg"]
                self.counts["simulate_link_calls"] += 1
                self.frames.add((cfg.fiber_length_km, cfg.seed, cfg.n_symbols))

            return count
        if name in ("esn.fit_readout", "esn.equalize"):
            warm = name == "esn.equalize"

            def count(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                guard = a["obs"].guard_symbols
                first = guard if a["first_target"] is None else a["first_target"]
                last = a["frame"].n_symbols - guard if a["last_target"] is None else a["last_target"]
                steps = (last - first) // a["cfg"].n_out
                if warm and steps > 0:
                    steps += a["cfg"].washout
                self.counts["fold_steps"] += steps

            return count
        return None

    def round_metrics(self, lo: int) -> dict[str, float]:
        """Per-layer metrics of the round whose spans start at ``lo``."""
        own = self_times(self.spans, lo)
        out = {}
        for layer, names in LAYERS.items():
            for fn in names:
                suffix = "_self_s" if fn == "run_experiment" else "_s"
                out[f"{layer}.{fn}{suffix}"] = own.get(f"{layer}.{fn}", 0.0)
        calls = self.counts["simulate_link_calls"]
        out["link.simulate_link_calls"] = calls
        out["link.distinct_frames"] = len(self.frames)
        out["link.frame_reuse_ratio"] = len(self.frames) / calls if calls else 0.0
        steps = self.counts["fold_steps"]
        out["esn.fold_steps"] = steps
        fold_s = own.get("esn.fit_readout", 0.0) + own.get("esn.equalize", 0.0)
        out["esn.us_per_fold_step"] = 1e6 * fold_s / steps if steps else 0.0
        out["trace.unattributed_s"] = own.get(ROUND, 0.0)
        return out

    def memory_metrics(self) -> dict[str, float]:
        """Largest tracemalloc peak inside one call, per layer, since the
        last begin_round."""
        return {f"{layer}.peak_alloc_mb": peak / 2**20 for layer, peak in self.peak_alloc.items()}

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
                    )
                    + "\n"
                )


def self_times(spans: list[list], lo: int = 0, hi: int | None = None) -> dict[str, float]:
    """Self time per span name over ``spans[lo:hi]``: each span's duration
    minus the part its direct children cover."""
    hi = len(spans) if hi is None else hi
    total: dict[str, float] = {}
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        total[name] = total.get(name, 0.0) + (end - start)
        if parent >= lo:
            pname = spans[parent][0]
            total[pname] = total.get(pname, 0.0) - (end - start)
    return total
