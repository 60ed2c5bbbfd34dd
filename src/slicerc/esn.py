"""Sliding-window echo state network equalizer with multi-symbol readout.

One reservoir step consumes a window of 2k+1 symbols (all slices, all
samples per symbol) and emits estimates for the n_out symbols centered
in that window. Consecutive steps stride by n_out symbols and the state
carries across steps within a frame, which is what divides the per-step
update cost over n_out equalized symbols.

Only the readout is trained. It reads the extended state, meaning the
reservoir state concatenated with the step's own input window, plus an
unregularized bias. Each readout row solves a ridge regression whose
reservoir columns are restricted to that row's random mask; the window
columns are always available. The window part carries the linear
equalizer and the reservoir part adds the nonlinear correction, which
matters because a readout on 30 reservoir nodes alone cannot invert a
23-symbol window mixing.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .link import SlicedObservation, SymbolFrame
from .rng import STREAM_OUT_MASK, STREAM_W_IN, STREAM_W_RES, substream

# Steps per chunk of the step stream that trains and equalizes. Bounds peak
# memory at roughly chunk * n_in floats regardless of frame length.
_CHUNK_STEPS = 16384


@dataclass(frozen=True, slots=True)
class EsnConfig:
    """Topology and training hyperparameters of the equalizer."""

    k: int = 11
    n_res: int = 30
    n_out: int = 17
    sps: int = 2
    num_slices: int = 4
    spectral_radius: float = 1.2
    leak: float = 0.7
    s_in: float = 0.1
    s_res: float = 0.05
    s_out: float = 0.1
    input_scaling: float = 1.0
    ridge_lambda: float = 1e-4
    washout: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 0 or int(self.k) != self.k:
            raise ValueError("k must be a non-negative integer")
        if self.n_res < 1:
            raise ValueError("n_res must be >= 1")
        if not 1 <= self.n_out <= self.m:
            raise ValueError("n_out must lie in [1, 2k+1]")
        if self.sps < 1 or self.num_slices < 1:
            raise ValueError("sps and num_slices must be >= 1")
        if self.spectral_radius <= 0:
            raise ValueError("spectral_radius must be > 0")
        if not 0 < self.leak <= 1:
            raise ValueError("leak must lie in (0, 1]")
        for name in ("s_in", "s_res", "s_out"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.input_scaling <= 0:
            raise ValueError("input_scaling must be > 0")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be >= 0")
        if self.washout < 0:
            raise ValueError("washout must be >= 0")

    @property
    def m(self) -> int:
        """Window length in symbols."""
        return 2 * self.k + 1

    @property
    def n_in(self) -> int:
        """Input vector length per step."""
        return self.m * self.sps * self.num_slices


@dataclass(eq=False, slots=True)
class EsnWeights:
    """Fixed random weights plus the trained readout.

    ``w_out`` has shape (n_out, n_res + n_in + 1): reservoir columns,
    then window columns, then the bias. Entries of ``w_out[:, :n_res]``
    are exactly zero wherever ``out_mask`` is zero.
    """

    w_in: np.ndarray
    w_res: np.ndarray
    out_mask: np.ndarray
    w_out: np.ndarray


def init_weights(cfg: EsnConfig, seed: int | None = None) -> EsnWeights:
    """Draw the fixed random weights for one (topology, seed) pair.

    w_in entries are nonzero with probability s_in, values uniform on
    [-input_scaling, +input_scaling]. w_res is drawn at density s_res
    with values uniform on [-1, 1] and rescaled so its spectral radius
    equals cfg.spectral_radius. out_mask rows are Bernoulli(s_out);
    a row that comes up empty is redrawn so every output keeps at least
    one reservoir tap.
    """
    seed = cfg.seed if seed is None else seed
    rng_in = substream(seed, STREAM_W_IN)
    keep = rng_in.random((cfg.n_res, cfg.n_in)) < cfg.s_in
    values = rng_in.uniform(-cfg.input_scaling, cfg.input_scaling, keep.shape)
    w_in = np.where(keep, values, 0.0)

    rng_res = substream(seed, STREAM_W_RES)
    for _ in range(2):
        keep = rng_res.random((cfg.n_res, cfg.n_res)) < cfg.s_res
        values = rng_res.uniform(-1.0, 1.0, keep.shape)
        w_res = np.where(keep, values, 0.0)
        radius = float(np.max(np.abs(np.linalg.eigvals(w_res))))
        if radius > 0.0:
            break
    else:
        raise RuntimeError(
            "reservoir draw degenerate twice (zero spectral radius); "
            "raise s_res or n_res"
        )
    w_res *= cfg.spectral_radius / radius

    rng_mask = substream(seed, STREAM_OUT_MASK)
    out_mask = rng_mask.random((cfg.n_out, cfg.n_res)) < cfg.s_out
    for _ in range(10_000):
        empty = ~out_mask.any(axis=1)
        if not empty.any():
            break
        out_mask[empty] = rng_mask.random((int(empty.sum()), cfg.n_res)) < cfg.s_out
    else:
        raise RuntimeError("could not draw a readout mask without empty rows")

    w_out = np.zeros((cfg.n_out, cfg.n_res + cfg.n_in + 1))
    return EsnWeights(w_in=w_in, w_res=w_res, out_mask=out_mask, w_out=w_out)


def _target_region(
    obs: SlicedObservation,
    frame: SymbolFrame,
    cfg: EsnConfig,
    first_target: int | None,
    last_target: int | None,
) -> tuple[int, int]:
    """First target symbol and step count of a checked region.

    Targets default to the guard-trimmed usable region and advance by
    n_out per step, so each appears once; a remainder shorter than n_out
    at the region end is left untargeted.
    """
    if obs.num_slices != cfg.num_slices or obs.sps != cfg.sps:
        raise ValueError("observation geometry does not match the config")
    if obs.data.shape[1] != frame.n_symbols * cfg.sps:
        raise ValueError("observation is misaligned with the frame")
    if frame.n_symbols < cfg.m:
        raise ValueError("frame must hold at least one full window")
    if first_target is None:
        first_target = obs.guard_symbols
    if last_target is None:
        last_target = frame.n_symbols - obs.guard_symbols
    if not 0 <= first_target <= last_target <= frame.n_symbols:
        raise ValueError("target region must lie within the frame")
    return first_target, (last_target - first_target) // cfg.n_out


def _gather_inputs(
    obs: SlicedObservation, cfg: EsnConfig, first_target: int, t0: int, t1: int
) -> np.ndarray:
    """Input matrix for steps [t0, t1).

    Feature order is slice-major, then window symbol, then sample within
    the symbol. Window positions outside the frame contribute zeros.
    """
    n_sym = obs.n_symbols
    by_symbol = obs.data.reshape(cfg.num_slices, n_sym, cfg.sps)
    offset = (cfg.m - cfg.n_out) // 2
    starts = first_target + np.arange(t0, t1) * cfg.n_out - offset
    idx = starts[:, None] + np.arange(cfg.m)[None, :]
    inside = (idx >= 0) & (idx < n_sym)
    # gather straight into (step, slice, symbol, sample) order, so the
    # final reshape is a view rather than a second chunk-sized copy
    slices = np.arange(cfg.num_slices)
    gathered = by_symbol[slices[None, :, None], np.clip(idx, 0, n_sym - 1)[:, None, :]]
    gathered *= inside[:, None, :, None]
    return gathered.reshape(t1 - t0, cfg.n_in)


def _fold(
    proj: np.ndarray, w_res: np.ndarray, leak: float, x: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Sequential state fold over precomputed input projections.

    Writes the state after each update into ``out`` and returns the
    final state. Buffers are reused; no per-step allocation.
    """
    z = np.empty_like(x)
    keep = 1.0 - leak
    for t in range(proj.shape[0]):
        np.dot(w_res, x, out=z)
        z += proj[t]
        np.tanh(z, out=z)
        z *= leak
        x *= keep
        x += z
        out[t] = x
    return x


def _step_stream(
    obs: SlicedObservation, w: EsnWeights, cfg: EsnConfig, first: int, n_steps: int, x: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(t0, inputs, states)`` per chunk of steps [0, n_steps).

    Row i of a chunk belongs to step t0 + i; the state starts at ``x``
    and carries from chunk to chunk.
    """
    for t0 in range(0, n_steps, _CHUNK_STEPS):
        t1 = min(t0 + _CHUNK_STEPS, n_steps)
        inputs = _gather_inputs(obs, cfg, first, t0, t1)
        states = np.empty((t1 - t0, cfg.n_res))
        x = _fold(inputs @ w.w_in.T, w.w_res, cfg.leak, x, states)
        yield t0, inputs, states


def _accumulate_gram(
    gram: np.ndarray, moment: np.ndarray, feats: np.ndarray, targets: np.ndarray
) -> None:
    """Add one block of rows to the bias-augmented normal equations."""
    d = feats.shape[1]
    gram[:d, :d] += feats.T @ feats
    col = feats.sum(axis=0)
    gram[:d, d] += col
    gram[d, :d] += col
    gram[d, d] += feats.shape[0]
    moment[:d] += feats.T @ targets
    moment[d] += targets.sum(axis=0)


def _solve_masked_ridge(
    gram: np.ndarray, moment: np.ndarray, mask: np.ndarray, lam: float
) -> np.ndarray:
    """Solve each readout row over its unmasked columns plus the bias.

    The ridge penalty applies to feature coefficients only; the bias
    stays unpenalized so the large-lambda limit recovers the target
    mean.
    """
    n_out, d = mask.shape
    w_out = np.zeros((n_out, d + 1))
    for r in range(n_out):
        sel = np.flatnonzero(mask[r])
        cols = np.append(sel, d)
        a = gram[np.ix_(cols, cols)].copy()
        a[np.arange(sel.size), np.arange(sel.size)] += lam
        if lam == 0.0 and np.linalg.matrix_rank(a) < a.shape[0]:
            raise ValueError(
                "normal matrix is singular at ridge_lambda=0; "
                "train with a positive ridge_lambda"
            )
        w_out[r, cols] = np.linalg.solve(a, moment[cols, r])
    return w_out


def _extended_mask(mask: np.ndarray, n_in: int) -> np.ndarray:
    """Per-row feature selection over [reservoir | window] columns.

    Reservoir columns follow the readout mask; window columns are always
    selected. A row with no reservoir taps is rejected: it would turn
    that output into a purely linear filter, which the complexity
    accounting does not describe.
    """
    mask = np.asarray(mask, dtype=bool)
    empty = np.flatnonzero(~mask.any(axis=1))
    if empty.size:
        raise ValueError(f"readout row {empty[0]} has an empty mask, nothing to train")
    window_cols = np.ones((mask.shape[0], n_in), dtype=bool)
    return np.hstack([mask, window_cols])


def fit_readout(
    obs: SlicedObservation,
    frame: SymbolFrame,
    w: EsnWeights,
    cfg: EsnConfig,
    first_target: int | None = None,
    last_target: int | None = None,
) -> np.ndarray:
    """Ridge-train the masked readout over a target region.

    The design matrix per step is [state, window, 1], and the first
    ``cfg.washout`` steps are discarded. The normal equations are
    accumulated chunk by chunk, so memory stays bounded for arbitrarily
    long frames.
    """
    first, n_steps = _target_region(obs, frame, cfg, first_target, last_target)
    if cfg.washout >= n_steps:
        raise ValueError("washout must be smaller than the step count")
    targets = frame.levels[first : first + n_steps * cfg.n_out].reshape(n_steps, cfg.n_out)
    d = cfg.n_res + cfg.n_in
    gram = np.zeros((d + 1, d + 1))
    moment = np.zeros((d + 1, cfg.n_out))
    for t0, inputs, states in _step_stream(obs, w, cfg, first, n_steps, np.zeros(cfg.n_res)):
        lo = max(cfg.washout - t0, 0)
        if lo < states.shape[0]:
            y = targets[t0 + lo : t0 + states.shape[0]]
            _accumulate_gram(gram, moment, np.hstack([states[lo:], inputs[lo:]]), y)
    return _solve_masked_ridge(
        gram, moment, _extended_mask(w.out_mask, cfg.n_in), cfg.ridge_lambda
    )


def equalize(
    obs: SlicedObservation,
    frame: SymbolFrame,
    w: EsnWeights,
    cfg: EsnConfig,
    first_target: int | None = None,
    last_target: int | None = None,
) -> tuple[np.ndarray, int]:
    """Soft symbol estimates over a target region of one frame.

    The state starts from zero for every call, so processing order
    across frames cannot leak between them. Before the first emitted
    window the reservoir is warmed on the `washout` windows preceding
    the region (zero-padded where they fall off the frame); without
    this the first estimates would read a cold-start transient that
    training never saw. Returns the estimate sequence and the absolute
    index of the first estimated symbol; estimate j belongs to symbol
    first_index + j.
    """
    first, n_steps = _target_region(obs, frame, cfg, first_target, last_target)
    estimates = np.empty((n_steps, cfg.n_out))
    x = np.zeros(cfg.n_res)
    if cfg.washout > 0 and n_steps > 0:
        warm = _gather_inputs(obs, cfg, first, -cfg.washout, 0)
        x = _fold(warm @ w.w_in.T, w.w_res, cfg.leak, x,
                  np.empty((cfg.washout, cfg.n_res)))
    state_part = w.w_out[:, : cfg.n_res].T
    window_part = w.w_out[:, cfg.n_res : cfg.n_res + cfg.n_in].T
    bias = w.w_out[:, -1]
    for t0, inputs, states in _step_stream(obs, w, cfg, first, n_steps, x):
        estimates[t0 : t0 + states.shape[0]] = (
            states @ state_part + inputs @ window_part + bias
        )
    return estimates.ravel(), first


def save_weights(path: str, w: EsnWeights, cfg: EsnConfig) -> None:
    """Serialize weights plus their config to one .npz file, bit exact."""
    np.savez(
        path,
        w_in=w.w_in,
        w_res=w.w_res,
        out_mask=w.out_mask,
        w_out=w.w_out,
        config=np.array(json.dumps(asdict(cfg))),
    )


def load_weights(path: str) -> tuple[EsnWeights, EsnConfig]:
    """Inverse of save_weights."""
    with np.load(path) as data:
        cfg = EsnConfig(**json.loads(str(data["config"])))
        w = EsnWeights(
            w_in=data["w_in"],
            w_res=data["w_res"],
            out_mask=data["out_mask"],
            w_out=data["w_out"],
        )
    return w, cfg
