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
columns are always available. The window columns alone form a linear
multi-output feed-forward equalizer, and at the default settings they
do nearly all of the work: over the desk grid (0-50 km, n_out 1/17/23)
a readout without the reservoir columns crosses the KP4 threshold within
0.05 dB of the full one, while a readout of the reservoir and bias alone
never reaches it.

Training and equalization run off one chunked step stream. Several
observations of one frame (the SNR points of a sweep frame, which share
the weight draw) can run through it side by side as a batch; each row of
a batch gets exactly the numbers it would get alone, and the
one-observation calls fit_readout and equalize are that batch at size 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .link import SlicedObservation, SymbolFrame
from .rng import STREAM_OUT_MASK, STREAM_W_IN, STREAM_W_RES, substream

# Steps per chunk of the step stream that trains and equalizes. Bounds peak
# memory at roughly B * chunk * n_in floats regardless of frame length. It
# is the same at every batch size B, so how a row's steps are chunked, and
# with it every sum the row's numbers come from, never depends on B.
_CHUNK_STEPS = 2048


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
    observations: Sequence[SlicedObservation],
    cfg: EsnConfig,
    first_target: int,
    t0: int,
    t1: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Input matrices (B, t1 - t0, n_in) for steps [t0, t1), one per
    observation, written into ``out`` when it is given.

    Feature order is slice-major, then window symbol, then sample within
    the symbol. Window positions outside the frame contribute zeros: the
    chunk's symbol span is copied into a zero-padded buffer, whose
    windows are strided views copied into place.
    """
    sps, n_steps = cfg.sps, max(t1 - t0, 0)
    width = cfg.m * sps
    inputs = np.empty((len(observations), n_steps, cfg.n_in)) if out is None else out
    lo = first_target + t0 * cfg.n_out - (cfg.m - cfg.n_out) // 2
    hi = lo + (n_steps - 1) * cfg.n_out + cfg.m
    for row, obs in enumerate(observations if n_steps else ()):
        span = np.zeros((cfg.num_slices, (hi - lo) * sps))
        a, b = max(lo, 0), min(hi, obs.n_symbols)
        if a < b:
            span[:, (a - lo) * sps : (b - lo) * sps] = obs.data[:, a * sps : b * sps]
        windows = sliding_window_view(span, width, axis=1)[:, :: cfg.n_out * sps]
        # each row of the buffer is contiguous, so this reshape is a view
        inputs[row].reshape(n_steps, cfg.num_slices, width)[...] = windows.swapaxes(0, 1)
    return inputs


def _fold(
    proj: np.ndarray, w_res: np.ndarray, leak: float, x: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Sequential state fold over precomputed input projections.

    ``proj`` is (..., T, n_res) and ``x`` is (..., n_res): leading axes
    are independent rows folded side by side. Writes the state after
    each update into ``out`` (shaped like ``proj``) and returns the
    final state. The recurrent product is one matrix-vector product per
    row, so a row's states do not depend on how many rows share the
    fold. Buffers are reused; no per-step allocation.
    """
    z = np.empty_like(x)
    x_col, z_col = x[..., None], z[..., None]
    keep = 1.0 - leak
    for proj_t, out_t in zip(np.moveaxis(proj, -2, 0), np.moveaxis(out, -2, 0)):
        np.matmul(w_res, x_col, out=z_col)
        z += proj_t
        np.tanh(z, out=z)
        z *= leak
        x *= keep
        x += z
        out_t[...] = x
    return x


def _step_stream(
    observations: Sequence[SlicedObservation],
    w: EsnWeights,
    cfg: EsnConfig,
    first: int,
    n_steps: int,
    x: np.ndarray,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(t0, inputs, states)`` per chunk of steps [0, n_steps).

    Row b of the batch reads ``observations[b]``; inputs are (B, T,
    n_in) and states (B, T, n_res), and step i of a chunk is step t0 + i.
    The state starts at ``x`` (B, n_res) and carries from chunk to chunk.
    The yielded arrays are buffers that the next chunk overwrites, so a
    chunk never coexists with the one before it; copy what must outlive
    it.
    """
    size = (len(observations), min(_CHUNK_STEPS, n_steps))
    inputs_buf = np.empty(size + (cfg.n_in,))
    proj_buf, states_buf = np.empty(size + (cfg.n_res,)), np.empty(size + (cfg.n_res,))
    for t0 in range(0, n_steps, _CHUNK_STEPS):
        t1 = min(t0 + _CHUNK_STEPS, n_steps)
        inputs, proj, states = (buf[:, : t1 - t0] for buf in (inputs_buf, proj_buf, states_buf))
        _gather_inputs(observations, cfg, first, t0, t1, out=inputs)
        x = _fold(np.matmul(inputs, w.w_in.T, out=proj), w.w_res, cfg.leak, x, states)
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


def _batch_region(
    observations: Sequence[SlicedObservation],
    frame: SymbolFrame,
    cfg: EsnConfig,
    first_target: int | None,
    last_target: int | None,
) -> tuple[int, int]:
    """The checked target region shared by every observation of a batch."""
    if len(observations) == 0:
        raise ValueError("a batch needs at least one observation")
    regions = {_target_region(obs, frame, cfg, first_target, last_target) for obs in observations}
    if len(regions) != 1:
        raise ValueError("observations of one batch must share their target region")
    return regions.pop()


def fit_readout_batch(
    observations: Sequence[SlicedObservation],
    frame: SymbolFrame,
    w: EsnWeights,
    cfg: EsnConfig,
    first_target: int | None = None,
    last_target: int | None = None,
) -> np.ndarray:
    """Ridge-train one masked readout per observation of one frame.

    The observations share the frame and the fixed weights (for example
    the SNR points of one sweep frame) and run through one step stream;
    row b of the result is the readout of ``observations[b]``, equal to
    what that observation alone gives. Returns (B, n_out, n_res + n_in + 1).
    """
    first, n_steps = _batch_region(observations, frame, cfg, first_target, last_target)
    if cfg.washout >= n_steps:
        raise ValueError("washout must be smaller than the step count")
    targets = frame.levels[first : first + n_steps * cfg.n_out].reshape(n_steps, cfg.n_out)
    batch, d = len(observations), cfg.n_res + cfg.n_in
    gram = np.zeros((batch, d + 1, d + 1))
    moment = np.zeros((batch, d + 1, cfg.n_out))
    x = np.zeros((batch, cfg.n_res))
    for t0, inputs, states in _step_stream(observations, w, cfg, first, n_steps, x):
        lo = max(cfg.washout - t0, 0)
        if lo < states.shape[1]:
            y = targets[t0 + lo : t0 + states.shape[1]]
            for b in range(batch):
                feats = np.hstack([states[b, lo:], inputs[b, lo:]])
                _accumulate_gram(gram[b], moment[b], feats, y)
    mask = _extended_mask(w.out_mask, cfg.n_in)
    return np.stack([
        _solve_masked_ridge(gram[b], moment[b], mask, cfg.ridge_lambda) for b in range(batch)
    ])


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
    long frames. This is the one-observation case of fit_readout_batch.
    """
    return fit_readout_batch([obs], frame, w, cfg, first_target, last_target)[0]


def equalize_batch(
    observations: Sequence[SlicedObservation],
    frame: SymbolFrame,
    w: EsnWeights,
    w_outs: np.ndarray,
    cfg: EsnConfig,
    first_target: int | None = None,
    last_target: int | None = None,
) -> tuple[np.ndarray, int]:
    """Soft estimates of one frame for each observation and its readout.

    ``w_outs[b]`` reads ``observations[b]``, which all share the frame
    and the fixed weights of ``w``. Returns (B, n) estimates and the
    absolute index of the first estimated symbol; row b equals what
    equalize gives for that observation alone.
    """
    first, n_steps = _batch_region(observations, frame, cfg, first_target, last_target)
    estimates = np.empty((len(observations), n_steps, cfg.n_out))
    x = np.zeros((len(observations), cfg.n_res))
    if cfg.washout > 0 and n_steps > 0:
        warm = _gather_inputs(observations, cfg, first, -cfg.washout, 0)
        x = _fold(warm @ w.w_in.T, w.w_res, cfg.leak, x, np.empty(warm.shape[:2] + (cfg.n_res,)))
    state_part = w_outs[:, :, : cfg.n_res].swapaxes(1, 2)
    window_part = w_outs[:, :, cfg.n_res : cfg.n_res + cfg.n_in].swapaxes(1, 2)
    bias = w_outs[:, None, :, -1]
    for t0, inputs, states in _step_stream(observations, w, cfg, first, n_steps, x):
        estimates[:, t0 : t0 + states.shape[1]] = (
            states @ state_part + inputs @ window_part + bias
        )
    return estimates.reshape(len(observations), -1), first


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
    first_index + j. This is the one-observation case of equalize_batch.
    """
    estimates, first = equalize_batch(
        [obs], frame, w, w.w_out[None], cfg, first_target, last_target
    )
    return estimates[0], first
