"""Sliding-window echo state network equalizer with multi-symbol readout.

One reservoir step consumes a window of 2k+1 symbols (all slices, all
samples per symbol) and emits estimates for the n_out symbols centered
in that window. Consecutive steps stride by n_out symbols and the state
carries across steps within a frame, which is what divides the per-step
update cost over n_out equalized symbols.

Only the readout is trained. It reads the extended state, meaning the
reservoir state concatenated with the step's own input window, plus an
unregularized bias. Each readout row solves a ridge regression over the
columns its row of ``out_mask`` selects: a random subset of the
reservoir columns, every window column and the bias. The window columns
alone form a linear multi-output feed-forward equalizer, and at the
default settings they do nearly all of the work: over the desk grid
(0-50 km, n_out 1/17/23) a readout without the reservoir columns
crosses the KP4 threshold within 0.05 dB of the full one, while a
readout of the reservoir and bias alone never reaches it.

Training and equalization read the same design rows, [state | window | 1]
per step, from one chunked step stream whose zero state starts ``washout``
steps before its first row. Several observations of one frame (the SNR
points of a sweep frame, which share the weight draw) can run through it
side by side as a batch; each row of a batch gets exactly the numbers it
would get alone. fit_readout is that batch at size 1. equalize_stream
hands out the estimates chunk by chunk as the stream makes them, so a
caller that scores them as they come never holds a frame's estimates;
equalize gathers the chunks of one observation into one array.
The observations of one frame share its clean rows and its noise draw,
and each chunk has an observation write only the noisy samples it reads
(SlicedObservation.write_samples), so a batch of any size holds no noisy
copy of the frame.

The state update is a Python loop, one step per window slide, whose cost
per step hardly depends on how many rows it carries. So the stream folds
each chunk in segments side by side. The reservoir forgets its start
state (the echo state property), so a segment's start state is guessed
by folding from zero over the steps just before it, and the guess is then
checked bit for bit against the true state that ends the previous
segment; a row whose guess fails is refolded from the true state. Since
a row of the fold never depends on the other rows of its batch, the
states are exactly those of one sequential fold. At the defaults every
guess holds (on desk frames a zero-started state meets the true one bit
for bit within 120-155 steps, and stays equal) and a 2048-step chunk
takes 448 loop steps. Two guards keep the plain sequential fold where
segments do not pay: a batch of more than 240 state entries (B * n_res),
and a stream whose guesses mostly fail, which stops guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .link import SlicedObservation, SymbolFrame
from .rng import STREAM_OUT_MASK, STREAM_W_IN, STREAM_W_RES, substream

# Steps per chunk of the step stream. Bounds peak memory at roughly
# B * chunk * (n_res + n_in + 1) floats regardless of frame length. It is
# the same at every batch size B, so how a row's steps are chunked, and
# with it every sum the row's numbers come from, never depends on B.
_CHUNK_STEPS = 2048

# Segmented fold (see _fold_segments): segment length, and the steps a
# segment's zero-started guess folds before it. A stream folds in
# segments only while its batch holds at most _SPECULATE_MAX_STATE state
# entries (B * n_res): the segments save fixed per-step cost but fold
# about 1.7x the row-steps, which stops paying past about B * n_res = 240
# (n_res 30 at B 8, n_res 64 at B 3-4, n_res 100-128 at B 1).
_SEGMENT_STEPS = 256
_WARM_STEPS = 192
_SPECULATE_MAX_STATE = 240


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

    ``w_out`` and the boolean ``out_mask`` are (n_out, n_res + n_in + 1):
    reservoir, window, then bias columns. Row r of ``out_mask`` holds the
    columns readout row r reads, and ``w_out[~out_mask]`` is exactly zero.
    """

    w_in: np.ndarray
    w_res: np.ndarray
    out_mask: np.ndarray
    w_out: np.ndarray


def init_weights(cfg: EsnConfig) -> EsnWeights:
    """Draw the fixed random weights for one (topology, seed) pair.

    w_in entries are nonzero with probability s_in, values uniform on
    [-input_scaling, +input_scaling]. w_res is drawn at density s_res
    with values uniform on [-1, 1] and rescaled so its spectral radius
    equals cfg.spectral_radius. out_mask sets the window and bias columns
    and draws the reservoir ones Bernoulli(s_out); a row whose reservoir
    part comes up empty is redrawn so every output keeps a reservoir tap.
    """
    rng_in = substream(cfg.seed, STREAM_W_IN)
    keep = rng_in.random((cfg.n_res, cfg.n_in)) < cfg.s_in
    values = rng_in.uniform(-cfg.input_scaling, cfg.input_scaling, keep.shape)
    w_in = np.where(keep, values, 0.0)

    rng_res = substream(cfg.seed, STREAM_W_RES)
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

    rng_mask = substream(cfg.seed, STREAM_OUT_MASK)
    out_mask = np.ones((cfg.n_out, cfg.n_res + cfg.n_in + 1), dtype=bool)
    taps = out_mask[:, : cfg.n_res]
    taps[...] = rng_mask.random(taps.shape) < cfg.s_out
    for _ in range(10_000):
        empty = ~taps.any(axis=1)
        if not empty.any():
            break
        taps[empty] = rng_mask.random((int(empty.sum()), cfg.n_res)) < cfg.s_out
    else:
        raise RuntimeError("could not draw a readout mask without empty rows")
    return EsnWeights(w_in=w_in, w_res=w_res, out_mask=out_mask, w_out=np.zeros(out_mask.shape))


def _target_region(
    observations: Sequence[SlicedObservation],
    frame: SymbolFrame,
    cfg: EsnConfig,
    first_target: int | None,
    last_target: int | None,
) -> tuple[int, int]:
    """First target symbol and step count of the checked region that
    every observation of a batch shares.

    Targets default to the guard-trimmed usable region and advance by
    n_out per step, so each appears once; a remainder shorter than n_out
    at the region end is left untargeted.
    """
    if len(observations) == 0:
        raise ValueError("a batch needs at least one observation")
    guard = observations[0].guard_symbols
    for obs in observations:
        if obs.num_slices != cfg.num_slices or obs.sps != cfg.sps:
            raise ValueError("observation geometry does not match the config")
        if obs.rows.shape[1] != frame.n_symbols * cfg.sps:
            raise ValueError("observation is misaligned with the frame")
        if obs.guard_symbols != guard:
            raise ValueError("observations of one batch must share their target region")
    if frame.n_symbols < cfg.m:
        raise ValueError("frame must hold at least one full window")
    if first_target is None:
        first_target = guard
    if last_target is None:
        last_target = frame.n_symbols - guard
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
    the symbol. Window positions outside the frame contribute zeros: each
    observation writes the chunk's symbol span of noisy samples into a
    zero-padded buffer, whose windows are strided views copied into place.
    """
    sps, n_steps = cfg.sps, max(t1 - t0, 0)
    width = cfg.m * sps
    inputs = np.empty((len(observations), n_steps, cfg.n_in)) if out is None else out
    if n_steps == 0 or not observations:
        return inputs
    lo = first_target + t0 * cfg.n_out - (cfg.m - cfg.n_out) // 2
    hi = lo + (n_steps - 1) * cfg.n_out + cfg.m
    # one span serves every observation: they share the frame, so they
    # share its padding and the in-frame part is overwritten in full
    span = np.zeros((cfg.num_slices, (hi - lo) * sps))
    a = max(lo, 0)
    b = max(min(hi, observations[0].n_symbols), a)
    inside = span[:, (a - lo) * sps : (b - lo) * sps]
    windows = sliding_window_view(span, width, axis=1)[:, :: cfg.n_out * sps].swapaxes(0, 1)
    for row, obs in enumerate(observations):
        obs.write_samples(a * sps, b * sps, out=inside)
        # a row's window columns are contiguous even inside the design
        # rows, so this is a view; copy=False raises rather than copy
        inputs[row].reshape(n_steps, cfg.num_slices, width, copy=False)[...] = windows
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
    keep = 1.0 - leak
    for proj_t, out_t in zip(np.moveaxis(proj, -2, 0), np.moveaxis(out, -2, 0)):
        np.matvec(w_res, x, out=z)
        z += proj_t
        np.tanh(z, out=z)
        z *= leak
        x *= keep
        x += z
        out_t[...] = x
    return x


def _fold_segments(
    proj: np.ndarray, w_res: np.ndarray, leak: float, x: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, bool]:
    """_fold of a (B, T, n_res) chunk, its segments folded side by side.

    The chunk's first S * L steps split into S segments of L steps.
    Segment 0 continues from ``x``; every later segment guesses its start
    state by folding from zero over the W steps before it. All guesses
    fold as one batch, then all segments as one batch, both straight into
    ``out`` (the segment pass overwrites the guesses' rows). Segment s
    then holds the true states if its guess equals, bit for bit, the true
    state that ends segment s-1; a row that does not is refolded over the
    segment from that state. A row of _fold does not depend on the other
    rows of its batch, so the result is _fold's over the whole chunk. The
    remaining T - S * L steps fold after the check, and a chunk of fewer
    than two segments folds as one _fold.

    Returns the final state, and whether at most half of the guesses
    were refolded (the stream's cue to keep guessing).
    """
    batch, n_steps, n = proj.shape
    span, warm = _SEGMENT_STEPS, _WARM_STEPS
    segs = n_steps // span
    if segs < 2:
        return _fold(proj, w_res, leak, x, out), True
    head = segs * span
    seg_proj = proj[:, :head].reshape(batch, segs, span, n, copy=False)
    seg_out = out[:, :head].reshape(batch, segs, span, n, copy=False)
    starts = np.zeros((batch, segs, n))
    starts[:, 0] = x
    _fold(seg_proj[:, :-1, -warm:], w_res, leak, starts[:, 1:], seg_out[:, :-1, -warm:])
    _fold(seg_proj, w_res, leak, starts.copy(), seg_out)
    guesses = starts.view(np.uint64)
    refolded = 0
    for s in range(1, segs):
        true = seg_out[:, s - 1, -1]
        bad = np.flatnonzero((guesses[:, s] != true.view(np.uint64)).any(axis=1))
        if bad.size:
            redo = np.empty((bad.size, span, n))
            _fold(seg_proj[bad, s], w_res, leak, true[bad], redo)
            seg_out[bad, s] = redo
            refolded += bad.size
    x = _fold(proj[:, head:], w_res, leak, out[:, head - 1].copy(), out[:, head:])
    return x, 2 * refolded <= batch * (segs - 1)


def _step_stream(
    observations: Sequence[SlicedObservation],
    w: EsnWeights,
    cfg: EsnConfig,
    first: int,
    n_steps: int,
    washout: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t0, rows)`` per chunk of steps [0, n_steps).

    ``rows`` (B, T, n_res + n_in + 1) are the design rows [state |
    window | 1]: row b reads ``observations[b]`` and step i of a chunk is
    step t0 + i. The state starts from zero at step -washout, where the
    chunks start; those warm-up steps (zero-padded off the frame) are
    folded but not yielded. The rows are views of one buffer that the
    next chunk overwrites, so copy what must outlive a chunk.

    Each chunk folds in verified segments (_fold_segments) while the
    batch holds at most _SPECULATE_MAX_STATE state entries, and as one
    sequential _fold otherwise or once a chunk has refolded more than
    half of its guesses. The states are the same either way.
    """
    if n_steps <= 0:
        return
    d = cfg.n_res + cfg.n_in
    buf = np.empty((len(observations), min(_CHUNK_STEPS, washout + n_steps), d + 1))
    buf[..., d] = 1.0
    proj_buf = np.empty(buf.shape[:2] + (cfg.n_res,))
    x = np.zeros((len(observations), cfg.n_res))
    speculate = len(observations) * cfg.n_res <= _SPECULATE_MAX_STATE
    for t0 in range(-washout, n_steps, _CHUNK_STEPS):
        t1 = min(t0 + _CHUNK_STEPS, n_steps)
        rows, proj = buf[:, : t1 - t0], proj_buf[:, : t1 - t0]
        inputs = _gather_inputs(observations, cfg, first, t0, t1, out=rows[..., cfg.n_res : d])
        np.matmul(inputs, w.w_in.T, out=proj)
        if speculate:
            x, speculate = _fold_segments(proj, w.w_res, cfg.leak, x, rows[..., : cfg.n_res])
        else:
            x = _fold(proj, w.w_res, cfg.leak, x, rows[..., : cfg.n_res])
        if t1 > 0:
            yield max(t0, 0), rows[:, max(-t0, 0) :]


def _solve(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """np.linalg.solve, refusing rank-deficient normal matrices at lam=0."""
    if lam == 0.0 and (np.linalg.matrix_rank(a) < a.shape[-1]).any():
        raise ValueError(
            "normal matrix is singular at ridge_lambda=0; "
            "train with a positive ridge_lambda"
        )
    return np.linalg.solve(a, b)


def _solve_masked_ridge(
    gram: np.ndarray, moment: np.ndarray, mask: np.ndarray, lam: float
) -> np.ndarray:
    """Solve every readout row over the columns its mask row selects.

    ``mask`` is as wide as ``gram``. The columns every row reads are
    eliminated once; the rest is one stacked solve over their Schur
    complement, where a row's unselected columns become identity rows
    with a zero right-hand side and so get exactly zero weight. The ridge
    penalty applies to every column but the last, the bias, which stays
    unpenalized so the large-lambda limit recovers the target mean.
    """
    n_out, d = mask.shape
    s, v = np.flatnonzero(mask.all(axis=0)), np.flatnonzero(~mask.all(axis=0))
    a = gram + np.diag(np.append(np.full(d - 1, lam), 0.0))
    a_vs, pick = a[np.ix_(v, s)], mask[:, v]
    z = _solve(a[np.ix_(s, s)], np.hstack([a_vs.T, moment[s]]), lam)
    z_v, z_m = z[:, : v.size], z[:, v.size :]
    schur = (a[np.ix_(v, v)] - a_vs @ z_v) * (pick[:, :, None] & pick[:, None, :])
    schur[:, np.arange(v.size), np.arange(v.size)] += ~pick
    w_out = np.empty((n_out, d))
    w_out[:, v] = _solve(schur, ((moment[v] - a_vs @ z_m).T * pick)[..., None], lam)[..., 0]
    w_out[:, s] = z_m.T - w_out[:, v] @ z_v.T
    return w_out


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

    ``w.out_mask`` must have that shape and every row must read a
    reservoir column: without one an output is a linear filter, which
    the complexity accounting does not describe.
    """
    batch, d = len(observations), cfg.n_res + cfg.n_in
    mask = np.asarray(w.out_mask, dtype=bool)
    if mask.shape != (cfg.n_out, d + 1):
        raise ValueError(f"out_mask has shape {mask.shape}, the readout {(cfg.n_out, d + 1)}")
    empty = np.flatnonzero(~mask[:, : cfg.n_res].any(axis=1))
    if empty.size:
        raise ValueError(f"readout row {empty[0]} has an empty mask over the reservoir")
    first, n_steps = _target_region(observations, frame, cfg, first_target, last_target)
    if cfg.washout >= n_steps:
        raise ValueError("washout must be smaller than the step count")
    # the region's first washout steps warm the state and are not trained on
    first += cfg.washout * cfg.n_out
    n_steps -= cfg.washout
    targets = frame.levels[first : first + n_steps * cfg.n_out].reshape(n_steps, cfg.n_out)
    gram = np.zeros((batch, d + 1, d + 1))
    moment = np.zeros((batch, d + 1, cfg.n_out))
    for t0, rows in _step_stream(observations, w, cfg, first, n_steps, cfg.washout):
        y = targets[t0 : t0 + rows.shape[1]]
        for b, f in enumerate(rows):
            gram[b] += f.T @ f
            moment[b] += f.T @ y
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

    Each step is one design row [state | window | 1]; the region's first
    ``cfg.washout`` steps are the stream's warm-up and are not trained
    on. The normal equations are accumulated chunk by chunk as
    ``rows.T @ rows``, so memory stays bounded for arbitrarily long
    frames. This is the one-observation case of fit_readout_batch.
    """
    return fit_readout_batch([obs], frame, w, cfg, first_target, last_target)[0]


def equalize_stream(
    observations: Sequence[SlicedObservation],
    frame: SymbolFrame,
    w: EsnWeights,
    w_outs: np.ndarray,
    cfg: EsnConfig,
    first_target: int | None = None,
    last_target: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Soft estimates of one frame chunk by chunk, as the step stream
    yields them.

    ``w_outs[b]`` reads ``observations[b]``, which all share the frame
    and the fixed weights of ``w``. Yields ``(start, estimates)`` per
    chunk: (B, n) estimates whose column j belongs to symbol start + j.
    The estimates are views of one buffer that the next chunk
    overwrites, so a caller that keeps them copies them; one that scores
    them as they come never holds more than a chunk.
    """
    first, n_steps = _target_region(observations, frame, cfg, first_target, last_target)
    batch = len(observations)
    buf = np.empty((batch, min(_CHUNK_STEPS, n_steps), cfg.n_out))
    w_t = w_outs.swapaxes(1, 2)
    for t0, rows in _step_stream(observations, w, cfg, first, n_steps, cfg.washout):
        estimates = buf[:, : rows.shape[1]]
        np.matmul(rows, w_t, out=estimates)
        yield first + t0 * cfg.n_out, estimates.reshape(batch, -1, copy=False)


def equalize(
    obs: SlicedObservation,
    frame: SymbolFrame,
    w: EsnWeights,
    cfg: EsnConfig,
    first_target: int | None = None,
    last_target: int | None = None,
) -> tuple[np.ndarray, int]:
    """Soft symbol estimates over a target region of one frame.

    Each estimate is a design row [state | window | 1] times ``w.w_out``.
    The state starts from zero ``washout`` windows before the region
    (zero-padded where they fall off the frame), which emit nothing;
    without this warm-up the first estimates would read a cold-start
    transient that training never saw, and no state leaks between calls.
    Returns the estimates and the absolute index of the first estimated
    symbol; estimate j belongs to symbol first_index + j. These are the
    chunks of equalize_stream for this one observation, gathered.
    """
    first, n_steps = _target_region([obs], frame, cfg, first_target, last_target)
    estimates = np.empty(n_steps * cfg.n_out)
    for start, chunk in equalize_stream(
        [obs], frame, w, w.w_out[None], cfg, first_target, last_target
    ):
        estimates[start - first : start - first + chunk.shape[1]] = chunk[0]
    return estimates, first
