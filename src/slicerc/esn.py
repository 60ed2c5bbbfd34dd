"""Sliding-window echo state network equalizer with multi-symbol readout.

One reservoir step consumes a window of 2k+1 symbols (all slices, all
samples per symbol) and emits estimates for the n_out symbols centered
in that window. Consecutive steps stride by n_out symbols and the state
carries across steps within a frame, which is what divides the per-step
update cost over n_out equalized symbols.

Only the readout is trained. It reads the extended state, meaning the
reservoir state concatenated with the step's own input window, plus an
unregularized bias. Each readout row solves a ridge regression over the
columns its row of ``out_mask`` selects, the one rule for what it reads;
init_weights draws the paper's mask: a random, never empty subset of the
reservoir columns, every window column and the bias. The window columns
alone form a linear multi-output feed-forward equalizer, and at the
default settings they do nearly all of the work: over the desk grid
(0-50 km, n_out 1/17/23) a readout without the reservoir columns
crosses the KP4 threshold within 0.05 dB of the full one, while a
readout of the reservoir and bias alone never reaches it. A mask that
reads no reservoir column runs no reservoir: the step stream skips the
input projection and the fold, and equalization multiplies the window
columns and the bias alone.

Training and equalization read the same design rows, [state | window | 1]
per step, from one chunked step stream whose zero state starts ``washout``
steps before its first row, over a target region that every call names.
Several observations of one frame (the SNR points of a sweep frame, which
share the weight draw) can run through it side by side as a batch; each
row of a batch gets exactly the numbers it would get alone. fit_readout
is that batch at size 1. equalize_stream hands out the estimates chunk
by chunk as the stream makes them, so a caller that scores them as they
come never holds a frame's estimates; equalize gathers the chunks of one
observation into one array.
The observations of one frame share its clean rows and its noise draw,
and each chunk has an observation write only the noisy samples it reads
(SlicedObservation.write_samples), so a batch of any size holds no noisy
copy of the frame.

The stream runs on two threads. The calling thread runs only the fold
of chunk i. A helper thread, started and joined within each stream,
meanwhile builds chunk i - 1's design rows one observation at a time in
one (chunk, n_res + n_in + 1) buffer, hands each observation's rows to
the consumer that fit_readout_batch (Gram and moment) or equalize_stream
(readout product) passes in, and then gathers and projects chunk i + 1.
Projections and states each alternate between two buffers, and every
buffer is allocated before the helper starts. The fold stays on the
calling thread because it is a loop of small calls that hold the
interpreter lock, while the helper makes a few large numpy calls per
observation and chunk, so the lock changes hands that often. A fold on
the helper would instead contend, at each of its small calls, with the
caller's Python-heavy scoring of the yielded chunks.

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
and a stream whose guesses mostly fail, which stops guessing. Either
way the projections and states of a chunk are laid out step-major in its
segments (_segments), so each loop step reads and writes one contiguous
block and writes the new state straight into it, in six calls.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite
from numbers import Integral
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .link import SlicedObservation, SymbolFrame, _helper_thread
from .rng import STREAM_OUT_MASK, STREAM_W_IN, STREAM_W_RES, substream

# Steps per chunk of the step stream. Bounds the stream's memory at about
# chunk * (n_res + n_in + 1 + 4 * B * n_res) floats regardless of frame
# length: one design-row buffer, and two projection and two state buffers.
# It is the same at every batch size B, so how a row's steps are chunked,
# and with it every sum the row's numbers come from, never depends on B.
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.k < 0:
            raise ValueError("k must be >= 0")
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

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
    and draws the reservoir ones Bernoulli(s_out). A row whose reservoir
    part comes up empty is redrawn, as part of the paper's draw: it is not
    a rule of fit_readout, which trains any mask of the readout's shape.
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
    first_target: int,
    last_target: int,
) -> int:
    """Step count of the region [first_target, last_target) of a batch
    of observations of ``frame``.

    Targets advance by n_out per step, so each appears once; a remainder
    shorter than n_out at the region end is left untargeted. The caller
    names the region, so keeping off the link's guard is the caller's job.
    """
    if len(observations) == 0:
        raise ValueError("a batch needs at least one observation")
    for obs in observations:
        if obs.num_slices != cfg.num_slices or obs.sps != cfg.sps:
            raise ValueError("observation geometry does not match the config")
        if obs.rows.shape[1] != frame.n_symbols * cfg.sps:
            raise ValueError("observation is misaligned with the frame")
    if frame.n_symbols < cfg.m:
        raise ValueError("frame must hold at least one full window")
    if not 0 <= first_target <= last_target <= frame.n_symbols:
        raise ValueError("target region must lie within the frame")
    return (last_target - first_target) // cfg.n_out


class _WindowGather:
    """Writes the window columns of one observation's steps [t0, t1)
    into a (t1 - t0, n_in) array.

    Feature order is slice-major, then window symbol, then sample within
    the symbol. Window positions outside the frame read zeros: the
    observation writes the steps' symbol span of noisy samples into a
    zero-padded span, whose windows are a strided view copied into place
    in one call. One span and its window view serve every call of a
    length, and they are allocated here for each length in ``lengths``.
    """

    def __init__(self, cfg: EsnConfig, first_target: int, lengths: set[int]) -> None:
        self.cfg, self.first = cfg, first_target
        self.spans = {}
        for n_steps in lengths:
            span = np.zeros((cfg.num_slices, ((n_steps - 1) * cfg.n_out + cfg.m) * cfg.sps))
            windows = sliding_window_view(span, cfg.m * cfg.sps, axis=1)[:, :: cfg.n_out * cfg.sps]
            self.spans[n_steps] = span, windows.swapaxes(0, 1)

    def __call__(self, obs: SlicedObservation, t0: int, t1: int, out: np.ndarray) -> np.ndarray:
        cfg, sps = self.cfg, self.cfg.sps
        span, windows = self.spans[t1 - t0]
        lo = self.first + t0 * cfg.n_out - (cfg.m - cfg.n_out) // 2
        hi = lo + span.shape[1] // sps
        a = max(lo, 0)
        b = max(min(hi, obs.n_symbols), a)
        # the padding of a span that runs off the frame; the in-frame part
        # is overwritten in full
        if a > lo:
            span[:, : (a - lo) * sps] = 0.0
        if b < hi:
            span[:, (b - lo) * sps :] = 0.0
        obs.write_samples(a * sps, b * sps, out=span[:, (a - lo) * sps : (b - lo) * sps])
        # the window columns of a design row are contiguous, so this is a
        # view; copy=False raises rather than copy
        out.reshape(t1 - t0, cfg.num_slices, cfg.m * sps, copy=False)[...] = windows
        return out


def _fold(
    proj: np.ndarray, w_res: np.ndarray, leak: float, x: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Sequential state fold over precomputed input projections.

    Time-major: ``proj`` is (T, ..., n_res) and ``x`` is (..., n_res),
    whose leading axes are independent rows folded side by side. The
    state after step t is written straight into ``out[t]`` (``out`` is
    shaped like ``proj``) and read back as the next step's state, so
    ``x`` itself is never written; returns the final state, a view of
    ``out`` (``x`` when T = 0). The recurrent product is one
    matrix-vector product per row, so a row's states do not depend on
    how many rows share the fold. Six calls a step, outputs passed
    positionally; no per-step allocation.
    """
    z = np.empty(x.shape)
    keep = 1.0 - leak
    for proj_t, out_t in zip(proj, out):
        np.matvec(w_res, x, z)
        np.add(z, proj_t, z)
        np.tanh(z, z)
        np.multiply(z, leak, z)
        np.multiply(x, keep, out_t)
        np.add(out_t, z, out_t)
        x = out_t
    return x


def _segments(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segment layout of a chunk's (T, B, n_res) projections or states.

    The first S * L rows of ``buf`` (S = T // L segments of L =
    _SEGMENT_STEPS steps) hold the segments step-major, viewed as (L, S,
    B, n_res): step l of segment s, chunk step s * L + l, is one
    contiguous (B, n_res) block beside step l of the other segments, so
    every step of a side-by-side fold reads and writes one block. The
    remaining T - S * L rows hold the steps after the segments in order.
    Returns both views; with fewer than two segments the layout is plain
    time order.
    """
    n_steps, batch, n = buf.shape
    segs = n_steps // _SEGMENT_STEPS
    head = segs * _SEGMENT_STEPS
    return buf[:head].reshape(_SEGMENT_STEPS, segs, batch, n, copy=False), buf[head:]


def _time_order(buf: np.ndarray, b: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Observation b's steps of a segment-laid-out (T, B, n_res) buffer
    in time order: an (S, L, n_res) view of the segments, their S * L
    steps, and a (T - S * L, n_res) view of the steps after them."""
    seg, tail = _segments(buf)
    return seg[:, :, b].swapaxes(0, 1), seg.shape[0] * seg.shape[1], tail[:, b]


def _fold_segments(
    proj: np.ndarray, w_res: np.ndarray, leak: float, x: np.ndarray, out: np.ndarray, guess: bool
) -> tuple[np.ndarray, bool]:
    """_fold of a chunk whose (T, B, n_res) projections and states are laid
    out in segments (_segments).

    With ``guess``, the S segments fold side by side. Segment 0 continues
    from ``x``; every later segment guesses its start state by folding
    from zero over the W steps before it. All guesses fold as one batch,
    then all segments as one batch, both straight into ``out`` (the
    segment pass overwrites the guesses' rows). Segment s then holds the
    true states if its guess equals, bit for bit, the true state that
    ends segment s-1; a row that does not is refolded over the segment
    from that state. A row of _fold does not depend on the other rows of
    its batch, so the result is _fold's over the whole chunk. Without
    ``guess``, or with fewer than two segments, the segments fold one
    after the other. The steps after the segments fold last.

    Returns the final state, and whether to keep guessing: with
    ``guess``, whether at most half of the guesses were refolded.
    """
    (seg_proj, tail_proj), (seg_out, tail_out) = _segments(proj), _segments(out)
    span, segs, batch, n = seg_proj.shape
    if guess and segs >= 2:
        warm = _WARM_STEPS
        starts = np.empty((segs, batch, n))
        starts[0] = x
        starts[1:] = _fold(
            seg_proj[-warm:, :-1], w_res, leak, np.zeros((segs - 1, batch, n)), seg_out[-warm:, :-1]
        )
        _fold(seg_proj, w_res, leak, starts, seg_out)
        guesses = starts.view(np.uint64)
        refolded = 0
        for s in range(1, segs):
            true = seg_out[-1, s - 1]
            bad = np.flatnonzero((guesses[s] != true.view(np.uint64)).any(axis=1))
            if bad.size:
                redo = np.empty((span, bad.size, n))
                _fold(seg_proj[:, s, bad], w_res, leak, true[bad], redo)
                seg_out[:, s, bad] = redo
                refolded += bad.size
        x = seg_out[-1, -1]
        guess = 2 * refolded <= batch * (segs - 1)
    else:
        for s in range(segs):
            x = _fold(seg_proj[:, s], w_res, leak, x, seg_out[:, s])
    return _fold(tail_proj, w_res, leak, x, tail_out), guess


def _reads_reservoir(w: EsnWeights, cfg: EsnConfig) -> bool:
    """Whether some row of ``w.out_mask`` reads a reservoir column. When
    none does, the step stream runs neither the ``w_in`` projection nor
    the fold and leaves the state columns at zero, and the readout
    product reads [window | 1] alone."""
    return bool(np.asarray(w.out_mask)[:, : cfg.n_res].any())


def _step_stream(
    observations: Sequence[SlicedObservation],
    w: EsnWeights,
    cfg: EsnConfig,
    first: int,
    n_steps: int,
    consume: Callable[[int, int, int, np.ndarray], None],
) -> Iterator[tuple[int, int, int]]:
    """Hand the design rows of steps [0, n_steps) to ``consume``, chunk by
    chunk, and yield ``(slot, t0, n)`` once a chunk's n rows from step t0
    have all been consumed.

    ``consume(slot, b, t0, rows)`` gets the chunk's rows of
    ``observations[b]``: (n, n_res + n_in + 1) design rows [state |
    window | 1], row i being step t0 + i. They are a view of one buffer
    that the next call overwrites. ``slot`` is 0 and 1 in turn from chunk
    to chunk, so a consumer that writes each chunk's results into one of
    two buffers keeps a yielded chunk's results intact until the caller
    asks for the next. The state starts from zero at step -cfg.washout,
    where the chunks start; those warm-up steps (zero-padded off the
    frame) are folded but not consumed.

    The fold of chunk i runs on this thread, while a helper thread,
    started and joined within the stream, builds and consumes chunk
    i - 1's rows one observation at a time and then gathers and projects
    chunk i + 1 onto ``w_in``; projections and states each alternate
    between two (T, B, n_res) buffers, laid out in segments. So
    ``consume`` runs on the helper and re-raises here. Every buffer is
    allocated before the helper starts. Each chunk folds its segments
    side by side from verified guesses (_fold_segments) while the batch
    holds at most _SPECULATE_MAX_STATE state entries, and one after the
    other otherwise or once a chunk has refolded more than half of its
    guesses. The states are the same either way. A readout
    that reads no reservoir column (_reads_reservoir) needs no state: its
    state columns stay zero, nothing folds, and the rows are the same.
    """
    if n_steps <= 0:
        return
    batch, d = len(observations), cfg.n_res + cfg.n_in
    chunks = [
        (t0, min(t0 + _CHUNK_STEPS, n_steps)) for t0 in range(-cfg.washout, n_steps, _CHUNK_STEPS)
    ]
    gather = _WindowGather(cfg, first, {t1 - t0 for t0, t1 in chunks})
    size = chunks[0][1] - chunks[0][0]
    rows = np.empty((size, d + 1))
    rows[:, d] = 1.0
    fold = _reads_reservoir(w, cfg)
    if fold:
        proj = np.empty((2, size, batch, cfg.n_res))
        states = np.empty((2, size, batch, cfg.n_res))
        in_order = np.empty((size, cfg.n_res))
        x = np.zeros((batch, cfg.n_res))
        speculate = batch * cfg.n_res <= _SPECULATE_MAX_STATE
    else:
        rows[:, : cfg.n_res] = 0.0

    def project(i: int) -> None:
        if fold and i < len(chunks):
            t0, t1 = chunks[i]
            inputs, projected = rows[: t1 - t0, cfg.n_res : d], in_order[: t1 - t0]
            for b, obs in enumerate(observations):
                # one product over the chunk's steps in time order, whose
                # bits do not depend on where the segments cut them
                np.matmul(gather(obs, t0, t1, inputs), w.w_in.T, projected)
                seg, head, tail = _time_order(proj[i % 2, : t1 - t0], b)
                seg[...] = projected[:head].reshape(seg.shape, copy=False)
                tail[...] = projected[head:]

    def build_and_consume(i: int) -> None:
        t0, t1 = chunks[i]
        skip = max(-t0, 0)
        for b, obs in enumerate(observations):
            if fold:
                seg, head, tail = _time_order(states[i % 2, : t1 - t0], b)
                rows[:head, : cfg.n_res].reshape(seg.shape, copy=False)[...] = seg
                rows[head : t1 - t0, : cfg.n_res] = tail
            gather(obs, t0, t1, rows[: t1 - t0, cfg.n_res : d])
            consume(i % 2, b, t0 + skip, rows[skip : t1 - t0])

    def helper(i: int) -> None:
        """The helper's share while chunk i + 1 folds."""
        if i >= 0 and chunks[i][1] > 0:
            build_and_consume(i)
        project(i + 2)

    with _helper_thread() as submit:
        project(0)
        pending = submit(helper, -1)
        for i in range(len(chunks) + 1):
            if fold and i < len(chunks):
                t0, t1 = chunks[i]
                x, speculate = _fold_segments(
                    proj[i % 2, : t1 - t0], w.w_res, cfg.leak, x, states[i % 2, : t1 - t0], speculate
                )
            pending.result()
            if i < len(chunks):
                pending = submit(helper, i)
            if i > 0 and chunks[i - 1][1] > 0:
                t0, t1 = max(chunks[i - 1][0], 0), chunks[i - 1][1]
                yield (i - 1) % 2, t0, t1 - t0


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
    first_target: int,
    last_target: int,
) -> np.ndarray:
    """Ridge-train one masked readout per observation of one frame.

    The observations share the frame and the fixed weights (for example
    the SNR points of one sweep frame) and run through one step stream;
    row b of the result is the readout of ``observations[b]``, equal to
    what that observation alone gives. Returns (B, n_out, n_res + n_in + 1).
    The targets are the symbols of [first_target, last_target), and
    ``w.out_mask`` must have the readout's shape.
    """
    batch, d = len(observations), cfg.n_res + cfg.n_in
    mask = np.asarray(w.out_mask, dtype=bool)
    if mask.shape != (cfg.n_out, d + 1):
        raise ValueError(f"out_mask has shape {mask.shape}, the readout {(cfg.n_out, d + 1)}")
    n_steps = _target_region(observations, frame, cfg, first_target, last_target)
    if cfg.washout >= n_steps:
        raise ValueError("washout must be smaller than the step count")
    # the region's first washout steps warm the state and are not trained on
    first = first_target + cfg.washout * cfg.n_out
    n_steps -= cfg.washout
    targets = frame.levels[first : first + n_steps * cfg.n_out].reshape(n_steps, cfg.n_out)
    gram = np.zeros((batch, d + 1, d + 1))
    moment = np.zeros((batch, d + 1, cfg.n_out))
    # float64 targets keep the product on the BLAS path; they and the
    # products go through buffers made here, before the helper starts
    y = np.empty((min(_CHUNK_STEPS, n_steps), cfg.n_out))
    gram_part, moment_part = np.empty((d + 1, d + 1)), np.empty((d + 1, cfg.n_out))

    def accumulate(slot: int, b: int, t0: int, f: np.ndarray) -> None:
        if b == 0:
            y[: f.shape[0]] = targets[t0 : t0 + f.shape[0]]
        np.matmul(f.T, f, gram_part)
        gram[b] += gram_part
        np.matmul(f.T, y[: f.shape[0]], moment_part)
        moment[b] += moment_part

    for _ in _step_stream(observations, w, cfg, first, n_steps, accumulate):
        pass
    return np.stack([
        _solve_masked_ridge(gram[b], moment[b], mask, cfg.ridge_lambda) for b in range(batch)
    ])


def fit_readout(
    obs: SlicedObservation,
    frame: SymbolFrame,
    w: EsnWeights,
    cfg: EsnConfig,
    first_target: int,
    last_target: int,
) -> np.ndarray:
    """Ridge-train the masked readout over [first_target, last_target).

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
    first_target: int,
    last_target: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Soft estimates over [first_target, last_target) of one frame,
    chunk by chunk as the step stream yields them.

    ``w_outs[b]`` reads ``observations[b]``, which all share the frame
    and the fixed weights of ``w``. Yields ``(start, estimates)`` per
    chunk: (B, n) estimates whose column j belongs to symbol start + j.
    The estimates are views of a buffer that is overwritten once the
    caller asks for the next chunk, so a caller that keeps them copies
    them; one that scores them as they come never holds more than two
    chunks.
    """
    n_steps = _target_region(observations, frame, cfg, first_target, last_target)
    batch = len(observations)
    estimates = np.empty((2, batch, min(_CHUNK_STEPS, n_steps), cfg.n_out))
    # the columns the product reads: without a reservoir column in the
    # mask, the state columns are zero and not multiplied
    lo = 0 if _reads_reservoir(w, cfg) else cfg.n_res
    w_t = w_outs[..., lo:].swapaxes(1, 2)

    def product(slot: int, b: int, t0: int, rows: np.ndarray) -> None:
        np.matmul(rows[:, lo:], w_t[b], estimates[slot, b, : rows.shape[0]])

    for slot, t0, n in _step_stream(observations, w, cfg, first_target, n_steps, product):
        chunk = estimates[slot, :, :n].reshape(batch, -1, copy=False)
        yield first_target + t0 * cfg.n_out, chunk


def equalize(
    obs: SlicedObservation,
    frame: SymbolFrame,
    w: EsnWeights,
    cfg: EsnConfig,
    first_target: int,
    last_target: int,
) -> tuple[np.ndarray, int]:
    """Soft symbol estimates over [first_target, last_target) of one frame.

    Each estimate is a design row [state | window | 1] times ``w.w_out``.
    The state starts from zero ``washout`` windows before the region
    (zero-padded where they fall off the frame), which emit nothing;
    without this warm-up the first estimates would read a cold-start
    transient that training never saw, and no state leaks between calls.
    Returns the estimates and the absolute index of the first estimated
    symbol; estimate j belongs to symbol first_index + j. These are the
    chunks of equalize_stream for this one observation, gathered.
    """
    n_steps = _target_region([obs], frame, cfg, first_target, last_target)
    estimates = np.empty(n_steps * cfg.n_out)
    for start, chunk in equalize_stream(
        [obs], frame, w, w.w_out[None], cfg, first_target, last_target
    ):
        estimates[start - first_target : start - first_target + chunk.shape[1]] = chunk[0]
    return estimates, first_target
