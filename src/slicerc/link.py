"""PAM4 intensity-modulated direct-detection link with spectral slicing.

Simulated chain:

    bits -> Gray PAM4 levels -> RRC pulse shaping -> MZM optical field
         -> chromatic dispersion -> brick-wall spectral slices
         -> per-slice photodetection -> per-slice AWGN loading

The frame is treated as circular. Pulse shaping and dispersion are both
applied as FFT-based circular operators, so the wrap-around error is
confined to a guard region at the frame edges whose width follows from
the dispersion memory; downstream consumers exclude that guard.

Everything here is a pure function of the configuration, including its
seed. Bit generation and each slice's noise use separate named
substreams, so the transmitted data does not change when the number of
slices changes. The chain splits before the noise: :func:`detect_frame`
returns the noiseless detected rows, which depend on every setting but
the SNR, and :func:`load_noise_batch` draws each slice's standard normal
noise once for any number of SNRs. No noisy copy of the rows is made: an
observation holds the shared rows, the shared draw and its own per-slice
noise scale, and :meth:`SlicedObservation.write_samples` is the one place
that turns them into the samples of any span a reader asks for. One SNR
whose observation owns its rows needs no shared draw:
:func:`simulate_link` adds the same noise into the rows in place, 2^16
samples at a time, and its observation's ``noise`` is all zero. Both
forms take each slice's draw and scale from one rule
(:func:`_slice_noise`, whose variance is ``row.var()`` bit for bit
without a temporary of the row's size) and give the same samples bit
for bit.

:func:`detect_frame` runs dispersion, slicing and detection as one
spectral pass over the real MZM field's rfft and takes the carrier from
its DC bin. Every slice takes one path: P inverse transforms over
interleaved phases of its samples, onto which its bins alias, read in
place from the slice's compact bins. P is 1 up to 2^21 samples and makes
2^18-point transforms above, so the pass needs FFT scratch of a fraction
of the spectrum and each transform works in cache. A helper thread
runs for the span of a call: in :func:`detect_frame` above 2^21 samples,
where it takes half of every phase group, and in :func:`simulate_link`,
where it takes every other slice's noise. No thread outlives the call,
and the numbers are those of one thread.
:func:`propagate_cd`, :func:`slice_spectrum` and
:func:`photodetect` are the same steps as standalone operators on plain
arrays that read the sample rate from ``cfg``; the pass and the
operators share one definition of the dispersion phase, the slice bin
rule and the carrier-distributed square law.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from math import ceil, isfinite, pi
from numbers import Integral
from operator import ge, gt
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rng import STREAM_BITS, STREAM_SLICE_NOISE, substream

SPEED_OF_LIGHT = 299_792_458.0  # m/s

PAM4_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])

# Gray labeling: adjacent amplitude levels differ in exactly one bit.
# Bit pair (b0, b1) maps to index 2*b0 + b1 in this table.
_LEVEL_BY_GRAY_INDEX = np.array([-3, -1, 3, 1], dtype=np.int8)
# Inverse: level index (-3, -1, +1, +3) -> bit pair.
_BITS_BY_LEVEL_INDEX = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)

# detect_frame runs each slice as P inverse FFTs of n/P points onto which
# its bins alias, read through strided views of the slice's compact bins.
# P > 1 only for frames whose complex spectrum (16 bytes a sample) lies
# above glibc's 32 MiB mmap ceiling: below it the shorter transforms'
# scratch comes from the heap, whose freed pages stay resident, and at
# 2^19 samples splitting raised a sweep's peak RSS by 5 MB at the same live
# memory. Above it n/P >= _PIECE_POINTS; per 2^23 samples the transforms
# took 0.15-0.20 s at 2^18 points against 0.41-0.50 s at 2^21.
_SPLIT_ABOVE_BYTES = 32 << 20
_PIECE_POINTS = 2**18
# phases formed, transformed and detected together, so that each row of
# the (n/P, P) view of a slice's row takes 32 contiguous bytes per group: a
# slice ran 1.35x slower one phase at a time (stride-P writes), and no
# faster eight at a time with twice the buffer. Longer phases, where n has
# fewer factors of two, go fewer at a time, so the phase buffer never holds
# more than _GROUP_PHASES * _PIECE_POINTS points (at P = 1 it is one line
# of n). They are squared this many columns at a time, into a buffer that
# stays in cache.
_GROUP_PHASES = 4
_DETECT_COLUMNS = 8192

# a phase's twiddles e^{2 pi i c r / n} come from two tables of about this
# length, not from one table as long as the transform
_TWIDDLE_BLOCK = 512

# simulate_link draws, scales and adds a slice's noise this many samples at
# a time, and _slice_noise sums squared deviations over pieces of at most
# this many, so either needs a scratch of 512 KiB, not one of a row
_NOISE_POINTS = 2**16

_CACHE_LINE = 64  # bytes


@dataclass(frozen=True, slots=True)
class LinkConfig:
    """Physical and numerical parameters of one simulated link frame."""

    fiber_length_km: float
    snr_db: float
    n_symbols: int
    baud_rate: float = 32e9
    sps: int = 2
    rolloff: float = 0.1
    rrc_span_symbols: int = 64
    dispersion_ps_nm_km: float = 16.4
    wavelength_nm: float = 1550.0
    num_slices: int = 4
    mzm_mod_index: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.fiber_length_km < 0:
            raise ValueError("fiber_length_km must be >= 0")
        if self.baud_rate <= 0:
            raise ValueError("baud_rate must be > 0")
        if self.sps < 1:
            raise ValueError("sps must be >= 1")
        if not 0 <= self.rolloff <= 1:
            raise ValueError("rolloff must lie in [0, 1]")
        if self.rrc_span_symbols < 8:
            raise ValueError("rrc_span_symbols must be >= 8 to hold the main lobe")
        if self.num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        if not 0 < self.mzm_mod_index <= 1:
            raise ValueError("mzm_mod_index must lie in (0, 1]")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.wavelength_nm <= 0:
            raise ValueError("wavelength_nm must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.occupied_bandwidth > self.sample_rate:
            raise ValueError(
                "occupied bandwidth exceeds the sampling rate; raise sps"
            )

    @property
    def sample_rate(self) -> float:
        return self.baud_rate * self.sps

    @property
    def occupied_bandwidth(self) -> float:
        """Two-sided width of the shaped signal spectrum in Hz."""
        return (1.0 + self.rolloff) * self.baud_rate

    @property
    def beta2_s2_per_m(self) -> float:
        """Group velocity dispersion derived from the D parameter."""
        d_si = self.dispersion_ps_nm_km * 1e-6  # s/m^2
        lam = self.wavelength_nm * 1e-9
        return -d_si * lam**2 / (2.0 * pi * SPEED_OF_LIGHT)

    @property
    def cd_memory_symbols(self) -> float:
        """Dispersion-induced temporal spread across the occupied band,
        expressed in symbol periods."""
        spread_s = (
            abs(self.beta2_s2_per_m)
            * 2.0
            * pi
            * self.occupied_bandwidth
            * self.fiber_length_km
            * 1e3
        )
        return spread_s * self.baud_rate

    @property
    def guard_symbols(self) -> int:
        """Symbols to discard at each frame edge so retained symbols never
        see circular wrap-around: four times the dispersion memory."""
        return ceil(4.0 * self.cd_memory_symbols)


@dataclass(eq=False, slots=True)
class SymbolFrame:
    """Transmitted PAM4 levels as int8 (-3, -1, +1, +3);
    ``demap_gray_pam4(levels)`` gives their bits. Readers that compute
    with them cast them to float first."""

    levels: np.ndarray

    @property
    def n_symbols(self) -> int:
        return self.levels.size


@dataclass(eq=False, slots=True)
class SlicedObservation:
    """Photodetected outputs of every spectral slice, with their noise.

    The observed sample of slice i at sample j is
    ``rows[i, j] + noise[i, j] * noise_std[i]``. Two forms hold it:

    - From :func:`load_noise_batch`, ``rows`` is the noiseless detected
      frame and ``noise`` a standard normal draw. The SNR points of one
      frame share both and differ only in ``noise_std``, so neither
      array is ever written.
    - From :func:`simulate_link`, the lone observation of its frame,
      ``rows`` already carries its noise and ``noise`` is an all-zero
      broadcast view; ``noise_std`` keeps the scales that noise was
      drawn at.

    Sample ``i * sps + p`` of any row belongs to symbol i of the frame
    (p < sps). ``guard_symbols`` is the per-edge discard count inherited
    from the link configuration.
    """

    rows: np.ndarray
    noise: np.ndarray
    noise_std: np.ndarray
    sps: int
    guard_symbols: int

    @property
    def num_slices(self) -> int:
        return self.rows.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.rows.shape[1] // self.sps

    def write_samples(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Write the noisy samples ``start:stop`` of every slice into ``out``,
        shaped (num_slices, stop - start): ``fl(noise * noise_std) + rows``,
        the bits of a ``normal(0, sigma)`` draw added to the clean sample.
        Two calls for all slices, so a caller on a second thread hands the
        interpreter lock back and forth as little as it can."""
        np.multiply(self.noise[:, start:stop], self.noise_std[:, None], out)
        np.add(out, self.rows[:, start:stop], out)
        return out

    @property
    def data(self) -> np.ndarray:
        """The noisy samples of the whole frame, as a new array on every
        access; the equalizer writes only each chunk's span instead."""
        return self.write_samples(0, self.rows.shape[1], np.empty(self.rows.shape))


def generate_frame(n_symbols: int, rng: np.random.Generator) -> SymbolFrame:
    """Draw 2*n_symbols uniform bits and Gray-map them to PAM4 levels."""
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    bits = rng.integers(0, 2, size=2 * n_symbols, dtype=np.uint8)
    return SymbolFrame(levels=map_gray_pam4(bits))


def map_gray_pam4(bits: np.ndarray) -> np.ndarray:
    """Map a flat bit vector (two bits per symbol) to PAM4 levels.

    Gray labeling: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3. The levels
    are small integers and come back as int8, an eighth of float64.
    """
    bits = np.asarray(bits)
    if bits.size % 2 != 0:
        raise ValueError("bit vector length must be even")
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    idx = 2 * bits[0::2].astype(np.intp) + bits[1::2].astype(np.intp)
    return _LEVEL_BY_GRAY_INDEX[idx]


def level_indices(levels: np.ndarray) -> np.ndarray:
    """Index of each exact level in :data:`PAM4_LEVELS`.

    Raises ``ValueError`` when any value is not one of the four levels.
    """
    levels = np.asarray(levels, dtype=float)
    # level i is -3 + 2 i; any other value, NaN included, casts to some
    # index whose level differs from it
    scaled = levels + 3.0
    scaled *= 0.5
    with np.errstate(invalid="ignore"):
        idx = scaled.astype(np.uint8)
    if not np.array_equal(PAM4_LEVELS.take(idx, mode="clip"), levels):
        raise ValueError("levels must be drawn from {-3, -1, +1, +3}")
    return idx


def demap_gray_pam4(levels: np.ndarray) -> np.ndarray:
    """Inverse of :func:`map_gray_pam4` for exact level values."""
    return _BITS_BY_LEVEL_INDEX[level_indices(levels)].reshape(-1)


def rrc_taps(rolloff: float, sps: int, span_symbols: int) -> np.ndarray:
    """Unit-energy root-raised-cosine taps.

    Parameters
    ----------
    rolloff : float
        Excess bandwidth factor in [0, 1]. Zero gives sinc taps.
    sps : int
        Samples per symbol.
    span_symbols : int
        Half support of the filter in symbols. The returned filter has
        ``2 * span_symbols * sps + 1`` taps, an odd count, so the group
        delay is an integer number of samples.

    Returns
    -------
    np.ndarray
        Taps normalized to unit energy (sum of squares equals one).
    """
    if not 0 <= rolloff <= 1:
        raise ValueError("rolloff must lie in [0, 1]")
    if span_symbols < 8:
        raise ValueError("span_symbols must be >= 8 to hold the main lobe")
    if sps < 1:
        raise ValueError("sps must be >= 1")
    n = 2 * span_symbols * sps + 1
    t = (np.arange(n) - span_symbols * sps) / sps  # in symbol periods
    if rolloff == 0:
        h = np.sinc(t)
    else:
        h = np.empty(n)
        at_zero = t == 0
        # Removable singularity where the denominator 1 - (4*rolloff*t)^2
        # vanishes.
        at_edge = np.abs(np.abs(4.0 * rolloff * t) - 1.0) < 1e-12
        regular = ~(at_zero | at_edge)
        tr = t[regular]
        h[regular] = (
            np.sin(pi * tr * (1.0 - rolloff))
            + 4.0 * rolloff * tr * np.cos(pi * tr * (1.0 + rolloff))
        ) / (pi * tr * (1.0 - (4.0 * rolloff * tr) ** 2))
        h[at_zero] = 1.0 - rolloff + 4.0 * rolloff / pi
        h[at_edge] = (rolloff / np.sqrt(2.0)) * (
            (1.0 + 2.0 / pi) * np.sin(pi / (4.0 * rolloff))
            + (1.0 - 2.0 / pi) * np.cos(pi / (4.0 * rolloff))
        )
    return h / np.sqrt(np.sum(h**2))


def check_filter_span(cfg: LinkConfig, n_symbols: int) -> None:
    """Refuse a frame of ``n_symbols`` that holds fewer samples than the
    RRC filter of :func:`pulse_shape` has taps."""
    taps, n = 2 * cfg.rrc_span_symbols * cfg.sps + 1, n_symbols * cfg.sps
    if taps > n:
        raise ValueError(
            f"frame too short for the filter span; need at least {taps} samples, got {n}"
        )


def pulse_shape(frame: SymbolFrame, cfg: LinkConfig) -> np.ndarray:
    """Upsample the frame by zero insertion and apply the RRC filter.

    The convolution is circular over the frame and the filter group
    delay is compensated, so sample ``i * sps`` of the output aligns
    with symbol i. Output length is ``n_symbols * sps``.

    It runs at symbol rate, in polyphase form. The zero-stuffed frame is
    nonzero only at multiples of sps, so output branch p (samples p,
    p + sps, ...) is the circular convolution of the levels with taps p,
    p + sps, ... of the filter over ``n_symbols`` points. One rfft of the
    levels serves every branch; each branch adds one rfft of its taps and
    one irfft into its samples. This is the full-length circular
    convolution of the zero-stuffed frame with the filter, up to rounding.
    """
    check_filter_span(cfg, frame.n_symbols)
    taps = rrc_taps(cfg.rolloff, cfg.sps, cfg.rrc_span_symbols)
    n_symbols, span = frame.n_symbols, cfg.rrc_span_symbols
    levels = np.fft.rfft(np.asarray(frame.levels, dtype=float))
    out = np.empty(n_symbols * cfg.sps)
    for p in range(cfg.sps):
        # the branch's taps sit at symbol lags -span, -span + 1, ...; rolled
        # so that lag zero is index zero, which compensates the group delay
        lagged = taps[p :: cfg.sps]
        branch = np.zeros(n_symbols)
        branch[: lagged.size - span] = lagged[span:]
        branch[-span:] = lagged[:span]
        spectrum = np.fft.rfft(branch)
        spectrum *= levels
        np.fft.irfft(spectrum, n_symbols, out=out[p :: cfg.sps])
    return out


def mzm_modulate(drive: np.ndarray, cfg: LinkConfig) -> np.ndarray:
    """Quadrature-biased Mach-Zehnder intensity modulator.

    Field transfer ``E = cos((pi / 4) * (1 - m * v))`` with modulation
    index m. The drive must be finite and already normalized to peak |v| <= 1.
    """
    if not np.max(np.abs(drive)) <= 1.0 + 1e-9:
        raise ValueError("drive must be finite and normalized to peak |v| <= 1")
    return np.cos((pi / 4.0) * (1.0 - cfg.mzm_mod_index * drive))


def _dispersion_factor(f: np.ndarray, cfg: LinkConfig) -> np.ndarray:
    """``H(f) = exp(+1j * (beta2 / 2) * (2 pi f)^2 * L)`` at frequencies f.

    The phase is built in one buffer, with the operations in the order of
    the closed form, so the temporaries stay at one real and one complex
    array of f's length.
    """
    phase = (2.0 * pi) * f
    np.square(phase, out=phase)
    phase *= 0.5 * cfg.beta2_s2_per_m
    phase *= cfg.fiber_length_km
    phase *= 1e3
    factor = 1j * phase
    del phase
    return np.exp(factor, out=factor)


def _slice_bins(n: int, cfg: LinkConfig) -> list[tuple[int, int]]:
    """Signed bin ranges ``[a, b)`` of an n-point FFT, one per slice.

    Bin k sits at frequency ``k * (1 / (n * d))``, ``d = 1 / sample_rate``:
    the product ``fftfreq`` forms, so a bin is in a slice exactly when its
    ``fftfreq`` value is. The occupied band ``[-B/2, +B/2]`` splits into
    ``num_slices`` equal intervals. Each is half-open and the last one also
    holds its top edge, so every in-band bin, f = 0 included, lies in
    exactly one slice and each range starts where the one before it ends.
    """
    step = 1.0 / (n * (1.0 / cfg.sample_rate))
    b = cfg.occupied_bandwidth
    edges = (-b / 2.0 + b * np.arange(cfg.num_slices + 1) / cfg.num_slices).tolist()

    starts = []
    for i, edge in enumerate(edges):
        # the first bin at or above each edge, and past the top one
        reached = gt if i == cfg.num_slices else ge
        k = ceil(edge / step)
        while reached((k - 1) * step, edge):
            k -= 1
        while not reached(k * step, edge):
            k += 1
        # within the n bins -(n // 2) .. (n - 1) // 2, or just past the top
        starts.append(min(max(k, -(n // 2)), (n + 1) // 2))
    return list(zip(starts[:-1], starts[1:]))


def _in_band(spectrum: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bins lo..hi-1 of a spectrum (lo <= 0 < hi) in ascending frequency
    order, as a new compact array."""
    return np.concatenate((spectrum[spectrum.size + lo :], spectrum[:hi]))


def _turn_phases(spec: np.ndarray, phases: np.ndarray, n: int) -> None:
    """Multiply row g of ``spec`` by ``e^{2 pi i c r / n}`` at column c in
    place, r = ``phases[g]``.

    Column ``q T + s`` (T = :data:`_TWIDDLE_BLOCK`, s < T) takes
    ``fine[g, s] * coarse[g, q]``: two short tables per row, applied to
    whole blocks of T columns and then to the last, partial block.
    """
    step = 2j * pi / n
    fine = np.exp(step * np.outer(phases, np.arange(_TWIDDLE_BLOCK)))
    coarse = np.exp(step * np.outer(phases, np.arange(0, spec.shape[1], _TWIDDLE_BLOCK)))
    whole = spec.shape[1] - spec.shape[1] % _TWIDDLE_BLOCK
    blocks = spec[:, :whole].reshape(spec.shape[0], -1, _TWIDDLE_BLOCK, copy=False)
    blocks *= fine[:, None]
    blocks *= coarse[:, : blocks.shape[1], None]
    tail = spec[:, whole:]
    tail *= fine[:, : tail.shape[1]]
    tail *= coarse[:, -1:]


def _place_bins(values: np.ndarray, first: int, out: np.ndarray) -> None:
    """Write ``values``, the bins first, first + 1, ... of a spectrum, at
    bin mod ``out.size`` of ``out`` and zero every other bin. They may
    number at most ``out.size``, so no two land on one bin."""
    out.fill(0.0)
    start = first % out.size
    head = min(values.size, out.size - start)
    out[start : start + head] = values[:head]
    out[: values.size - head] = values[head:]


def _square_law(field: np.ndarray, offset: complex, out: np.ndarray, scratch: np.ndarray) -> None:
    """Carrier-distributed detection of one branch: ``|field + offset|^2``.

    ``offset`` is the shared carrier minus the branch's own mean, so the
    branch squares its sub-band riding on the common carrier line.
    ``scratch`` is a complex buffer of the field's length; it may be the
    field itself.
    """
    np.add(field, offset, out=scratch)
    np.abs(scratch, out=out)
    np.square(out, out=out)


def _empty_lines(count: int, n: int, dtype: type = float) -> np.ndarray:
    """An uninitialised (count, n) array each of whose lines starts on a
    cache line: the lines lie in one buffer at a stride rounded up to whole
    cache lines. Two threads that write the columns of a line below and
    from a multiple of eight then never write the same cache line."""
    item = np.dtype(dtype).itemsize
    per_line = _CACHE_LINE // item
    stride = -(-n // per_line) * per_line
    buf = np.empty(count * stride + per_line, dtype)
    skip = -buf.ctypes.data % _CACHE_LINE // item
    return buf[skip : skip + count * stride].reshape(count, stride)[:, :n]


@contextmanager
def _helper_thread() -> Iterator[Callable[..., Future]]:
    """One helper thread for the span of a ``with`` block: yields
    ``submit(fn, *args)``, which runs ``fn`` on it and returns a future
    whose ``result()`` re-raises in the caller whatever ``fn`` raised. The
    thread starts with the first task and is joined when the block ends,
    so no thread or pool outlives the call that opened it."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool.submit


def _share(submit: Callable[..., Future], work: Callable[..., None], parts: list[tuple]) -> None:
    """Run ``work(*parts[0])`` on this thread and the other parts through
    ``submit``, and return once all are done; a part that raised re-raises
    here. A single part runs here alone."""
    others = [submit(work, *part) for part in parts[1:]]
    work(*parts[0])
    for other in others:
        other.result()


def _detect_slice(
    values: np.ndarray,
    first: int,
    offset: complex,
    row: np.ndarray,
    spec: np.ndarray,
    out: np.ndarray,
    submit: Callable[..., Future],
) -> None:
    """Detect one slice, whose bins first, first + 1, ... are ``values``,
    into ``row`` (n = P m samples).

    Sample ``r + P t`` of the slice field is ``ifft_m(Y_r)[t]``, with

        Y_r[c] = e^{2 pi i c r / n} sum_l X[c + l m] e^{2 pi i l r / P} / P

    over the blocks l whose bin ``c + l m`` lies in the slice. Cut at 0,
    ``first % m`` and ``(last + 1) % m``, the columns fall into at most
    three runs, and every column of a run reads the same blocks; a run is
    one product of the weights with a strided view of ``values`` whose
    row l holds the run's bins of block l. ``spec``, complex and (G, m),
    holds G consecutive phases at a time: they are transformed in place
    and squared on ``offset`` as :func:`_square_law` does, a few columns
    at a time into ``out[0]`` (real, G rows), which goes to columns
    r0 .. r0 + G - 1 of the row's (m, P) view while it is in cache. At
    P = 1 every weight and twiddle is exactly 1, so the row is the bits
    of one n-point transform of the placed bins.

    Where the slice has more than one group (P > G), this thread and the
    helper behind ``submit`` share each one. Once this thread's products
    have filled ``spec``, each turns and transforms half of its lines,
    and then each squares half of its columns into its own buffer
    (``out[0]`` here, ``out[1]`` on the helper). The halves meet at a
    multiple of eight columns, so on lines that start on a cache line
    (:func:`_empty_lines`) the two never write the same cache line of the
    row or of ``spec``. Every sample is computed as it is by one thread.
    """
    group, m = spec.shape
    phases = row.size // m
    by_phase = row.reshape(m, phases, copy=False)
    last = first + values.size - 1
    cuts = sorted({0, first % m, (last + 1) % m, m})
    lines, columns = [(0, group)], [(0, m, out[0])]
    if phases > group:
        half = m // 2 - m // 2 % 8
        columns = [(0, half, out[0]), (half, m, out[1])]
        if group > 1:
            lines = [(0, group // 2), (group // 2, group)]

    def transform(r0: int, g0: int, g1: int) -> None:
        _turn_phases(spec[g0:g1], np.arange(r0 + g0, r0 + g1), row.size)
        for line in spec[g0:g1]:  # one line at a time: a 2-D call's scratch is 2.5x larger
            np.fft.ifft(line, out=line)

    def square(r0: int, lo: int, hi: int, detected: np.ndarray) -> None:
        for c0 in range(lo, hi, detected.shape[1]):
            field = spec[:, c0 : min(c0 + detected.shape[1], hi)]
            squared = detected[:, : field.shape[1]]
            _square_law(field, offset, squared, field)
            by_phase[c0 : c0 + field.shape[1], r0 : r0 + group] = squared.T

    for r0 in range(0, phases, group):
        r = np.arange(r0, r0 + group)
        for c0, c1 in zip(cuts[:-1], cuts[1:]):
            # blocks l0 .. l1 - 1: the first holds bin c0 + l0 m >= first,
            # the last bin c1 - 1 + (l1 - 1) m <= last
            l0, l1 = -((c0 - first) // m), (last - c0) // m + 1
            if l1 <= l0:
                spec[:, c0:c1] = 0.0
                continue
            seg = values[c0 + l0 * m - first : c1 + (l1 - 1) * m - first]
            weights = np.exp((2j * pi / phases) * (np.outer(r, np.arange(l0, l1)) % phases))
            weights /= phases
            np.matmul(weights, sliding_window_view(seg, c1 - c0)[::m], out=spec[:, c0:c1])
        _share(submit, transform, [(r0, *part) for part in lines])
        _share(submit, square, [(r0, *part) for part in columns])


def propagate_cd(field: np.ndarray, cfg: LinkConfig) -> np.ndarray:
    """Apply chromatic dispersion as a circular all-pass filter.

    The transfer function is ``H(f) = exp(+1j * (beta2 / 2) * (2 pi f)^2
    * L)``, which preserves energy exactly and composes additively in
    fiber length.
    """
    spectrum = np.fft.fft(np.asarray(field, dtype=complex))
    spectrum *= _dispersion_factor(np.fft.fftfreq(spectrum.size, d=1.0 / cfg.sample_rate), cfg)
    return np.fft.ifft(spectrum, out=spectrum)


def slice_spectrum(field: np.ndarray, cfg: LinkConfig) -> np.ndarray:
    """Split the occupied band into equal brick-wall slices.

    The band ``[-B/2, +B/2]`` with ``B = (1 + rolloff) * baud_rate`` is
    partitioned into ``num_slices`` equal half-open intervals, the last
    one closed on top. Each slice keeps its interval of the spectrum and
    zeroes everything else, so the slice fields sum to the in-band part
    of the input exactly.

    Returns
    -------
    np.ndarray
        Complex array of shape ``(num_slices, n_samples)``.
    """
    spectrum = np.fft.fft(np.asarray(field, dtype=complex))
    slices = _slice_bins(spectrum.size, cfg)
    lo = slices[0][0]
    band = _in_band(spectrum, lo, slices[-1][1])
    fields = np.empty((cfg.num_slices, spectrum.size), dtype=complex)
    for field, (a, b) in zip(fields, slices):
        _place_bins(band[a - lo : b - lo], a, out=field)
        np.fft.ifft(field, out=field)
    return fields


def photodetect(fields: np.ndarray) -> np.ndarray:
    """Square-law detect each slice on the shared carrier, noiselessly.

    Detection is carrier-distributed: the receiver taps the carrier line
    (the sum of the slice means, untouched by dispersion) and feeds it to
    every branch, so branch i squares its sub-band riding on the common
    carrier. Without this a slice that lacks the carrier line only sees
    its own envelope squared and the band's phase content is gone. With a
    single slice the formula reduces to plain square-law detection of the
    full field.
    """
    fields = np.atleast_2d(np.asarray(fields))
    means = fields.mean(axis=1)
    carrier = means.sum()
    rows = np.empty(fields.shape)
    scratch = np.empty(fields.shape[1], dtype=complex)
    for i, field in enumerate(fields):
        _square_law(field, carrier - means[i], rows[i], scratch)
    return rows


def _slice_noise(
    row: np.ndarray, cfg: LinkConfig, i: int, snr_db: list[float], scratch: np.ndarray
) -> tuple[np.random.Generator, list[float]]:
    """The noise rule of slice i, whose clean samples are ``row``: the
    generator of its standard normal draw ``g`` and its scale
    ``sigma_i = sqrt(var(row) / 10^(snr / 10))`` at each SNR of ``snr_db``.

    The draw comes from the slice's substream, keyed by (seed, slice) and
    not by SNR; filled whole or piece after piece, it gives the same
    normals. ``row + fl(sigma_i * g)`` is what adding
    ``normal(0.0, sigma_i, n)`` to the row draws, and a constant row
    stays noiseless.

    The variance is ``row.var()`` bit for bit: the same ufuncs in the
    same order (sum, divide, subtract, square, sum, divide), the squared
    deviations formed in ``scratch`` piece by piece and summed as numpy
    sums a whole row (:func:`_sum_of_squared_deviations`), so no
    temporary of the row's size is made.
    """
    mean = row.sum(keepdims=True)
    mean /= row.size
    var = _sum_of_squared_deviations(row, mean, scratch) / row.size
    rng = substream(cfg.seed, STREAM_SLICE_NOISE, i)
    return rng, [np.sqrt(var / 10.0 ** (snr / 10.0)) for snr in snr_db]


def _sum_of_squared_deviations(row: np.ndarray, mean: np.ndarray, scratch: np.ndarray) -> float:
    """``((row - mean) ** 2).sum()`` bit for bit, through ``scratch``.

    numpy sums n contiguous values pairwise: above 128 it adds the sums of
    the first ``n2 = n // 2 - (n // 2) % 8`` values and of the rest, each
    split the same way. So a row that does not fit ``scratch`` is split
    there, each part's sum formed the same way, and the two added; a part
    that fits has its deviations squared in ``scratch`` and summed by numpy
    itself, which is its subtree of the whole row's sum.
    """
    n = row.size
    if n <= scratch.size:
        dev = scratch[:n]
        np.subtract(row, mean, out=dev)
        np.square(dev, out=dev)
        return dev.sum()
    n2 = n // 2 - n // 2 % 8
    return _sum_of_squared_deviations(row[:n2], mean, scratch) + _sum_of_squared_deviations(
        row[n2:], mean, scratch
    )


def load_noise_batch(
    rows: np.ndarray, cfg: LinkConfig, snr_db: list[float]
) -> list[SlicedObservation]:
    """White Gaussian noise on the detected rows of ``cfg``'s frame, one
    observation per SNR of ``snr_db``; ``cfg.snr_db`` is not read.

    Each slice draws its standard normals once (:func:`_slice_noise`,
    whose variance pass uses the start of the slice's draw as scratch
    before the draw fills it), into one array that every observation
    shares, with ``rows``; only the per-slice scales ``sigma_i`` differ.
    :meth:`SlicedObservation.write_samples` adds ``sigma_i * g`` to the
    clean sample, so each observation's samples are bit-identical to
    :func:`simulate_link` at its own SNR. Memory is one draw of the
    rows' size, whatever the number of SNRs. Both shared arrays are
    handed out as read-only views; ``rows`` is never written.
    """
    if not snr_db:
        raise ValueError("load_noise_batch needs at least one SNR")
    clean = np.asarray(np.atleast_2d(rows), dtype=float)
    if clean.shape[0] != cfg.num_slices:
        raise ValueError("field row count must equal num_slices")
    noise = np.empty(clean.shape)
    # (num_slices, SNRs): column j holds the scales of SNR j
    scales = np.empty((cfg.num_slices, len(snr_db)))
    for i, (row, g) in enumerate(zip(clean, noise)):
        rng, scales[i] = _slice_noise(row, cfg, i, snr_db, g[:_NOISE_POINTS])
        rng.standard_normal(out=g)
    clean = clean.view()  # the caller's array keeps its own flags
    clean.flags.writeable = noise.flags.writeable = False
    return [
        SlicedObservation(
            rows=clean,
            noise=noise,
            noise_std=noise_std,
            sps=cfg.sps,
            guard_symbols=cfg.guard_symbols,
        )
        for noise_std in scales.T
    ]


def photodetect_and_load_noise(fields: np.ndarray, cfg: LinkConfig) -> SlicedObservation:
    """:func:`photodetect` followed by :func:`load_noise_batch` at ``cfg.snr_db``.

    Nothing in the package calls this composition. It stays because the
    benchmark's tracer (``perfbench/spans.py``) wraps it by name as a
    link stage, as it wraps ``simulate_link(cfg)`` and binds the ``obs``,
    ``frame``, ``cfg``, ``first_target`` and ``last_target`` parameters of
    ``fit_readout``/``equalize`` and ``obs.guard_symbols``;
    ``tests/test_perfbench_tracer.py`` checks those names. Removing it,
    or renaming any of them, is a change to the benchmark.
    """
    return load_noise_batch(photodetect(fields), cfg, [cfg.snr_db])[0]


def detect_frame(cfg: LinkConfig) -> tuple[np.ndarray, SymbolFrame]:
    """Noiseless front half of the chain: the detected rows and the frame.

    Depends on every setting except ``snr_db``, so one call serves every
    SNR of a (fiber length, seed) frame through :func:`load_noise_batch`.
    The MZM drive is the shaped waveform normalized by its own peak, which
    keeps |v| <= 1 for any frame content.

    Dispersion, slicing and detection run as one spectral pass. The MZM
    field is real, so its forward transform is an rfft: bins 0..n/2, and
    each negative bin is the conjugate of its positive twin. The in-band
    bins are gathered into one compact array, ascending in frequency, and
    only they get the dispersion factor, at the frequencies ``fftfreq``
    gives them; the half spectrum is then freed. The carrier is the DC
    bin divided by n, the mean of the dispersed field; only the slice that
    holds f = 0 has a nonzero mean, so that slice is squared as it is and
    every other slice on the carrier. This is
    ``photodetect(slice_spectrum(propagate_cd(field)))`` up to rounding,
    without the round trip to the time domain and without the slice
    fields ever existing together.

    Every slice runs the same path (:func:`_detect_slice`): P inverse
    FFTs of m = n/P points. P is 1 for frames of at most 2^21 samples; on
    larger ones, whose complex spectrum would exceed 32 MiB, it is the
    largest power of two that divides n and leaves m at least
    :data:`_PIECE_POINTS` (P = 32, m = 2^18 at 2^22 symbols). The slice's
    bins alias onto each transform: with ``j = r + P t``, time sample j
    is ``ifft_m(Y_r)[t]``, where

        Y_r[c] = e^{2 pi i c r / n} sum_l X_{c + l m} e^{2 pi i l r / P} / P

    over the blocks l whose bin c + l m lies in the slice, an exact
    identity. The columns fall into at most three runs that read the same
    blocks, and a run is one product of a few weights with a strided view
    of the slice's compact bins, so no zero-padded copy of a slice is
    made. Each phase then costs one m-point twiddle (:func:`_turn_phases`),
    not a turn of the whole slice. G phases at a time are transformed in
    one (G, m) buffer, square-law detected a few columns at a time and
    written to samples r, r + P, ... of the row in runs of G; G is four,
    or less where G m would pass 2^20 points.

    Where a slice has more than one group (P > G, frames above 2^21
    samples), this thread and a helper thread, started and joined within
    the call, share each group in the one phase buffer: each turns and
    transforms half of its lines, then squares half of its columns into
    the row. The rows and the phase buffer start each line on a cache
    line (:func:`_empty_lines`), so the two never write the same one.
    Each transform and each sample is the one a single thread makes, so
    the rows keep their bits.

    The peak is the end of the last two slices: three rows, the band and
    the phase buffer, then four rows and the phase buffer once the last
    slice's bins are copied out and the band is freed, with the scratch
    of two concurrent 2^18-point transforms. At the defaults the peak RSS
    grows by 1.37x the rows at 2^21 symbols and by 1.96x at 2109375
    symbols (P = 2, one m = n/2 line at a time, so the helper takes
    columns only).
    """
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, STREAM_BITS))
    shaped = pulse_shape(frame, cfg)
    # a new array: dividing in place frees nothing at the frame's later peak
    # and measured 1.5-5.5 MB more peak RSS on 2^18-symbol sweeps (heap layout)
    drive = shaped / np.max(np.abs(shaped))
    del shaped
    field = mzm_modulate(drive, cfg)
    del drive
    n = field.size
    half = np.fft.rfft(field)
    del field
    slices = _slice_bins(n, cfg)
    phases = 1
    while 16 * n > _SPLIT_ABOVE_BYTES and n % (2 * phases) == 0 and n // (2 * phases) >= _PIECE_POINTS:
        phases *= 2
    lo, hi = slices[0][0], slices[-1][1]
    band = np.empty(hi - lo, dtype=complex)
    band[-lo:] = half[:hi]
    np.conjugate(half[-lo:0:-1], out=band[:-lo])
    del half
    # fftfreq's own expression, so each bin's frequency keeps its bits
    band *= _dispersion_factor(np.arange(lo, hi) * (1.0 / (n * (1.0 / cfg.sample_rate))), cfg)
    carrier = band[-lo] / n
    rows = _empty_lines(cfg.num_slices, n)
    m = n // phases
    group = min(_GROUP_PHASES, phases)
    while group > 1 and group * m > _GROUP_PHASES * _PIECE_POINTS:
        group //= 2
    spec = _empty_lines(group, m, complex)
    # the helper's own square-law buffer, where it shares the slices' groups
    detected = np.empty((1 + (phases > group), group, _DETECT_COLUMNS))
    with _helper_thread() as submit:
        for i, (row, (a, b)) in enumerate(zip(rows, slices)):
            # the slice's own bins; the last slice's are copied out of the
            # band, so that it is freed before their transforms
            values = band[a - lo : b - lo]
            if i == len(slices) - 1:
                values = values.copy()
                del band
            _detect_slice(values, a, 0.0 if a <= 0 < b else carrier, row, spec, detected, submit)
    return rows, frame


def simulate_link(cfg: LinkConfig) -> tuple[SlicedObservation, SymbolFrame]:
    """Run the full chain for one frame at ``cfg.snr_db``. Deterministic
    in (cfg, cfg.seed).

    The observation's samples are bit-identical to
    ``load_noise_batch(rows, cfg, [cfg.snr_db])[0]`` on the
    :func:`detect_frame` rows, but as the only observation of its frame it
    owns those rows: each slice's noise is added into its row in place,
    its scale taken from the clean row first. The rows come back
    read-only and ``noise`` is an all-zero broadcast view, so the frame's
    memory is the rows alone. No draw of a row's size is made either:
    :func:`_slice_noise` forms each variance over pieces of 2^16 samples,
    and the slice's normals are drawn, scaled and added 2^16 at a time,
    the same normals as one whole draw. This thread and a helper thread,
    both within the call, take alternate slices, each with its own piece
    buffer, so the stage holds two pieces (1 MiB) beside the rows.
    """
    rows, frame = detect_frame(cfg)
    noise_std = np.empty(cfg.num_slices)
    pieces = np.empty((2, min(_NOISE_POINTS, rows.shape[1])))

    def add_noise(first: int, piece: np.ndarray) -> None:
        for i in range(first, cfg.num_slices, 2):
            row = rows[i]
            rng, scales = _slice_noise(row, cfg, i, [cfg.snr_db], piece)
            noise_std[i] = scales[0]
            for start in range(0, row.size, piece.size):
                draw = piece[: row.size - start]
                rng.standard_normal(out=draw)
                draw *= noise_std[i]
                row[start : start + draw.size] += draw

    with _helper_thread() as submit:
        _share(submit, add_noise, [(0, pieces[0]), (1, pieces[1])][: cfg.num_slices])
    rows.flags.writeable = False
    observation = SlicedObservation(
        rows=rows,
        noise=np.broadcast_to(0.0, rows.shape),
        noise_std=noise_std,
        sps=cfg.sps,
        guard_symbols=cfg.guard_symbols,
    )
    return observation, frame
