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
that turns them into the samples of any span a reader asks for.

:func:`detect_frame` runs dispersion, slicing and detection as one
spectral pass over the MZM field's spectrum and takes the carrier from
its DC bin. :func:`propagate_cd`, :func:`slice_spectrum` and
:func:`photodetect` are the same steps as standalone operators on
waveforms and slice fields; the pass and the operators share one
definition of the dispersion phase, the slice bin rule and the
carrier-distributed square law.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, pi

import numpy as np

from .rng import STREAM_BITS, STREAM_SLICE_NOISE, substream

SPEED_OF_LIGHT = 299_792_458.0  # m/s

PAM4_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])

# Gray labeling: adjacent amplitude levels differ in exactly one bit.
# Bit pair (b0, b1) maps to index 2*b0 + b1 in this table.
_LEVEL_BY_GRAY_INDEX = np.array([-3.0, -1.0, 3.0, 1.0])
# Inverse: level index (-3, -1, +1, +3) -> bit pair.
_BITS_BY_LEVEL_INDEX = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)


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
        if self.fiber_length_km < 0:
            raise ValueError("fiber_length_km must be >= 0")
        if self.baud_rate <= 0:
            raise ValueError("baud_rate must be > 0")
        if int(self.sps) != self.sps or self.sps < 1:
            raise ValueError("sps must be a positive integer")
        if not 0 <= self.rolloff <= 1:
            raise ValueError("rolloff must lie in [0, 1]")
        if self.rrc_span_symbols < 8:
            raise ValueError("rrc_span_symbols must be >= 8 to hold the main lobe")
        if int(self.num_slices) != self.num_slices or self.num_slices < 1:
            raise ValueError("num_slices must be a positive integer")
        if not 0 < self.mzm_mod_index <= 1:
            raise ValueError("mzm_mod_index must lie in (0, 1]")
        if int(self.n_symbols) != self.n_symbols or self.n_symbols < 1:
            raise ValueError("n_symbols must be a positive integer")
        if self.wavelength_nm <= 0:
            raise ValueError("wavelength_nm must be > 0")
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
    """Transmitted bits and their PAM4 levels."""

    bits: np.ndarray
    levels: np.ndarray

    @property
    def n_symbols(self) -> int:
        return self.levels.size

    def __post_init__(self) -> None:
        if self.bits.size != 2 * self.levels.size:
            raise ValueError("frame must hold exactly two bits per symbol")


@dataclass(eq=False, slots=True)
class Waveform:
    """Sampled waveform with its sampling rate in Hz."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(np.abs(self.samples))):
            raise ValueError("waveform samples must be finite")


@dataclass(eq=False, slots=True)
class SlicedObservation:
    """Photodetected outputs of every spectral slice, with their noise.

    ``rows[i, j]`` is the noiseless detected slice i at sample j and
    ``noise[i, j]`` a standard normal draw; the observed sample is
    ``rows[i, j] + noise[i, j] * noise_std[i]``. The SNR points of one
    frame share ``rows`` and ``noise`` and differ only in ``noise_std``,
    so neither array is ever written. Sample ``i * sps + p`` of any row
    belongs to symbol i of the frame (p < sps). ``guard_symbols`` is the
    per-edge discard count inherited from the link configuration.
    """

    rows: np.ndarray
    noise: np.ndarray
    noise_std: np.ndarray
    sample_rate: float
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
        Slice by slice, so each product is still in cache when its row is added."""
        for dst, noise, std, clean in zip(
            out, self.noise[:, start:stop], self.noise_std, self.rows[:, start:stop]
        ):
            np.multiply(noise, std, out=dst)
            dst += clean
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
    return SymbolFrame(bits=bits, levels=map_gray_pam4(bits))


def map_gray_pam4(bits: np.ndarray) -> np.ndarray:
    """Map a flat bit vector (two bits per symbol) to PAM4 levels.

    Gray labeling: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3.
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


def pulse_shape(frame: SymbolFrame, cfg: LinkConfig) -> Waveform:
    """Upsample the frame by zero insertion and apply the RRC filter.

    The convolution is circular over the frame and the filter group
    delay is compensated, so sample ``i * sps`` of the output aligns
    with symbol i. Output length is ``n_symbols * sps``.
    """
    check_filter_span(cfg, frame.n_symbols)
    taps = rrc_taps(cfg.rolloff, cfg.sps, cfg.rrc_span_symbols)
    n = frame.n_symbols * cfg.sps
    up = np.zeros(n)
    up[:: cfg.sps] = frame.levels
    # Roll the centered taps so the center tap sits at lag zero, which
    # bakes the group-delay compensation into the kernel.
    half = cfg.rrc_span_symbols * cfg.sps
    kernel = np.zeros(n)
    kernel[: half + 1] = taps[half:]
    kernel[-half:] = taps[:half]
    shaped = np.fft.irfft(np.fft.rfft(up) * np.fft.rfft(kernel), n)
    return Waveform(samples=shaped, sample_rate=cfg.sample_rate)


def mzm_modulate(wave: Waveform, cfg: LinkConfig) -> Waveform:
    """Quadrature-biased Mach-Zehnder intensity modulator.

    Field transfer ``E = cos((pi / 4) * (1 - m * v))`` with modulation
    index m. The drive must already be normalized to peak |v| <= 1.
    """
    v = wave.samples
    if np.max(np.abs(v)) > 1.0 + 1e-9:
        raise ValueError("drive must be normalized to peak |v| <= 1")
    field = np.cos((pi / 4.0) * (1.0 - cfg.mzm_mod_index * v))
    return Waveform(samples=field, sample_rate=wave.sample_rate)


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


def _slice_bins(f: np.ndarray, fs: float, cfg: LinkConfig) -> list[tuple[int, int]]:
    """Signed bin ranges ``[a, b)`` of an FFT, one per slice.

    ``f`` holds the bin frequencies in ascending order, as
    ``np.fft.fftshift(np.fft.fftfreq(n, 1 / fs))`` gives them, so bin k
    (stored at index k mod n) sits at ``f[k + n // 2]``. The occupied band
    ``[-B/2, +B/2]`` splits into ``num_slices`` equal intervals. Each is
    half-open and the last one also holds its top edge, so every in-band
    bin, f = 0 included, lies in exactly one slice and each range starts
    where the one before it ends.
    """
    b = cfg.occupied_bandwidth
    if b > fs:
        raise ValueError("occupied bandwidth exceeds the sampling rate")
    edges = -b / 2.0 + b * np.arange(cfg.num_slices + 1) / cfg.num_slices
    # the first bin at or above each edge, and past the top one
    starts = np.searchsorted(f, edges, side="left")
    starts[-1] = np.searchsorted(f, edges[-1], side="right")
    starts -= f.size // 2
    return list(zip(starts[:-1].tolist(), starts[1:].tolist()))


def _bin_frequencies(n: int, fs: float) -> np.ndarray:
    """Frequencies of an n-point FFT's bins in ascending order."""
    return np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / fs))


def _in_band(spectrum: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bins lo..hi-1 of a spectrum (lo <= 0 < hi) in ascending frequency
    order, as a new compact array."""
    return np.concatenate((spectrum[spectrum.size + lo :], spectrum[:hi]))


def _place_bins(band: np.ndarray, lo: int, a: int, b: int, out: np.ndarray) -> None:
    """Write bins a..b-1 of ``band`` (whose first bin is lo) into the
    spectrum ``out`` and zero every other bin."""
    out.fill(0.0)
    for k0, k1 in ((a, min(b, 0)), (max(a, 0), b)):
        if k0 < k1:
            start = k0 % out.size
            out[start : start + k1 - k0] = band[k0 - lo : k1 - lo]


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


def propagate_cd(wave: Waveform, cfg: LinkConfig) -> Waveform:
    """Apply chromatic dispersion as a circular all-pass filter.

    The transfer function is ``H(f) = exp(+1j * (beta2 / 2) * (2 pi f)^2
    * L)``, which preserves energy exactly and composes additively in
    fiber length.
    """
    spectrum = np.fft.fft(np.asarray(wave.samples, dtype=complex))
    spectrum *= _dispersion_factor(np.fft.fftfreq(spectrum.size, d=1.0 / wave.sample_rate), cfg)
    return Waveform(samples=np.fft.ifft(spectrum, out=spectrum), sample_rate=wave.sample_rate)


def slice_spectrum(wave: Waveform, cfg: LinkConfig) -> np.ndarray:
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
    spectrum = np.fft.fft(np.asarray(wave.samples, dtype=complex))
    f = _bin_frequencies(spectrum.size, wave.sample_rate)
    slices = _slice_bins(f, wave.sample_rate, cfg)
    lo = slices[0][0]
    band = _in_band(spectrum, lo, slices[-1][1])
    fields = np.empty((cfg.num_slices, spectrum.size), dtype=complex)
    for field, (a, b) in zip(fields, slices):
        _place_bins(band, lo, a, b, out=field)
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


def load_noise_batch(
    rows: np.ndarray, cfgs: list[LinkConfig], seed: int | None = None
) -> list[SlicedObservation]:
    """White Gaussian noise on the detected rows at each config's SNR.

    Slice i gets ``sigma_i^2 = var(rows[i]) / 10^(snr_db / 10)``, so a
    constant row stays noiseless. The configs are the SNR points of one
    frame and must agree on every other setting. A slice's noise
    substream is keyed by (seed, slice), not by SNR, so each slice draws
    its standard normals ``g`` once into one array that every observation
    shares, with ``rows``; only the per-slice scales ``sigma_i`` differ.
    :meth:`SlicedObservation.write_samples` adds ``sigma_i * g`` to the
    clean sample, which is what ``normal(0.0, sigma_i, n)`` draws, so
    each observation's samples are bit-identical to a noisy copy loaded
    at its own SNR. Memory is one draw of the rows' size, whatever the
    number of configs. Both shared arrays are handed out as read-only
    views; ``rows`` is never written.
    """
    if not cfgs:
        raise ValueError("load_noise_batch needs at least one config")
    first = cfgs[0]
    if any(replace(cfg, snr_db=first.snr_db) != first for cfg in cfgs):
        raise ValueError("configs of one noise batch may differ only in snr_db")
    clean = np.asarray(np.atleast_2d(rows), dtype=float)
    if clean.shape[0] != first.num_slices:
        raise ValueError("field row count must equal num_slices")
    if seed is None:
        seed = first.seed
    noise = np.empty(clean.shape)
    for i, row in enumerate(noise):
        substream(seed, STREAM_SLICE_NOISE, i).standard_normal(out=row)
    var = np.array([row.var() for row in clean])
    clean = clean.view()  # the caller's array keeps its own flags
    clean.flags.writeable = noise.flags.writeable = False
    return [
        SlicedObservation(
            rows=clean,
            noise=noise,
            noise_std=np.sqrt(var / 10.0 ** (cfg.snr_db / 10.0)),
            sample_rate=first.sample_rate,
            sps=first.sps,
            guard_symbols=first.guard_symbols,
        )
        for cfg in cfgs
    ]


def photodetect_and_load_noise(
    fields: np.ndarray, cfg: LinkConfig, seed: int | None = None
) -> SlicedObservation:
    """:func:`photodetect` followed by :func:`load_noise_batch` of one config.

    Nothing in the package calls this composition. It stays because the
    benchmark's tracer (``perfbench/spans.py``) wraps it by name as a
    link stage, as it wraps ``simulate_link(cfg)`` and binds the ``obs``,
    ``frame``, ``cfg``, ``first_target`` and ``last_target`` parameters of
    ``fit_readout``/``equalize`` and ``obs.guard_symbols``;
    ``tests/test_perfbench_tracer.py`` checks those names. Removing it,
    or renaming any of them, is a change to the benchmark.
    """
    return load_noise_batch(photodetect(fields), [cfg], seed)[0]


def detect_frame(cfg: LinkConfig) -> tuple[np.ndarray, SymbolFrame]:
    """Noiseless front half of the chain: the detected rows and the frame.

    Depends on every setting except ``snr_db``, so one call serves every
    SNR of a (fiber length, seed) frame through :func:`load_noise_batch`.
    The MZM drive is the shaped waveform normalized by its own peak, which
    keeps |v| <= 1 for any frame content.

    Dispersion, slicing and detection run as one spectral pass. The MZM
    field is copied into a complex buffer and transformed there in place.
    The in-band bins are gathered into one compact array, ascending in
    frequency, and only they get the dispersion factor; the full
    spectrum's buffer is then reused as each slice's field: its band
    placed, one inverse FFT in place, detected into its row at once. The
    carrier is the DC bin divided by n, the mean of the dispersed field;
    only the slice that holds f = 0 has a nonzero mean, so that slice is
    squared as it is and every other slice on the carrier. This is
    ``photodetect(slice_spectrum(propagate_cd(field)))`` up to rounding,
    without the round trip to the time domain and without the slice
    fields ever existing together.

    The peak is the last slice's inverse FFT: the rows, one complex
    spectrum and the FFT's own scratch of two more spectra. The compact
    band is freed before that transform, so it never adds to the peak.
    """
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, STREAM_BITS))
    shaped = pulse_shape(frame, cfg).samples
    drive = Waveform(samples=shaped / np.max(np.abs(shaped)), sample_rate=cfg.sample_rate)
    del shaped
    field = mzm_modulate(drive, cfg).samples.astype(complex)
    del drive
    np.fft.fft(field, out=field)
    n = field.size
    f = _bin_frequencies(n, cfg.sample_rate)
    slices = _slice_bins(f, cfg.sample_rate, cfg)
    lo, hi = slices[0][0], slices[-1][1]
    band = _in_band(field, lo, hi)
    band *= _dispersion_factor(f[lo + n // 2 : hi + n // 2], cfg)
    del f
    carrier = band[-lo] / n
    rows = np.empty((cfg.num_slices, n))
    for i, (row, (a, b)) in enumerate(zip(rows, slices)):
        _place_bins(band, lo, a, b, out=field)
        if i == len(slices) - 1:
            del band
        np.fft.ifft(field, out=field)
        _square_law(field, 0.0 if a <= 0 < b else carrier, row, field)
    return rows, frame


def simulate_link(cfg: LinkConfig) -> tuple[SlicedObservation, SymbolFrame]:
    """Run the full chain for one frame. Deterministic in (cfg, cfg.seed)."""
    rows, frame = detect_frame(cfg)
    return load_noise_batch(rows, [cfg])[0], frame
