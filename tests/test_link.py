"""Link chain tests.

Derived expectations are computed by independent oracles in this file
(naive convolution, analytic pulse broadening, least-squares rescaled
decision) rather than by the code under test.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicerc import link
from slicerc.link import (
    LinkConfig,
    SymbolFrame,
    demap_gray_pam4,
    detect_frame,
    generate_frame,
    load_noise_batch,
    map_gray_pam4,
    mzm_modulate,
    photodetect,
    photodetect_and_load_noise,
    propagate_cd,
    pulse_shape,
    rrc_taps,
    simulate_link,
    slice_spectrum,
)
from slicerc.rng import STREAM_BITS, STREAM_SLICE_NOISE, substream

from fresh_process import run_fresh
from inline_helper import inline_helper


def cfg_with(**kw) -> LinkConfig:
    base = dict(fiber_length_km=0.0, snr_db=40.0, n_symbols=2048, seed=7)
    base.update(kw)
    return LinkConfig(**base)


# ---------------------------------------------------------------- oracles

def oracle_cascade_isi(rolloff, sps, span):
    """Worst symbol-spaced off-center tap of the matched RRC cascade,
    relative to the center tap, via plain np.convolve."""
    taps = rrc_taps(rolloff, sps, span)
    rc = np.convolve(taps, taps)
    center = rc.size // 2
    sym = rc[center::sps]
    return np.max(np.abs(sym[1:])) / abs(sym[0])


def oracle_broadened_width(t, intensity):
    """RMS-equivalent 1/e intensity half-width of a pulse, by moments."""
    w = intensity / intensity.sum()
    mu = np.sum(t * w)
    return np.sqrt(2.0 * np.sum((t - mu) ** 2 * w))


def oracle_affine_ser(samples, levels):
    """Symbol error rate after the best affine rescale of `samples`.

    Independent of the equalizer: fits gain and offset by least squares
    and slices at the midpoints between fitted level targets.
    """
    a = np.vstack([samples, np.ones_like(samples)]).T
    gain, offset = np.linalg.lstsq(a, levels, rcond=None)[0]
    fitted = gain * samples + offset
    decided = np.full(fitted.shape, -3.0)
    decided[fitted > -2.0] = -1.0
    decided[fitted > 0.0] = 1.0
    decided[fitted > 2.0] = 3.0
    return float(np.mean(decided != levels))


# ------------------------------------------------------------ gray mapping

def test_gray_map_table():
    bits = np.array([0, 0, 0, 1, 1, 1, 1, 0])
    assert map_gray_pam4(bits).tolist() == [-3.0, -1.0, 1.0, 3.0]


def test_gray_adjacent_levels_differ_in_one_bit():
    pairs = demap_gray_pam4(np.array([-3.0, -1.0, 1.0, 3.0])).reshape(4, 2)
    for a, b in zip(pairs, pairs[1:]):
        assert int(np.sum(a != b)) == 1


def test_demap_rejects_bad_level():
    with pytest.raises(ValueError):
        demap_gray_pam4(np.array([-3.0, 2.0]))
    with pytest.raises(ValueError):
        demap_gray_pam4(np.array([4.0]))


@given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
def test_gray_roundtrip(bits):
    bits = np.array(bits, dtype=np.uint8)
    assert np.array_equal(demap_gray_pam4(map_gray_pam4(bits)), bits)


def test_generate_frame_levels_are_int8_gray_levels():
    frame = generate_frame(1000, substream(3, STREAM_BITS))
    assert frame.levels.dtype == np.int8
    assert set(np.unique(frame.levels).tolist()) == {-3, -1, 1, 3}
    bits = demap_gray_pam4(frame.levels)
    assert np.array_equal(map_gray_pam4(bits), frame.levels)


def test_generate_frame_deterministic_and_balanced():
    f1 = generate_frame(2**16, substream(3, 0))
    f2 = generate_frame(2**16, substream(3, 0))
    assert np.array_equal(f1.levels, f2.levels)
    # binomial bound: frequencies of the four levels within 25% +- 1% abs
    for level in (-3.0, -1.0, 1.0, 3.0):
        freq = np.mean(f1.levels == level)
        assert abs(freq - 0.25) < 0.01


# -------------------------------------------------------------- rrc taps

def test_rrc_zero_rolloff_is_sinc():
    taps = rrc_taps(0.0, 2, 16)
    t = (np.arange(taps.size) - 16 * 2) / 2
    expected = np.sinc(t)
    expected /= np.sqrt(np.sum(expected**2))
    assert np.allclose(taps, expected, atol=1e-12)


def test_rrc_symmetry_and_unit_energy():
    taps = rrc_taps(0.1, 2, 64)
    assert taps.size % 2 == 1
    assert np.allclose(taps, taps[::-1], atol=1e-15)
    assert abs(np.sum(taps**2) - 1.0) < 1e-12


def test_rrc_rejects_small_span():
    with pytest.raises(ValueError):
        rrc_taps(0.1, 2, 4)


# Truncating the taps leaves a residual at the span edge that decays
# roughly with span^2, so the Nyquist property of the formula is checked
# at a span where truncation no longer dominates. The operating span of
# 64 symbols keeps its truncation floor pinned separately below.
@pytest.mark.parametrize("rolloff,span", [(0.1, 1024), (0.25, 512), (0.5, 512), (1.0, 512)])
def test_rrc_matched_cascade_isi(rolloff, span):
    assert oracle_cascade_isi(rolloff, 2, span) < 1e-6


def test_rrc_default_span_truncation_floor():
    # amplitude 2e-4 of the main tap, two decades under the noise at the
    # highest SNR the sweeps use
    assert oracle_cascade_isi(0.1, 2, 64) < 1e-3


def test_rrc_singularity_points_are_finite():
    # span 10 at sps 4 places samples exactly on t = 1/(4*rolloff)
    taps = rrc_taps(0.25, 4, 10)
    assert np.all(np.isfinite(taps))


# ------------------------------------------------------------ pulse shape

def test_pulse_shape_impulse_recovers_taps():
    cfg = cfg_with(n_symbols=512)
    levels = np.zeros(512)
    levels[256] = 1.0
    wave = pulse_shape(SymbolFrame(levels=levels), cfg)
    taps = rrc_taps(cfg.rolloff, cfg.sps, cfg.rrc_span_symbols)
    half = cfg.rrc_span_symbols * cfg.sps
    window = wave[256 * cfg.sps - half : 256 * cfg.sps + half + 1]
    assert np.allclose(window, taps, atol=1e-12)


def test_pulse_shape_alignment_peaks_at_lag_zero():
    cfg = cfg_with(n_symbols=4096, seed=11)
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    shaped = pulse_shape(frame, cfg)
    taps = rrc_taps(cfg.rolloff, cfg.sps, cfg.rrc_span_symbols)
    # matched filter, circular to mirror the shaping convolution
    spectrum = np.fft.rfft(shaped)
    half = cfg.rrc_span_symbols * cfg.sps
    kernel = np.zeros(shaped.size)
    kernel[: half + 1] = taps[half:]
    kernel[-half:] = taps[:half]
    matched = np.fft.irfft(spectrum * np.fft.rfft(kernel), shaped.size)
    lags = range(-3, 4)
    corrs = [
        np.corrcoef(np.roll(matched, -lag * cfg.sps)[:: cfg.sps], frame.levels)[0, 1]
        for lag in lags
    ]
    assert int(np.argmax(corrs)) == list(lags).index(0)
    assert max(corrs) > 0.99


def test_pulse_shape_power_tracks_level_power():
    cfg = cfg_with(n_symbols=2**14, seed=5)
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    wave = pulse_shape(frame, cfg)
    # iid symbols through a unit-energy filter: E|y|^2 = E[l^2] / sps
    expected = np.mean(frame.levels**2) / cfg.sps
    assert abs(np.mean(wave**2) / expected - 1.0) < 0.05


def oracle_pulse_shape(levels, cfg):
    """The zero-stuffed frame circularly convolved with the rolled taps,
    over the full frame length."""
    n = levels.size * cfg.sps
    up = np.zeros(n)
    up[:: cfg.sps] = levels
    taps = rrc_taps(cfg.rolloff, cfg.sps, cfg.rrc_span_symbols)
    half = cfg.rrc_span_symbols * cfg.sps
    kernel = np.zeros(n)
    kernel[: half + 1] = taps[half:]
    kernel[-half:] = taps[:half]
    return np.fft.irfft(np.fft.rfft(up) * np.fft.rfft(kernel), n)


@pytest.mark.parametrize("sps,rolloff", [(1, 0.0), (2, 0.1), (3, 0.35)])
def test_pulse_shape_matches_the_full_length_convolution(sps, rolloff):
    # 2 span + 1 symbols is the shortest frame check_filter_span allows
    limit = 2 * 64 + 1
    for n_symbols in (limit, limit + 1, 4096, 4097):
        cfg = cfg_with(sps=sps, rolloff=rolloff, n_symbols=n_symbols)
        frame = generate_frame(n_symbols, substream(cfg.seed, STREAM_BITS))
        want = oracle_pulse_shape(frame.levels.astype(float), cfg)
        got = pulse_shape(frame, cfg)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="frame too short"):
        pulse_shape(generate_frame(limit - 1, substream(0, STREAM_BITS)), cfg)


def test_pulse_shape_rejects_frame_shorter_than_span():
    cfg = cfg_with(n_symbols=2048)
    frame = SymbolFrame(levels=np.full(20, 1.0))
    with pytest.raises(ValueError):
        pulse_shape(frame, cfg)


# -------------------------------------------------------------------- mzm

def test_mzm_bias_point():
    cfg = cfg_with()
    out = mzm_modulate(np.zeros(64), cfg)
    assert np.allclose(out, np.cos(np.pi / 4.0))


def test_mzm_full_swing_endpoint():
    cfg = cfg_with(mzm_mod_index=1.0)
    assert np.allclose(mzm_modulate(np.ones(8), cfg), 1.0)


def test_mzm_intensity_monotone_in_drive():
    cfg = cfg_with()
    v = np.linspace(-1.0, 1.0, 201)
    intensity = np.abs(mzm_modulate(v, cfg)) ** 2
    assert np.all(np.diff(intensity) > 0)


def test_mzm_rejects_unnormalized_drive():
    cfg = cfg_with()
    for bad in (1.5, -1.5):
        with pytest.raises(ValueError):
            mzm_modulate(np.array([0.0, bad, 0.5]), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mzm_rejects_non_finite_drive(bad):
    # NaN compares false with the peak bound, so only a check written as
    # "not peak <= bound" refuses it
    with pytest.raises(ValueError):
        mzm_modulate(np.array([0.0, bad, 0.5]), cfg_with())


def test_mod_index_validation():
    with pytest.raises(ValueError):
        cfg_with(mzm_mod_index=0.0)
    with pytest.raises(ValueError):
        cfg_with(mzm_mod_index=1.2)


# ------------------------------------------------------------- dispersion

def test_cd_zero_length_is_identity():
    cfg = cfg_with(fiber_length_km=0.0)
    rng = substream(1, 9)
    x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    out = propagate_cd(x, cfg)
    assert np.max(np.abs(out - x)) / np.max(np.abs(x)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.integers(64, 1024),
    st.floats(0.0, 200.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
def test_cd_is_unitary(n, length, seed):
    cfg = cfg_with(fiber_length_km=length, n_symbols=64)
    rng = substream(seed, 0)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = propagate_cd(x, cfg)
    ratio = np.sum(np.abs(out) ** 2) / np.sum(np.abs(x) ** 2)
    assert abs(ratio - 1.0) < 1e-9


def test_cd_composes_additively():
    rng = substream(2, 4)
    x = rng.normal(size=2048) + 1j * rng.normal(size=2048)
    step1 = propagate_cd(x, cfg_with(fiber_length_km=7.0))
    step2 = propagate_cd(step1, cfg_with(fiber_length_km=13.0))
    direct = propagate_cd(x, cfg_with(fiber_length_km=20.0))
    err = np.max(np.abs(step2 - direct))
    assert err / np.max(np.abs(direct)) < 1e-9


def test_cd_gaussian_broadening_matches_formula():
    # oversample so the pulse is well resolved; T0 chosen to roughly
    # double the width over 10 km
    cfg = cfg_with(fiber_length_km=10.0, sps=32, n_symbols=64)
    n = 8192
    dt = 1.0 / cfg.sample_rate
    t = (np.arange(n) - n / 2) * dt
    t0 = 12e-12
    field = np.exp(-(t**2) / (2.0 * t0**2)).astype(complex)
    out = propagate_cd(field, cfg)
    measured = oracle_broadened_width(t, np.abs(out) ** 2)
    beta2_l = cfg.beta2_s2_per_m * cfg.fiber_length_km * 1e3
    expected = t0 * np.sqrt(1.0 + (beta2_l / t0**2) ** 2)
    assert expected / t0 > 1.5  # the case must actually broaden
    assert abs(measured / expected - 1.0) < 0.01


# ---------------------------------------------------------------- slicing

def test_slice_fields_sum_to_inband_signal():
    cfg = cfg_with(n_symbols=1024, seed=3)
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    wave = pulse_shape(frame, cfg)
    fields = slice_spectrum(wave, cfg)
    spectrum = np.fft.fft(np.asarray(wave, dtype=complex))
    f = np.fft.fftfreq(wave.size, d=1.0 / cfg.sample_rate)
    b = cfg.occupied_bandwidth
    inband = np.fft.ifft(spectrum * ((f >= -b / 2) & (f <= b / 2)))
    err = np.max(np.abs(fields.sum(axis=0) - inband))
    assert err / np.max(np.abs(inband)) < 1e-9


def test_slice_energies_sum_to_inband_energy():
    cfg = cfg_with(n_symbols=1024, seed=3)
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    wave = pulse_shape(frame, cfg)
    fields = slice_spectrum(wave, cfg)
    spectrum = np.fft.fft(np.asarray(wave, dtype=complex))
    f = np.fft.fftfreq(wave.size, d=1.0 / cfg.sample_rate)
    b = cfg.occupied_bandwidth
    inband = np.fft.ifft(spectrum * ((f >= -b / 2) & (f <= b / 2)))
    each = np.sum(np.abs(fields) ** 2, axis=1)
    total = np.sum(np.abs(inband) ** 2)
    assert abs(each.sum() / total - 1.0) < 1e-9


def test_single_slice_is_inband_filter():
    cfg = cfg_with(num_slices=1, n_symbols=512, seed=2)
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    wave = pulse_shape(frame, cfg)
    fields = slice_spectrum(wave, cfg)
    assert fields.shape[0] == 1
    four = slice_spectrum(wave, cfg_with(num_slices=4, n_symbols=512, seed=2))
    assert np.allclose(fields[0], four.sum(axis=0), atol=1e-12)


def oracle_slice_masks(n, fs, cfg):
    """The slice rule as boolean masks over ``fftfreq`` bins."""
    f = np.fft.fftfreq(n, d=1.0 / fs)
    b = cfg.occupied_bandwidth
    edges = -b / 2.0 + b * np.arange(cfg.num_slices + 1) / cfg.num_slices
    masks = [(f >= edges[i]) & (f < edges[i + 1]) for i in range(cfg.num_slices - 1)]
    masks.append((f >= edges[-2]) & (f <= edges[-1]))
    return masks


@pytest.mark.parametrize("n", [64, 65, 1001, 4096])
@pytest.mark.parametrize("num_slices", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "sps,rolloff,baud_rate",
    [(2, 0.1, 32e9), (1, 0.0, 32e9), (2, 1.0, 32e9), (3, 0.35, 32e9), (2, 0.5, 2.0**30)],
)
def test_slice_bin_ranges_equal_the_frequency_masks(n, num_slices, sps, rolloff, baud_rate):
    # (1, 0.0) and (2, 1.0) put the band edges on +-fs/2; at a baud rate
    # of 2^30 the bins of n = 64 and 4096 fall exactly on the band edges
    cfg = cfg_with(num_slices=num_slices, sps=sps, rolloff=rolloff, baud_rate=baud_rate)
    rng = np.random.default_rng(n)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fields = slice_spectrum(samples, cfg)
    spectrum = np.fft.fft(samples)
    for field, mask in zip(fields, oracle_slice_masks(n, cfg.sample_rate, cfg), strict=True):
        assert np.array_equal(field, np.fft.ifft(np.where(mask, spectrum, 0.0)))


def oracle_searchsorted_bins(n, cfg):
    """The slice ranges by binary search over the ascending ``fftfreq`` bins."""
    f = np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / cfg.sample_rate))
    b = cfg.occupied_bandwidth
    edges = -b / 2.0 + b * np.arange(cfg.num_slices + 1) / cfg.num_slices
    starts = np.searchsorted(f, edges, side="left")
    starts[-1] = np.searchsorted(f, edges[-1], side="right")
    starts -= n // 2
    return list(zip(starts[:-1].tolist(), starts[1:].tolist()))


@pytest.mark.parametrize("n", [64, 65, 1001, 4096, 2**21 + 1, 2**22])
@pytest.mark.parametrize("num_slices", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "sps,rolloff,baud_rate",
    [(2, 0.1, 32e9), (1, 0.0, 32e9), (2, 1.0, 32e9), (3, 0.35, 32e9), (2, 0.5, 2.0**30)],
)
def test_slice_bins_equal_the_searchsorted_rule(n, num_slices, sps, rolloff, baud_rate):
    # _slice_bins finds each edge's bin from integer bin numbers; the ranges
    # must be those of a binary search over fftshift(fftfreq(n)), band
    # edges on +-fs/2 and bins exactly on an edge included
    cfg = cfg_with(num_slices=num_slices, sps=sps, rolloff=rolloff, baud_rate=baud_rate)
    assert link._slice_bins(n, cfg) == oracle_searchsorted_bins(n, cfg)


def test_slice_rejects_undersampled_band():
    # slice_spectrum reads its sample rate from the config, so a band wider
    # than the sampling rate is refused before any slicing can happen
    for rolloff in (0.01, 0.1, 1.0):
        with pytest.raises(ValueError, match="occupied bandwidth exceeds the sampling rate"):
            slice_spectrum(np.zeros(64, dtype=complex), cfg_with(sps=1, rolloff=rolloff))


# ---------------------------------------------------------- photodetection

def test_single_slice_detection_is_plain_square_law():
    cfg = cfg_with(num_slices=1, snr_db=300.0, n_symbols=64)
    rng = substream(5, 1)
    field = rng.normal(size=128) + 1j * rng.normal(size=128)
    obs = photodetect_and_load_noise(field[None, :], cfg)
    assert np.allclose(obs.data[0], np.abs(field) ** 2, atol=1e-9)


def test_constant_field_gives_constant_power():
    cfg = cfg_with(num_slices=1, snr_db=10.0, n_symbols=64)
    field = np.full(128, 0.6 + 0j)
    obs = photodetect_and_load_noise(field[None, :], cfg)
    # zero AC power means zero noise regardless of SNR
    assert np.allclose(obs.data[0], 0.36)


def test_noise_snr_matches_target():
    cfg = cfg_with(n_symbols=2**17, seed=21, snr_db=17.0, fiber_length_km=10.0)
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    shaped = pulse_shape(frame, cfg)
    drive = shaped / np.max(np.abs(shaped))
    field = propagate_cd(mzm_modulate(drive, cfg), cfg)
    fields = slice_spectrum(field, cfg)
    obs = photodetect_and_load_noise(fields, cfg)
    means = fields.mean(axis=1, keepdims=True)
    clean = np.abs(fields - means + means.sum()) ** 2
    for i in range(cfg.num_slices):
        noise = obs.data[i] - clean[i]
        measured = 10.0 * np.log10(clean[i].var() / noise.var())
        assert abs(measured - cfg.snr_db) < 0.1


def test_slices_draw_independent_noise():
    cfg = cfg_with(num_slices=2, snr_db=10.0, n_symbols=64)
    rng = substream(4, 2)
    field = rng.normal(size=128) + 1j * rng.normal(size=128)
    fields = np.vstack([field, field])
    obs = photodetect_and_load_noise(fields, cfg)
    # identical inputs, same master seed: rows differ only through their
    # per-slice noise substreams
    assert not np.allclose(obs.data[0], obs.data[1])


def test_detection_row_count_must_match_config():
    cfg = cfg_with(num_slices=4)
    with pytest.raises(ValueError):
        photodetect_and_load_noise(np.zeros((2, 64), dtype=complex), cfg)


def test_load_noise_leaves_rows_alone_and_matches_simulate_link():
    cfg = cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=3)
    rows, frame = detect_frame(cfg)
    before = rows.copy()
    for snr in (9.0, 14.0):
        at_snr = cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=3, snr_db=snr)
        (obs,) = load_noise_batch(rows, cfg, [snr])
        assert np.array_equal(rows, before)
        reference, ref_frame = simulate_link(at_snr)
        assert np.array_equal(obs.data, reference.data)
        assert np.array_equal(frame.levels, ref_frame.levels)
        assert (obs.sps, obs.guard_symbols) == (reference.sps, reference.guard_symbols)
        # the lone observation's rows carry its noise and it holds no draw
        assert reference.noise.strides == (0, 0)
        assert not reference.rows.flags.writeable


@pytest.mark.parametrize(
    "size",
    [1, 7, 128, 1000, 2**16 + 3, 2**16 + 8, 100003, 262145, 2**20 + 1, 2 * 2109375, 2**23],
)
def test_slice_noise_scale_is_the_row_variance_bit_for_bit(size):
    # the variance is computed in a scratch of 2^16 samples, not by
    # row.var(); it must still be row.var()'s bits, pairwise summation
    # included, where the row's splits are not powers of two
    rng = np.random.default_rng(size)
    cfg = cfg_with(seed=9)
    snrs = [6.0, 12.5, 30.0]
    for offset, scale in ((0.0, 1.0), (0.36, 1e-3), (-5.0, 7.0)):
        row = offset + scale * rng.standard_normal(size)
        scratch = np.empty(min(size, link._NOISE_POINTS))
        draw, scales = link._slice_noise(row, cfg, 2, snrs, scratch)
        var = row.var()
        assert scales == [np.sqrt(var / 10.0 ** (snr / 10.0)) for snr in snrs]
        # filled piece after piece, the draw is the slice's whole draw
        pieces = np.empty(size)
        for start in range(0, size, scratch.size):
            draw.standard_normal(out=pieces[start : start + scratch.size])
        assert np.array_equal(pieces, substream(9, STREAM_SLICE_NOISE, 2).standard_normal(size))


def test_simulate_link_noise_stage_allocates_pieces_not_rows(monkeypatch):
    # the noise is drawn, scaled and added 2^16 samples at a time, so the
    # stage's peak above the rows it returns is its two 512 KiB pieces
    cfg = cfg_with(n_symbols=2**18, fiber_length_km=10.0, snr_db=12.0, seed=3)
    clean, frame = detect_frame(cfg)
    monkeypatch.setattr(link, "detect_frame", lambda _: (clean.copy(), frame))
    tracemalloc.start()
    try:
        obs, _ = simulate_link(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - obs.rows.nbytes < 2 * 2**20, peak - obs.rows.nbytes
    (want,) = load_noise_batch(clean, cfg, [cfg.snr_db])
    assert np.array_equal(obs.data, want.data)


def test_load_noise_batch_matches_per_slice_normal_draws():
    cfg = cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=5)
    rows, _ = detect_frame(cfg)
    before = rows.copy()
    snrs = (9.0, 13.0, 30.0)
    observations = load_noise_batch(rows, cfg, list(snrs))
    assert np.array_equal(rows, before)
    assert len(observations) == len(snrs)
    n = rows.shape[1]
    for snr, obs in zip(snrs, observations):
        for i in range(cfg.num_slices):
            sigma = np.sqrt(rows[i].var() / 10.0 ** (snr / 10.0))
            want = rows[i] + substream(5, STREAM_SLICE_NOISE, i).normal(0.0, sigma, n)
            assert np.array_equal(obs.data[i], want)
        assert (obs.sps, obs.guard_symbols) == (cfg.sps, cfg.guard_symbols)
    with pytest.raises(ValueError, match="at least one SNR"):
        load_noise_batch(rows, cfg, [])


@pytest.mark.parametrize("num_slices", [1, 3, 4])
@pytest.mark.parametrize("length", [0.0, 50.0])
def test_detect_frame_matches_the_stage_chain(length, num_slices, monkeypatch):
    # odd slice counts put f = 0 inside a slice, four puts it on a band edge;
    # with the split allowed at any size, pieces of at least 8192 points
    # leave 8190 and 8192 samples one full-length transform per slice;
    # pieces of at least 256 or 1000 points split 8192 samples into 32 or 8
    # phases of 256 or 1024 points, fewer than any slice holds, so its bins
    # alias onto each transform, and 8190 samples into 2 phases of 4095
    monkeypatch.setattr(link, "_SPLIT_ABOVE_BYTES", 0)
    for pieces, n_symbols, points in (
        (8192, 4095, 8190),
        (8192, 4096, 8192),
        (256, 4095, 4095),
        (256, 4096, 256),
        (1000, 4096, 1024),
    ):
        monkeypatch.setattr(link, "_PIECE_POINTS", pieces)
        cfg = cfg_with(n_symbols=n_symbols, fiber_length_km=length, num_slices=num_slices, seed=11)
        sizes, ifft = [], np.fft.ifft
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "ifft", lambda a, *args, **kw: sizes.append(a.shape[-1]) or ifft(a, *args, **kw))
            rows, frame = detect_frame(cfg)
        n = cfg.n_symbols * cfg.sps
        assert sizes == [points] * (num_slices * n // points)
        if points < 4095:
            narrowest = min(b - a for a, b in link._slice_bins(n, cfg))
            assert narrowest > points  # so J >= 2 blocks alias onto each transform
        drawn = generate_frame(cfg.n_symbols, substream(cfg.seed, STREAM_BITS))
        assert np.array_equal(frame.levels, drawn.levels)
        shaped = pulse_shape(frame, cfg)
        drive = shaped / np.max(np.abs(shaped))
        chain = photodetect(slice_spectrum(propagate_cd(mzm_modulate(drive, cfg), cfg), cfg))
        assert rows.shape == chain.shape == (num_slices, n)
        for row, want in zip(rows, chain):
            assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("num_slices", [1, 3, 4])
@pytest.mark.parametrize("length", [0.0, 50.0])
@pytest.mark.parametrize("n_symbols, sps", [(4096, 2), (4095, 3)])
def test_detect_frame_keeps_the_one_transform_bits(n_symbols, sps, length, num_slices, monkeypatch):
    # at P = 1 every weight and twiddle is exactly 1, so each row must be,
    # bit for bit, the one-transform rule on the slice's bins: placed in
    # an n-point buffer, one inverse FFT, squared on the slice's offset
    cfg = cfg_with(n_symbols=n_symbols, sps=sps, fiber_length_km=length, num_slices=num_slices, seed=11)
    n = n_symbols * sps
    wanted, detect = [], link._detect_slice

    def one_transform(values, first, offset, row, spec, *rest):
        assert spec.shape == (1, n)
        placed = np.empty(n, dtype=complex)
        link._place_bins(values, first, out=placed)
        np.fft.ifft(placed, out=placed)
        want = np.empty(n)
        link._square_law(placed, offset, want, placed)
        wanted.append(want)
        detect(values, first, offset, row, spec, *rest)

    monkeypatch.setattr(link, "_detect_slice", one_transform)
    rows, _ = detect_frame(cfg)
    assert len(wanted) == num_slices
    for row, want in zip(rows, wanted):
        assert np.array_equal(row, want)


@pytest.mark.parametrize(
    "pieces, n_symbols, shape",
    [(256, 4096, (4, 256)), (1000, 4096, (2, 1024)), (256, 4095, (1, 4095))],
)
def test_the_helper_thread_changes_no_bit(pieces, n_symbols, shape, monkeypatch):
    # with the split allowed at any size, 8192 samples in pieces of 256
    # points make P = 32 phases in groups of G = 4, in pieces of 1000
    # P = 8 in groups of 2, and 8190 samples P = 2 in groups of 1; the
    # slices have more than one group, so the helper takes half of each
    # group's lines (none at G = 1) and half of its columns, and every
    # other slice's noise in simulate_link. Run inline on the calling
    # thread, the helper's halves must give the same bits; the threads
    # switch every microsecond, so an overlap of their writes would show
    monkeypatch.setattr(link, "_SPLIT_ABOVE_BYTES", 0)
    monkeypatch.setattr(link, "_PIECE_POINTS", pieces)
    cfg = cfg_with(n_symbols=n_symbols, fiber_length_km=50.0, snr_db=12.0, seed=11)
    spec_shapes, square_law = [], link._square_law
    # the threads that square each call's slices, counted per call: a
    # joined helper's id may or may not be reused by the next call's
    workers = {"detect_frame": set(), "simulate_link": set()}
    calling = workers["detect_frame"]

    def recorded(field, offset, out, scratch):
        calling.add(threading.get_ident())
        square_law(field, offset, out, scratch)

    detect, interval = link._detect_slice, sys.getswitchinterval()
    with monkeypatch.context() as patch:
        patch.setattr(link, "_square_law", recorded)
        patch.setattr(link, "_detect_slice", lambda *a: spec_shapes.append(a[4].shape) or detect(*a))
        sys.setswitchinterval(1e-6)
        try:
            threaded = detect_frame(cfg)[0].copy()
            calling = workers["simulate_link"]
            threaded_obs = simulate_link(cfg)[0]
        finally:
            sys.setswitchinterval(interval)
    assert set(spec_shapes) == {shape}
    # each call squares on the calling thread and on exactly one helper
    for seen in workers.values():
        assert len(seen) == 2 and threading.get_ident() in seen
    with monkeypatch.context() as patch:
        patch.setattr(link, "_helper_thread", inline_helper)
        inline = detect_frame(cfg)[0]
        inline_obs = simulate_link(cfg)[0]
    assert np.array_equal(threaded, inline)
    assert np.array_equal(threaded_obs.rows, inline_obs.rows)
    assert np.array_equal(threaded_obs.noise_std, inline_obs.noise_std)


def test_the_helper_thread_reraises_and_is_joined(monkeypatch):
    # what the helper's half raises re-raises in the caller, and no thread
    # outlives a call, so a sweep worker forked later inherits none
    monkeypatch.setattr(link, "_SPLIT_ABOVE_BYTES", 0)
    monkeypatch.setattr(link, "_PIECE_POINTS", 256)
    cfg = cfg_with(n_symbols=4096, fiber_length_km=10.0, snr_db=12.0, seed=2)
    before = threading.active_count()
    detect_frame(cfg)
    simulate_link(cfg)
    assert threading.active_count() == before

    def failing(real):
        def on_the_helper(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")
            return real(*args)

        return on_the_helper

    for name, stage in (("_square_law", detect_frame), ("_slice_noise", simulate_link)):
        with monkeypatch.context() as patch:
            patch.setattr(link, name, failing(getattr(link, name)))
            with pytest.raises(RuntimeError, match="helper failed"):
                stage(cfg)
        assert threading.active_count() == before


def test_detect_frame_memory_stays_bounded():
    # peak RSS growth of a fresh process, so nothing else the suite holds
    # or has freed counts; the bound is five observations' worth of rows
    script = (
        "import json\n"
        "from slicerc.link import LinkConfig, detect_frame\n"
        "base = peak_rss()\n"
        "rows, _ = detect_frame(LinkConfig(10.0, 12.0, 2**20))\n"
        "grown = peak_rss() - base\n"
        "print(json.dumps({'grown': grown, 'rows': rows.nbytes}))\n"
    )
    got = run_fresh(script)
    assert got["grown"] <= 5 * got["rows"], got


def test_detect_frame_memory_at_reference_scale():
    # at 2^21 symbols every full-size array (rows, spectrum) lies above
    # glibc's 32 MiB mmap ceiling, so peak RSS follows live memory.
    # detect_frame and simulate_link measured 1.37x the rows, the helper
    # thread's concurrent transform included; the bound leaves 4 MiB for
    # heap layout
    for stage in ("detect_frame", "simulate_link"):
        script = (
            "import json\n"
            f"from slicerc.link import LinkConfig, {stage}\n"
            "base = peak_rss()\n"
            f"out, _ = {stage}(LinkConfig(10.0, 12.0, 2**21))\n"
            "grown = peak_rss() - base\n"
            "rows = getattr(out, 'rows', out)\n"
            "print(json.dumps({'grown': grown, 'rows': rows.nbytes}))\n"
        )
        got = run_fresh(script)
        assert got["grown"] <= 1.40 * got["rows"], (stage, got)


def test_detect_frame_memory_where_n_has_few_factors_of_two():
    # 2109375 symbols split into P = 2 phases of m = n/2 points, one at a
    # time; the slices' bins are read in place, never zero-padded into
    # blocks of m. The peak RSS grew by 1.99x the rows
    script = (
        "import json\n"
        "from slicerc.link import LinkConfig, detect_frame\n"
        "base = peak_rss()\n"
        "rows, _ = detect_frame(LinkConfig(10.0, 12.0, 2109375))\n"
        "grown = peak_rss() - base\n"
        "print(json.dumps({'grown': grown, 'rows': rows.nbytes}))\n"
    )
    got = run_fresh(script)
    assert got["grown"] <= 2.1 * got["rows"], got


def test_detect_frame_splits_only_above_2_21_samples():
    # the split is gated in samples: a 2^18-symbol frame (2^19 samples)
    # runs one full-length inverse FFT per slice, since splitting it raised
    # a desk sweep's peak RSS by 5%, and a 2^21-symbol frame runs each
    # slice as P = n / _PIECE_POINTS = 16 transforms of 2^18 points
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from slicerc.link import LinkConfig, detect_frame\n"
        "sizes, ifft = [], np.fft.ifft\n"
        "def recorded(a, *args, **kw):\n"
        "    sizes.extend([a.shape[-1]] * (a.size // a.shape[-1]))\n"
        "    return ifft(a, *args, **kw)\n"
        "np.fft.ifft = recorded\n"
        "detect_frame(LinkConfig(10.0, 12.0, int(sys.argv[1])))\n"
        "print(json.dumps({'sizes': sizes}))\n"
    )
    pieces = link._PIECE_POINTS
    assert pieces == 2**18
    for n_symbols, phases in ((2**18, 1), (2**21, 2**22 // pieces)):
        n = 2 * n_symbols
        got = run_fresh(script, str(n_symbols))
        assert got["sizes"] == [n // phases] * (4 * phases), (n_symbols, got["sizes"][:8])


# ------------------------------------------------------------ end to end

def test_simulate_link_deterministic():
    cfg = cfg_with(n_symbols=4096, fiber_length_km=10.0, snr_db=20.0)
    obs1, frame1 = simulate_link(cfg)
    obs2, frame2 = simulate_link(cfg)
    assert np.array_equal(obs1.data, obs2.data)
    assert np.array_equal(frame1.levels, frame2.levels)


def test_simulate_link_b2b_slice_sum_is_decodable():
    cfg = cfg_with(n_symbols=2**14, snr_db=40.0, seed=1)
    obs, frame = simulate_link(cfg)
    symbol_samples = obs.data.sum(axis=0)[:: cfg.sps]
    assert oracle_affine_ser(symbol_samples, frame.levels) < 1e-3


def test_simulate_link_dispersion_adds_isi():
    b2b = cfg_with(n_symbols=2**14, snr_db=40.0, seed=1)
    disp = cfg_with(n_symbols=2**14, snr_db=40.0, seed=1, fiber_length_km=10.0)
    sers = {}
    for cfg in (b2b, disp):
        obs, frame = simulate_link(cfg)
        g = obs.guard_symbols
        keep = slice(g, frame.n_symbols - g)
        samples = obs.data.sum(axis=0)[:: cfg.sps][keep]
        sers[cfg.fiber_length_km] = oracle_affine_ser(samples, frame.levels[keep])
    assert sers[10.0] > sers[0.0]


def test_observation_geometry():
    cfg = cfg_with(n_symbols=1024, fiber_length_km=10.0)
    obs, frame = simulate_link(cfg)
    assert obs.data.shape == (cfg.num_slices, cfg.n_symbols * cfg.sps)
    assert obs.n_symbols == frame.n_symbols
    assert obs.guard_symbols == cfg.guard_symbols
    # 10 km of dispersion spans a handful of symbols at 32 GBd
    assert 1 <= obs.guard_symbols <= 16


def test_guard_symbols_zero_at_b2b():
    assert cfg_with(fiber_length_km=0.0).guard_symbols == 0
    assert cfg_with(fiber_length_km=50.0).guard_symbols > cfg_with(
        fiber_length_km=10.0
    ).guard_symbols


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name",
    ["fiber_length_km", "snr_db", "baud_rate", "rolloff", "dispersion_ps_nm_km",
     "wavelength_nm", "mzm_mod_index"],
)
def test_config_refuses_non_finite_numbers(name, bad):
    # a NaN passes every range check written as a comparison
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cfg_with(**{name: bad})


LINK_INT_FIELDS = {"n_symbols": 2048, "sps": 2, "rrc_span_symbols": 64, "num_slices": 4, "seed": 7}


@pytest.mark.parametrize("bad", [2.0, 8.5, True])
@pytest.mark.parametrize("name", LINK_INT_FIELDS)
def test_config_refuses_non_integers(name, bad):
    # a float or a bool would pass every range check and fail later,
    # inside simulate_link
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        cfg_with(**{name: bad})


def test_config_takes_numpy_integers_and_refuses_a_negative_seed():
    as_numpy = {name: np.int64(value) for name, value in LINK_INT_FIELDS.items()}
    assert cfg_with(**as_numpy) == cfg_with(**LINK_INT_FIELDS)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        cfg_with(seed=-1)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_with(fiber_length_km=-1.0)
    with pytest.raises(ValueError):
        cfg_with(rolloff=1.5)
    with pytest.raises(ValueError):
        cfg_with(num_slices=0)
    with pytest.raises(ValueError):
        cfg_with(n_symbols=0)
    with pytest.raises(ValueError):
        cfg_with(rrc_span_symbols=4)
    with pytest.raises(ValueError, match="occupied bandwidth exceeds the sampling rate"):
        cfg_with(sps=1)
