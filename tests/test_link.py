"""Link chain tests.

Derived expectations are computed by independent oracles in this file
(naive convolution, analytic pulse broadening, least-squares rescaled
decision) rather than by the code under test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicerc
from slicerc.link import (
    LinkConfig,
    SymbolFrame,
    Waveform,
    demap_gray_pam4,
    detect_frame,
    generate_frame,
    load_noise_batch,
    map_gray_pam4,
    mzm_modulate,
    photodetect,
    propagate_cd,
    pulse_shape,
    rrc_taps,
    simulate_link,
    slice_spectrum,
)
from slicerc.rng import STREAM_BITS, STREAM_SLICE_NOISE, substream


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


def test_generate_frame_deterministic_and_balanced():
    f1 = generate_frame(2**16, substream(3, 0))
    f2 = generate_frame(2**16, substream(3, 0))
    assert np.array_equal(f1.bits, f2.bits)
    assert np.array_equal(f1.levels, f2.levels)
    # binomial bound: frequencies of the four levels within 25% +- 1% abs
    for level in (-3.0, -1.0, 1.0, 3.0):
        freq = np.mean(f1.levels == level)
        assert abs(freq - 0.25) < 0.01


def test_frame_rejects_bit_level_mismatch():
    with pytest.raises(ValueError):
        SymbolFrame(bits=np.zeros(3, dtype=np.uint8), levels=np.array([-3.0]))


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
    bits = np.zeros(1024, dtype=np.uint8)  # placeholder, not used by shaping
    frame = SymbolFrame(bits=bits, levels=levels)
    wave = pulse_shape(frame, cfg)
    taps = rrc_taps(cfg.rolloff, cfg.sps, cfg.rrc_span_symbols)
    half = cfg.rrc_span_symbols * cfg.sps
    window = wave.samples[256 * cfg.sps - half : 256 * cfg.sps + half + 1]
    assert np.allclose(window, taps, atol=1e-12)


def test_pulse_shape_alignment_peaks_at_lag_zero():
    cfg = cfg_with(n_symbols=4096, seed=11)
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    shaped = pulse_shape(frame, cfg)
    taps = rrc_taps(cfg.rolloff, cfg.sps, cfg.rrc_span_symbols)
    # matched filter, circular to mirror the shaping convolution
    spectrum = np.fft.rfft(shaped.samples)
    half = cfg.rrc_span_symbols * cfg.sps
    kernel = np.zeros(shaped.samples.size)
    kernel[: half + 1] = taps[half:]
    kernel[-half:] = taps[:half]
    matched = np.fft.irfft(spectrum * np.fft.rfft(kernel), shaped.samples.size)
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
    assert abs(np.mean(wave.samples**2) / expected - 1.0) < 0.05


def test_pulse_shape_rejects_frame_shorter_than_span():
    cfg = cfg_with(n_symbols=2048)
    frame = SymbolFrame(bits=np.zeros(40, dtype=np.uint8), levels=np.full(20, 1.0))
    with pytest.raises(ValueError):
        pulse_shape(frame, cfg)


# -------------------------------------------------------------------- mzm

def test_mzm_bias_point():
    cfg = cfg_with()
    wave = Waveform(samples=np.zeros(64), sample_rate=cfg.sample_rate)
    out = mzm_modulate(wave, cfg)
    assert np.allclose(out.samples, np.cos(np.pi / 4.0))


def test_mzm_full_swing_endpoint():
    cfg = cfg_with(mzm_mod_index=1.0)
    wave = Waveform(samples=np.ones(8), sample_rate=cfg.sample_rate)
    assert np.allclose(mzm_modulate(wave, cfg).samples, 1.0)


def test_mzm_intensity_monotone_in_drive():
    cfg = cfg_with()
    v = np.linspace(-1.0, 1.0, 201)
    wave = Waveform(samples=v, sample_rate=cfg.sample_rate)
    intensity = np.abs(mzm_modulate(wave, cfg).samples) ** 2
    assert np.all(np.diff(intensity) > 0)


def test_mzm_rejects_unnormalized_drive():
    cfg = cfg_with()
    wave = Waveform(samples=np.array([1.5]), sample_rate=cfg.sample_rate)
    with pytest.raises(ValueError):
        mzm_modulate(wave, cfg)


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
    wave = Waveform(samples=x, sample_rate=cfg.sample_rate)
    out = propagate_cd(wave, cfg)
    assert np.max(np.abs(out.samples - x)) / np.max(np.abs(x)) < 1e-12


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
    out = propagate_cd(Waveform(samples=x, sample_rate=cfg.sample_rate), cfg)
    ratio = np.sum(np.abs(out.samples) ** 2) / np.sum(np.abs(x) ** 2)
    assert abs(ratio - 1.0) < 1e-9


def test_cd_composes_additively():
    rng = substream(2, 4)
    x = rng.normal(size=2048) + 1j * rng.normal(size=2048)
    fs = cfg_with().sample_rate
    wave = Waveform(samples=x, sample_rate=fs)
    step1 = propagate_cd(wave, cfg_with(fiber_length_km=7.0))
    step2 = propagate_cd(step1, cfg_with(fiber_length_km=13.0))
    direct = propagate_cd(wave, cfg_with(fiber_length_km=20.0))
    err = np.max(np.abs(step2.samples - direct.samples))
    assert err / np.max(np.abs(direct.samples)) < 1e-9


def test_cd_gaussian_broadening_matches_formula():
    # oversample so the pulse is well resolved; T0 chosen to roughly
    # double the width over 10 km
    cfg = cfg_with(fiber_length_km=10.0, sps=32, n_symbols=64)
    n = 8192
    dt = 1.0 / cfg.sample_rate
    t = (np.arange(n) - n / 2) * dt
    t0 = 12e-12
    field = np.exp(-(t**2) / (2.0 * t0**2)).astype(complex)
    out = propagate_cd(Waveform(samples=field, sample_rate=cfg.sample_rate), cfg)
    measured = oracle_broadened_width(t, np.abs(out.samples) ** 2)
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
    spectrum = np.fft.fft(np.asarray(wave.samples, dtype=complex))
    f = np.fft.fftfreq(wave.samples.size, d=1.0 / cfg.sample_rate)
    b = cfg.occupied_bandwidth
    inband = np.fft.ifft(spectrum * ((f >= -b / 2) & (f <= b / 2)))
    err = np.max(np.abs(fields.sum(axis=0) - inband))
    assert err / np.max(np.abs(inband)) < 1e-9


def test_slice_energies_sum_to_inband_energy():
    cfg = cfg_with(n_symbols=1024, seed=3)
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    wave = pulse_shape(frame, cfg)
    fields = slice_spectrum(wave, cfg)
    spectrum = np.fft.fft(np.asarray(wave.samples, dtype=complex))
    f = np.fft.fftfreq(wave.samples.size, d=1.0 / cfg.sample_rate)
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
    fields = slice_spectrum(Waveform(samples=samples, sample_rate=cfg.sample_rate), cfg)
    spectrum = np.fft.fft(samples)
    for field, mask in zip(fields, oracle_slice_masks(n, cfg.sample_rate, cfg), strict=True):
        assert np.array_equal(field, np.fft.ifft(np.where(mask, spectrum, 0.0)))


def test_slice_rejects_undersampled_band():
    cfg = cfg_with()
    wave = Waveform(samples=np.zeros(64, dtype=complex), sample_rate=cfg.baud_rate)
    with pytest.raises(ValueError):
        slice_spectrum(wave, cfg)


# ---------------------------------------------------------- photodetection

def test_single_slice_detection_is_plain_square_law():
    cfg = cfg_with(num_slices=1, snr_db=300.0, n_symbols=64)
    rng = substream(5, 1)
    field = rng.normal(size=128) + 1j * rng.normal(size=128)
    obs = load_noise_batch(photodetect(field[None, :]), [cfg])[0]
    assert np.allclose(obs.data[0], np.abs(field) ** 2, atol=1e-9)


def test_constant_field_gives_constant_power():
    cfg = cfg_with(num_slices=1, snr_db=10.0, n_symbols=64)
    field = np.full(128, 0.6 + 0j)
    obs = load_noise_batch(photodetect(field[None, :]), [cfg])[0]
    # zero AC power means zero noise regardless of SNR
    assert np.allclose(obs.data[0], 0.36)


def test_noise_snr_matches_target():
    cfg = cfg_with(n_symbols=2**17, seed=21, snr_db=17.0, fiber_length_km=10.0)
    frame = generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    shaped = pulse_shape(frame, cfg)
    drive = Waveform(
        samples=shaped.samples / np.max(np.abs(shaped.samples)),
        sample_rate=shaped.sample_rate,
    )
    field = propagate_cd(mzm_modulate(drive, cfg), cfg)
    fields = slice_spectrum(field, cfg)
    obs = load_noise_batch(photodetect(fields), [cfg])[0]
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
    obs = load_noise_batch(photodetect(fields), [cfg])[0]
    # identical inputs, same master seed: rows differ only through their
    # per-slice noise substreams
    assert not np.allclose(obs.data[0], obs.data[1])


def test_detection_row_count_must_match_config():
    cfg = cfg_with(num_slices=4)
    with pytest.raises(ValueError):
        load_noise_batch(photodetect(np.zeros((2, 64), dtype=complex)), [cfg])[0]


def test_load_noise_leaves_rows_alone_and_matches_simulate_link():
    cfg = cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=3)
    rows, frame = detect_frame(cfg)
    before = rows.copy()
    for snr in (9.0, 14.0):
        at_snr = cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=3, snr_db=snr)
        obs = load_noise_batch(rows, [at_snr])[0]
        assert np.array_equal(rows, before)
        reference, ref_frame = simulate_link(at_snr)
        assert np.array_equal(obs.data, reference.data)
        assert np.array_equal(frame.bits, ref_frame.bits)
        assert (obs.sps, obs.guard_symbols, obs.sample_rate) == (
            reference.sps, reference.guard_symbols, reference.sample_rate
        )


def test_load_noise_batch_matches_per_slice_normal_draws():
    cfg = cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=5)
    rows, _ = detect_frame(cfg)
    before = rows.copy()
    snrs = (9.0, 13.0, 30.0)
    cfgs = [cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=5, snr_db=snr) for snr in snrs]
    observations = load_noise_batch(rows, cfgs)
    assert np.array_equal(rows, before)
    assert len(observations) == len(snrs)
    n = rows.shape[1]
    for snr, obs in zip(snrs, observations):
        for i in range(cfg.num_slices):
            sigma = np.sqrt(rows[i].var() / 10.0 ** (snr / 10.0))
            want = rows[i] + substream(5, STREAM_SLICE_NOISE, i).normal(0.0, sigma, n)
            assert np.array_equal(obs.data[i], want)
        assert (obs.sps, obs.guard_symbols, obs.sample_rate) == (
            cfg.sps, cfg.guard_symbols, cfg.sample_rate
        )
    # an explicit seed overrides the configs' seed the same way
    reseeded = load_noise_batch(rows, cfgs[:1], seed=8)[0]
    seeded_8 = cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=8, snr_db=snrs[0])
    assert np.array_equal(reseeded.data, load_noise_batch(rows, [seeded_8])[0].data)
    assert not np.array_equal(reseeded.data, observations[0].data)


def test_load_noise_batch_rejects_configs_of_other_frames():
    cfg = cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=5)
    rows, _ = detect_frame(cfg)
    for other in (
        cfg_with(n_symbols=4096, fiber_length_km=0.0, seed=5),
        cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=6),
        cfg_with(n_symbols=4096, fiber_length_km=10.0, seed=5, sps=4),
    ):
        with pytest.raises(ValueError, match="snr_db"):
            load_noise_batch(rows, [cfg, other])
    with pytest.raises(ValueError):
        load_noise_batch(rows, [])


@pytest.mark.parametrize("num_slices", [1, 3, 4])
@pytest.mark.parametrize("length", [0.0, 50.0])
def test_detect_frame_matches_the_stage_chain(length, num_slices):
    # odd slice counts put f = 0 inside a slice, four puts it on a band edge
    cfg = cfg_with(n_symbols=4096, fiber_length_km=length, num_slices=num_slices, seed=11)
    rows, frame = detect_frame(cfg)
    drawn = generate_frame(cfg.n_symbols, substream(cfg.seed, STREAM_BITS))
    assert np.array_equal(frame.bits, drawn.bits)
    shaped = pulse_shape(frame, cfg)
    drive = Waveform(
        samples=shaped.samples / np.max(np.abs(shaped.samples)),
        sample_rate=shaped.sample_rate,
    )
    chain = photodetect(slice_spectrum(propagate_cd(mzm_modulate(drive, cfg), cfg), cfg))
    assert rows.shape == chain.shape == (num_slices, cfg.n_symbols * cfg.sps)
    for row, want in zip(rows, chain):
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


def test_detect_frame_memory_stays_bounded():
    # peak RSS growth of a fresh process, so nothing else the suite holds
    # or has freed counts; the bound is five observations' worth of rows
    script = (
        "import json, resource\n"
        "from slicerc.link import LinkConfig, detect_frame\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "rows, _ = detect_frame(LinkConfig(10.0, 12.0, 2**20))\n"
        "grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) * 1024\n"
        "print(json.dumps({'grown': grown, 'rows': rows.nbytes}))\n"
    )
    src = str(Path(slicerc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["grown"] <= 5 * got["rows"], got


def test_detect_frame_memory_at_reference_scale():
    # at 2^21 symbols every full-size array (rows, spectrum, band) lies
    # above glibc's 32 MiB mmap ceiling, so peak RSS follows live memory:
    # the rows, one complex spectrum, the compact band and the FFT's
    # scratch measured 2.3-2.5x the rows (2.5x at 2^22), and a pass that
    # also holds a second complex spectrum 2.9-3.1x
    script = (
        "import json, resource\n"
        "from slicerc.link import LinkConfig, detect_frame\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "rows, _ = detect_frame(LinkConfig(10.0, 12.0, 2**21))\n"
        "grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) * 1024\n"
        "print(json.dumps({'grown': grown, 'rows': rows.nbytes}))\n"
    )
    src = str(Path(slicerc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["grown"] <= 2.7 * got["rows"], got


# ------------------------------------------------------------ end to end

def test_simulate_link_deterministic():
    cfg = cfg_with(n_symbols=4096, fiber_length_km=10.0, snr_db=20.0)
    obs1, frame1 = simulate_link(cfg)
    obs2, frame2 = simulate_link(cfg)
    assert np.array_equal(obs1.data, obs2.data)
    assert np.array_equal(frame1.bits, frame2.bits)


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
