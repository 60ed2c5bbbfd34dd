"""Full-scale acceptance runs.

One test per criterion so `pytest -v` prints one pass/fail line each.
Grid points are cached at module level: criteria 4, 5 and 6 reuse the
curves computed for criterion 3 instead of re-simulating them. A series'
missing points run through the sweep path together, so they share each
seed's frame and its batched equalizer.

Total runtime is a few minutes on one core; the heavy criteria are 3
(10 km BER curves at 2^18 symbols, three seeds) and 6 (threshold
crossings over four fiber lengths).
"""

import csv
import math

import numpy as np
import pytest

from slicerc import esn, link
from slicerc.cli import main as cli_main
from slicerc.esn import EsnConfig, init_weights
from slicerc.harness import (
    EsnParams,
    ExperimentConfig,
    GridPoint,
    run_experiment,
    run_sweep,
    series_curve,
)
from slicerc.link import LinkConfig
from slicerc.metrics import (
    KP4_BER,
    NonMonotone,
    NotBracketed,
    complexity_rmps,
    snr_at_threshold,
)
from slicerc.rng import substream

ACCEPT_SYMBOLS = 2**18
SEEDS = (0, 1, 2)
BASE_GRID = tuple(float(s) for s in range(8, 14))

# (length_km, n_out, n_res, k, snr_db, seed) -> SweepRecord
_CACHE = {}


def _series(length_km, n_out, snrs, n_res=30, k=11):
    """Records of one series at every SNR of ``snrs`` under every seed.

    The points not cached yet run as one sweep, so each seed's frame is
    simulated once and its SNR points are equalized as one batch.
    """
    key = (length_km, n_out, n_res, k)
    missing = sorted({snr for snr in snrs for seed in SEEDS if (*key, snr, seed) not in _CACHE})
    if missing:
        cfg = ExperimentConfig(
            fiber_length_km=(length_km,),
            snr_db=tuple(missing),
            n_out=(n_out,),
            seeds=SEEDS,
            total_symbols=ACCEPT_SYMBOLS,
            esn=EsnParams(n_res=n_res, k=k),
            label="acceptance",
        )
        for rec in run_sweep(cfg):
            assert rec.ok, rec.error
            _CACHE[(*key, rec.snr_db, rec.seed)] = rec
    return [_CACHE[(*key, snr, seed)] for snr in sorted(snrs) for seed in SEEDS]


def _point(length_km, n_out, snr_db, seed, n_res=30, k=11):
    return _series(length_km, n_out, [snr_db], n_res, k)[SEEDS.index(seed)]


def _curve(length_km, n_out, snrs, n_res=30, k=11):
    return series_curve(_series(length_km, n_out, snrs, n_res, k))


def _crossing(length_km, n_out, grid=BASE_GRID):
    """Threshold SNR for one series, widening the grid when unbracketed."""
    snrs = sorted(grid)
    while True:
        curve = _curve(length_km, n_out, snrs)
        try:
            return snr_at_threshold(curve, KP4_BER), tuple(snrs)
        except NotBracketed:
            if min(curve.ber) > KP4_BER:
                if snrs[-1] >= 30.0:
                    raise
                snrs.append(snrs[-1] + 1.0)
            else:
                if snrs[0] <= 4.0:
                    raise
                snrs.insert(0, snrs[0] - 1.0)


def _assert_non_increasing(curve, label):
    """Median BER falls with SNR; floor-limited points cannot resolve order."""
    for i in range(len(curve.snr_db) - 1):
        if curve.floored[i] or curve.floored[i + 1]:
            continue
        assert curve.ber[i + 1] <= curve.ber[i] * (1.0 + 1e-12), (
            f"{label}: BER rises {curve.ber[i]:.3e} -> {curve.ber[i + 1]:.3e} "
            f"between {curve.snr_db[i]} and {curve.snr_db[i + 1]} dB"
        )


def test_criterion_1_complexity_exact():
    c1 = complexity_rmps(EsnConfig(n_out=1))
    c17 = complexity_rmps(EsnConfig(n_out=17))
    c23 = complexity_rmps(EsnConfig(n_out=23))
    assert abs(c1 - 691.0) <= 1e-9
    assert abs(c17 - 1235.0 / 17.0) <= 1e-9
    assert abs(c23 - 1439.0 / 23.0) <= 1e-9
    assert abs(c17 - 72.0) <= 1.0
    assert c1 / c17 >= 9.5


def test_criterion_2_b2b_zero_errors():
    cfg = ExperimentConfig(
        fiber_length_km=(0.0,),
        snr_db=(40.0,),
        n_out=(1,),
        seeds=(0,),
        total_symbols=2**16,
        label="acceptance",
    )
    rec = run_experiment(cfg, GridPoint(0.0, 1, 40.0, 0))
    assert rec.ok, rec.error
    assert rec.ber == 0.0
    # a zero-error run is only evidence down to its counting floor, which
    # must sit below the FEC threshold for the zero to mean anything
    assert 1.0 / (4.0 * rec.test_symbols) < KP4_BER


def test_criterion_3_ber_curves_10km():
    for n_out in (1, 17, 23):
        _assert_non_increasing(_curve(10.0, n_out, BASE_GRID), f"n_out={n_out}")
    thr1, _ = _crossing(10.0, 1)
    thr17, _ = _crossing(10.0, 17)
    thr23, _ = _crossing(10.0, 23)
    assert abs(thr17 - thr1) <= 1.0, f"thr1={thr1:.2f} thr17={thr17:.2f}"
    assert thr23 >= thr17 + 0.5, f"thr17={thr17:.2f} thr23={thr23:.2f}"


def test_criterion_4_edge_positions():
    realized = {key[4] for key in _CACHE if key[:2] == (10.0, 23)}
    for snr in sorted(realized | set(BASE_GRID), reverse=True):
        recs = [_point(10.0, 23, snr, seed) for seed in SEEDS]
        pos = np.median([r.per_position_ber for r in recs], axis=0)
        windows = recs[0].test_symbols / 23.0
        floor = 1.0 / (4.0 * windows)
        mid = float(np.median(pos[5:18]))
        if mid <= 10.0 * floor:
            continue
        assert pos[0] >= 2.0 * mid, f"snr={snr}: first {pos[0]:.2e} mid {mid:.2e}"
        assert pos[22] >= 2.0 * mid, f"snr={snr}: last {pos[22]:.2e} mid {mid:.2e}"
        return
    pytest.fail("no SNR where mid-window BER clears 10x the counting floor")


def test_criterion_5_single_symbol_baseline():
    _, snrs = _crossing(10.0, 1)
    curve = _curve(10.0, 1, snrs)
    at = next(
        s for s, b in zip(curve.snr_db, curve.ber) if b <= KP4_BER
    )
    recs = [_point(10.0, 1, at, seed, n_res=300, k=0) for seed in SEEDS]
    med = float(np.median([r.ber for r in recs]))
    assert med > KP4_BER, f"single-symbol 300-node BER {med:.3e} at {at} dB"


def test_criterion_6_penalty_vs_length():
    lengths = (0.0, 10.0, 30.0, 50.0)
    grid = tuple(float(s) for s in range(8, 13))
    thr = {
        (length, n_out): _crossing(length, n_out, grid)[0]
        for length in lengths
        for n_out in (1, 17)
    }
    ref = thr[(0.0, 1)]
    penalty = {key: value - ref for key, value in thr.items()}
    for length in lengths:
        gap = penalty[(length, 17)] - penalty[(length, 1)]
        assert gap <= 1.0, f"{length} km: variant gap {gap:.3f} dB"
    for n_out in (1, 17):
        seq = [penalty[(length, n_out)] for length in lengths]
        for i in range(len(seq) - 1):
            assert seq[i + 1] >= seq[i] - 0.3, (
                f"n_out={n_out}: penalty drops {seq[i]:.3f} -> {seq[i + 1]:.3f} dB "
                f"from {lengths[i]} to {lengths[i + 1]} km"
            )


def test_criterion_7_numerical_invariants():
    rng = substream(42, 0)

    # dispersion is all-pass: relative energy error and additivity
    cfg = LinkConfig(fiber_length_km=10.0, snr_db=30.0, n_symbols=512)
    field = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    out = link.propagate_cd(field, cfg)
    e_in = np.sum(np.abs(field) ** 2)
    assert abs(np.sum(np.abs(out) ** 2) / e_in - 1.0) <= 1e-9

    two_hops = link.propagate_cd(
        link.propagate_cd(field, LinkConfig(7.0, 30.0, 512)),
        LinkConfig(13.0, 30.0, 512),
    )
    direct = link.propagate_cd(field, LinkConfig(20.0, 30.0, 512))
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(two_hops - direct)) / scale <= 1e-9

    # slices partition the occupied band: fields and energies both add up
    cfg = LinkConfig(fiber_length_km=0.0, snr_db=30.0, n_symbols=1024)
    frame = link.generate_frame(cfg.n_symbols, substream(3, 0))
    shaped = link.pulse_shape(frame, cfg)
    fields = link.slice_spectrum(shaped, cfg)
    spectrum = np.fft.fft(np.asarray(shaped, dtype=complex))
    freqs = np.fft.fftfreq(shaped.size, d=1.0 / cfg.sample_rate)
    band = cfg.occupied_bandwidth
    inband = np.fft.ifft(spectrum * ((freqs >= -band / 2) & (freqs <= band / 2)))
    assert np.max(np.abs(fields.sum(axis=0) - inband)) / np.max(np.abs(inband)) <= 1e-9
    energies = np.sum(np.abs(fields) ** 2, axis=1)
    assert abs(energies.sum() / np.sum(np.abs(inband) ** 2) - 1.0) <= 1e-9

    # matched-cascade ISI at a span where truncation no longer dominates
    taps = link.rrc_taps(0.1, 2, 1024)
    cascade = np.convolve(taps, taps)
    peak = cascade.size // 2
    others = cascade[peak % 2 :: 2].copy()
    others[peak // 2] = 0.0
    assert np.max(np.abs(others)) / cascade[peak] <= 1e-6

    # reservoir spectral radius lands on its target
    w = init_weights(EsnConfig(seed=0))
    radius = np.max(np.abs(np.linalg.eigvals(w.w_res)))
    assert abs(radius / 1.2 - 1.0) <= 1e-6

    # masked ridge agrees with per-row column-deletion normal equations
    cfg = EsnConfig(
        k=1, n_res=4, n_out=2, sps=1, num_slices=1,
        s_in=0.5, s_res=0.5, s_out=0.5, washout=0, ridge_lambda=1e-3,
    )
    states = rng.normal(size=(10, 4))
    inputs = rng.normal(size=(10, cfg.n_in))
    targets = rng.normal(size=(10, 2))
    mask = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=bool)
    design = np.hstack([states, inputs, np.ones((10, 1))])
    full_mask = np.hstack([mask, np.ones((2, cfg.n_in + 1), dtype=bool)])
    w_out = esn._solve_masked_ridge(
        design.T @ design, design.T @ targets, full_mask, cfg.ridge_lambda
    )
    expected = np.zeros_like(w_out)
    for r in range(2):
        # the bias is the last column each row selects, and is not penalized
        cols = np.flatnonzero(full_mask[r])
        x = design[:, cols]
        a = x.T @ x
        a[np.arange(cols.size - 1), np.arange(cols.size - 1)] += cfg.ridge_lambda
        expected[r, cols] = np.linalg.solve(a, x.T @ targets[:, r])
    assert np.max(np.abs(w_out - expected)) <= 1e-10

    # streaming reservoir fold equals the literal per-step loop
    cfg = EsnConfig(
        k=1, n_res=6, n_out=1, sps=1, num_slices=1,
        s_in=0.5, s_res=0.5, s_out=0.5, washout=0, seed=1,
    )
    w = init_weights(cfg)
    inputs = rng.normal(size=(5, cfg.n_in))
    x = np.zeros(cfg.n_res)
    expected_states = []
    for u in inputs:
        x = (1.0 - cfg.leak) * x + cfg.leak * np.tanh(w.w_in @ u + w.w_res @ x)
        expected_states.append(x.copy())
    states = np.empty((5, cfg.n_res))
    esn._fold(inputs @ w.w_in.T, w.w_res, cfg.leak, np.zeros(cfg.n_res), states)
    assert np.max(np.abs(states - np.array(expected_states))) <= 1e-12

    # Gray map round-trips exactly
    bits = substream(11, 0).integers(0, 2, size=2048).astype(np.uint8)
    levels = link.map_gray_pam4(bits)
    assert np.array_equal(link.demap_gray_pam4(levels), bits)

    # loaded noise hits the requested SNR slice by slice
    cfg = LinkConfig(
        fiber_length_km=10.0, snr_db=17.0, n_symbols=2**17, seed=21
    )
    frame = link.generate_frame(cfg.n_symbols, substream(cfg.seed, 0))
    shaped = link.pulse_shape(frame, cfg)
    drive = shaped / np.max(np.abs(shaped))
    field = link.propagate_cd(link.mzm_modulate(drive, cfg), cfg)
    fields = link.slice_spectrum(field, cfg)
    obs = link.photodetect_and_load_noise(fields, cfg)
    means = fields.mean(axis=1, keepdims=True)
    clean = np.abs(fields - means + means.sum()) ** 2
    for i in range(cfg.num_slices):
        noise = obs.data[i] - clean[i]
        measured = 10.0 * np.log10(clean[i].var() / noise.var())
        assert abs(measured - 17.0) <= 0.1


def _rows_without_wall_time(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    return [row[:drop] + row[drop + 1 :] for row in rows]


def test_criterion_8_sweep_determinism(tmp_path):
    config = tmp_path / "sweep.yaml"
    config.write_text(
        "fiber_length_km: [10]\n"
        "snr_db: [10, 12, 14]\n"
        "n_out: [1, 17, 23]\n"
        "seeds: [0, 1]\n"
        "total_symbols: 65536\n"
        "label: determinism\n"
    )
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    assert cli_main(["sweep", "--config", str(config), "--out", str(serial)]) == 0
    assert (
        cli_main(
            ["sweep", "--config", str(config), "--out", str(pooled), "--parallel", "8"]
        )
        == 0
    )
    a = _rows_without_wall_time(serial / "results.csv")
    b = _rows_without_wall_time(pooled / "results.csv")
    assert len(a) == 19  # header plus 1 x 3 x 3 x 2 records
    assert a == b
