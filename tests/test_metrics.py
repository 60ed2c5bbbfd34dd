"""Decision, error counting, threshold reading, and complexity tests."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicerc import metrics
from slicerc.esn import EsnConfig, init_weights
from slicerc.link import demap_gray_pam4
from slicerc.metrics import (
    KP4_BER,
    BerSnrCurve,
    ErrorTally,
    NonMonotone,
    NotBracketed,
    complexity_rmps,
    count_errors,
    executed_rmps,
    hard_decision,
    snr_at_threshold,
)

LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])


def oracle_decide(value):
    """Nearest level, ties toward the lower level, by exhaustive search.

    Distances are computed in exact rational arithmetic; float
    subtraction would invent ties for values within an ulp of a level.
    """
    dist = [abs(Fraction(value) - int(level)) for level in LEVELS]
    best = min(dist)
    return LEVELS[dist.index(best)]


# ----------------------------------------------------------- hard decision

def test_decision_examples():
    got = hard_decision(np.array([0.9, -5.0, 2.0, -2.0, 0.0, 3.7]))
    assert got.tolist() == [1.0, -3.0, 1.0, -3.0, -1.0, 3.0]


@given(st.floats(-10.0, 10.0, allow_nan=False))
def test_decision_matches_exhaustive_oracle(value):
    assert hard_decision(np.array([value]))[0] == oracle_decide(value)


def test_decision_rejects_non_finite():
    with pytest.raises(ValueError):
        hard_decision(np.array([np.nan]))


# ---------------------------------------------------------- error counting

def test_identical_sequences_have_zero_errors():
    levels = np.array([-3.0, -1.0, 1.0, 3.0] * 8)
    report = count_errors(levels, levels, n_out=4)
    assert report.ber == 0.0
    assert report.ser == 0.0
    assert report.n_bit_errors == 0
    assert not report.per_position_ber.any()


def test_one_adjacent_error_is_one_bit():
    truth = np.full(64, -1.0)
    pred = truth.copy()
    pred[10] = 1.0  # adjacent level, Gray distance one bit
    report = count_errors(pred, truth)
    assert report.n_bit_errors == 1
    assert report.ber == 1.0 / 128.0
    assert report.ser == 1.0 / 64.0


def test_all_confusion_pairs_match_gray_hamming_distance():
    for true_level in LEVELS:
        for pred_level in LEVELS:
            if true_level == pred_level:
                continue
            expected = int(
                np.sum(
                    demap_gray_pam4(np.array([true_level]))
                    != demap_gray_pam4(np.array([pred_level]))
                )
            )
            report = count_errors(np.array([pred_level]), np.array([true_level]))
            assert report.n_bit_errors == expected


def test_per_position_average_recovers_ber():
    rng = np.random.default_rng(0)
    truth = rng.choice(LEVELS, 68 * 3)
    pred = truth.copy()
    flips = rng.choice(truth.size, 25, replace=False)
    pred[flips] = -pred[flips]
    report = count_errors(pred, truth, n_out=3)
    # equal symbol counts per position, so the plain mean is the
    # bit-weighted mean
    assert abs(report.per_position_ber.mean() - report.ber) < 1e-12


@given(st.integers(0, 40), st.integers(1, 64))
def test_injected_error_count_is_reported_exactly(n_errors, extra):
    n = 40 + extra
    truth = np.full(n, -3.0)
    pred = truth.copy()
    pred[:n_errors] = 3.0  # -3 -> +3 flips exactly one bit (00 vs 10)
    report = count_errors(pred, truth)
    assert report.n_bit_errors == n_errors
    assert report.ber == n_errors / (2.0 * n)


def oracle_count_errors(pred, truth, n_out):
    """Bit errors, symbol errors and per-position BER, one symbol at a
    time through the Gray demapper."""
    bit_errors = symbol_errors = 0
    errors_at = [0] * n_out
    symbols_at = [0] * n_out
    for i, (p, t) in enumerate(zip(pred, truth)):
        wrong = int(np.sum(demap_gray_pam4(np.array([p])) != demap_gray_pam4(np.array([t]))))
        bit_errors += wrong
        symbol_errors += p != t
        errors_at[i % n_out] += wrong
        symbols_at[i % n_out] += 1
    per_position = [e / (2 * n) if n else 0.0 for e, n in zip(errors_at, symbols_at)]
    return bit_errors, symbol_errors, per_position


@pytest.mark.parametrize("n_out", [1, 17, 23])
@pytest.mark.parametrize("n", [0, 5, 400])
def test_count_errors_matches_demap_oracle(n, n_out):
    # 400 is no multiple of 17 or 23, and 5 leaves positions unvisited
    rng = np.random.default_rng(n + n_out)
    truth = rng.choice(LEVELS, n)
    pred = np.where(rng.random(n) < 0.3, rng.choice(LEVELS, n), truth)
    report = count_errors(pred, truth, n_out)
    bit_errors, symbol_errors, per_position = oracle_count_errors(pred, truth, n_out)
    assert (report.n_bits, report.n_bit_errors) == (2 * n, bit_errors)
    assert (report.n_symbols, report.n_symbol_errors) == (n, symbol_errors)
    assert report.ber == (bit_errors / (2 * n) if n else 0.0)
    assert report.ser == (symbol_errors / n if n else 0.0)
    assert report.per_position_ber.tolist() == per_position


@pytest.mark.parametrize("bad", [2.0, -5.0, 5.0, 0.0, 1.5, np.nan, np.inf, -np.inf])
def test_count_errors_rejects_values_off_the_levels(bad):
    good = np.array([-3.0, -1.0, 1.0, 3.0])
    off = good.copy()
    off[2] = bad
    with pytest.raises(ValueError):
        count_errors(off, good)
    with pytest.raises(ValueError):
        count_errors(good, off)


def test_count_errors_rejects_length_mismatch():
    with pytest.raises(ValueError):
        count_errors(np.array([1.0]), np.array([1.0, 3.0]))


def report_fields(report):
    return (report.ber, report.ser, report.n_bits, report.n_bit_errors, report.n_symbols,
            report.n_symbol_errors, report.per_position_ber.tolist())


@pytest.mark.parametrize("n_out", [1, 17, 23])
@pytest.mark.parametrize("n", [63, 64, 65, 1000])
def test_blockwise_decisions_and_counts_equal_the_whole_array(monkeypatch, n, n_out):
    # 64-value blocks: the sizes straddle a block edge, and 17 and 23 do
    # not divide the block, so symbols reach later blocks mid-row
    rng = np.random.default_rng(n * n_out)
    estimates = rng.normal(0.0, 2.5, n)
    estimates[::7] = rng.choice([-2.0, 0.0, 2.0], estimates[::7].size)
    truth = rng.choice(LEVELS, n)
    whole_levels = hard_decision(estimates)
    whole = report_fields(count_errors(whole_levels, truth, n_out))
    monkeypatch.setattr(metrics, "_BLOCK", 64)
    levels = hard_decision(estimates)
    assert np.array_equal(levels, whole_levels)
    assert np.array_equal(hard_decision(estimates.reshape(-1, 1)), whole_levels.reshape(-1, 1))
    assert report_fields(count_errors(levels, truth, n_out)) == whole
    # a tally fed in uneven pieces counts what one call over the whole does
    tally = ErrorTally(n_out)
    for a, b in zip([0, 5, 69, 70, 500], [5, 69, 70, 500, n]):
        tally.add(levels[a:b], truth[a:b])
    assert report_fields(tally.report()) == whole


def reshape_per_position(values, n_out):
    """Per-position sums of ``values``, symbol i at position i mod n_out:
    zero-padded to whole rows of n_out and summed down the columns."""
    padded = np.zeros(-(-len(values) // n_out) * n_out, dtype=np.int64)
    padded[: len(values)] = values
    return padded.reshape(-1, n_out).sum(axis=0)


@pytest.mark.parametrize("n_out", [1, 17, 23])
@pytest.mark.parametrize("block", [7, 16])
def test_tally_positions_equal_the_reshape_oracle(monkeypatch, block, n_out):
    # adds that end mid-row, on a row edge and past it, each split over
    # blocks that divide neither n_out nor the adds
    monkeypatch.setattr(metrics, "_BLOCK", block)
    rng = np.random.default_rng(block * n_out)
    sizes = [0, 1, n_out - 1, n_out + 1] * 3 + [5 * block + 3]
    truth = rng.choice(LEVELS, sum(sizes))
    pred = np.where(rng.random(truth.size) < 0.4, rng.choice(LEVELS, truth.size), truth)
    bit_errors = (demap_gray_pam4(pred) != demap_gray_pam4(truth)).reshape(-1, 2).sum(axis=1)
    tally, done = ErrorTally(n_out), 0
    for size in sizes:
        tally.add(pred[done : done + size], truth[done : done + size])
        done += size
        assert np.array_equal(tally.errors_at, reshape_per_position(bit_errors[:done], n_out))
        assert np.array_equal(tally.symbols_at, reshape_per_position(np.ones(done), n_out))
    report = tally.report()
    expected = reshape_per_position(bit_errors, n_out)
    symbols = reshape_per_position(np.ones(truth.size), n_out)
    assert report.per_position_ber.tolist() == (expected / (2 * symbols)).tolist()
    assert report.n_bit_errors == bit_errors.sum()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_estimate_in_a_later_block_still_raises(monkeypatch, bad):
    monkeypatch.setattr(metrics, "_BLOCK", 64)
    estimates = np.zeros(200)
    estimates[150] = bad
    with pytest.raises(ValueError, match="finite"):
        hard_decision(estimates)


@pytest.mark.parametrize("bad", [2.0, np.nan])
def test_a_value_off_the_levels_in_a_later_block_still_raises(monkeypatch, bad):
    monkeypatch.setattr(metrics, "_BLOCK", 64)
    good = np.resize(LEVELS, 200)
    off = good.copy()
    off[150] = bad
    with pytest.raises(ValueError):
        count_errors(off, good, 17)
    with pytest.raises(ValueError):
        count_errors(good, off, 17)


def test_count_errors_casts_the_truth_per_block():
    # the reference flow scores 2^22 int8 truth values; a float64 copy of
    # them all would be 32 MiB beside the inputs, its blocks take 2.7 MiB
    truth = np.resize(np.array([-3, -1, 1, 3], dtype=np.int8), 2**22)
    pred = truth.astype(float)
    tracemalloc.start()
    try:
        report = count_errors(pred, truth, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_bit_errors == 0
    assert peak < 4 << 20, peak


# ------------------------------------------------------------------ curves

def test_curve_validation():
    with pytest.raises(ValueError):
        BerSnrCurve(snr_db=np.array([10.0]), ber=np.array([1e-3]))
    with pytest.raises(ValueError):
        BerSnrCurve(snr_db=np.array([10.0, 10.0]), ber=np.array([1e-3, 1e-4]))
    with pytest.raises(ValueError):
        BerSnrCurve(snr_db=np.array([10.0, 11.0]), ber=np.array([1e-3, 0.0]))


def test_threshold_validation():
    curve = BerSnrCurve(snr_db=np.array([10.0, 12.0]), ber=np.array([1e-3, 1e-5]))
    for bad in (0.0, 1.0, 2.0, -1e-4, np.nan, np.inf):
        with pytest.raises(ValueError, match="threshold"):
            snr_at_threshold(curve, bad)
    assert KP4_BER == 2.26e-4
    at_kp4 = BerSnrCurve(snr_db=np.array([10.0, 12.0]), ber=np.array([1e-2, KP4_BER]))
    assert snr_at_threshold(at_kp4) == 12.0


# ------------------------------------------------------- threshold reading

def test_log_linear_midpoint():
    curve = BerSnrCurve(snr_db=np.array([10.0, 12.0]), ber=np.array([1e-3, 1e-5]))
    assert snr_at_threshold(curve, 1e-4) == pytest.approx(11.0, abs=1e-12)


def test_threshold_at_curve_point():
    curve = BerSnrCurve(snr_db=np.array([10.0, 12.0]), ber=np.array([1e-3, 1e-5]))
    assert snr_at_threshold(curve, 1e-3) == 10.0
    assert snr_at_threshold(curve, 1e-5) == 12.0


@settings(max_examples=60)
@given(st.floats(-45.0, -2.0))
def test_analytic_curve_inversion(log_thr):
    # ber(snr) = 10^(-snr/2), so snr(thr) = -2 log10(thr)
    snr = np.arange(1.0, 101.0)
    curve = BerSnrCurve(snr_db=snr, ber=10.0 ** (-snr / 2.0))
    thr = 10.0**log_thr
    assert snr_at_threshold(curve, thr) == pytest.approx(-2.0 * log_thr, abs=1e-9)


def test_not_bracketed_raises():
    curve = BerSnrCurve(snr_db=np.array([10.0, 12.0]), ber=np.array([1e-2, 1e-3]))
    with pytest.raises(NotBracketed):
        snr_at_threshold(curve, 1e-6)


def test_non_monotone_crossing_raises():
    curve = BerSnrCurve(
        snr_db=np.array([10.0, 11.0, 12.0]), ber=np.array([1e-5, 1e-5, 1e-3])
    )
    with pytest.raises(NonMonotone):
        snr_at_threshold(curve, 1e-4)


def test_floored_pairs_carry_no_crossing():
    # both bracketing endpoints are measurement floors, not data
    curve = BerSnrCurve(
        snr_db=np.array([10.0, 11.0]),
        ber=np.array([1e-3, 1e-5]),
        floored=np.array([True, True]),
    )
    with pytest.raises(NonMonotone):
        snr_at_threshold(curve, 1e-4)


def test_interpolates_past_a_floored_pair():
    curve = BerSnrCurve(
        snr_db=np.array([8.0, 10.0, 12.0]),
        ber=np.array([5e-3, 1e-3, 1e-5]),
        floored=np.array([False, False, False]),
    )
    assert snr_at_threshold(curve, 1e-4) == pytest.approx(11.0, abs=1e-12)


# ------------------------------------------------------------- complexity

def variant(n_out: int) -> EsnConfig:
    return EsnConfig(n_out=n_out)


def test_complexity_values_are_exact():
    assert complexity_rmps(variant(1)) == pytest.approx(691.0, abs=1e-9)
    assert complexity_rmps(variant(17)) == pytest.approx(1235.0 / 17.0, abs=1e-9)
    assert complexity_rmps(variant(23)) == pytest.approx(1439.0 / 23.0, abs=1e-9)


def test_multi_symbol_reduction_is_order_of_magnitude():
    assert complexity_rmps(variant(1)) / complexity_rmps(variant(17)) >= 9.5


def test_complexity_strictly_decreasing_in_n_out():
    values = [complexity_rmps(variant(n)) for n in range(1, 24)]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n_out,per_step", [(1, 6694), (17, 10118), (23, 11402)])
def test_executed_dense_count_is_every_product_equalize_runs(n_out, per_step):
    # per step at the defaults: w_in 30 x 184, w_res 30 x 30, 60 leak
    # products and n_out rows of 214 non-bias readout columns
    cfg = variant(n_out)
    assert per_step == 30 * 184 + 30 * 30 + 60 + n_out * 214
    _, dense = executed_rmps(init_weights(cfg), cfg)
    assert dense == per_step / n_out  # 6694, 595.2, 495.7


@pytest.mark.parametrize(
    "n_out,drawn,dense", [(1, 810.0, 6694.0), (17, 224.1, 595.2), (23, 214.2, 495.7)]
)
def test_a_window_only_mask_needs_its_window_taps_alone(n_out, drawn, dense):
    # with no row reading the reservoir, a step needs only its 184 window
    # taps per row, and equalize runs no projection and no fold and reads
    # the window columns alone, so it runs those 184 as well
    cfg = variant(n_out)
    weights = init_weights(cfg)
    assert [round(count, 1) for count in executed_rmps(weights, cfg)] == [drawn, dense]
    weights.out_mask[:, : cfg.n_res] = False
    assert executed_rmps(weights, cfg) == (184.0, 184.0)


@pytest.mark.parametrize("n_out,seed", [(1, 0), (17, 0), (23, 5)])
def test_executed_nonzero_count_reads_the_drawn_weights(n_out, seed):
    cfg = EsnConfig(n_out=n_out, seed=seed)
    weights = init_weights(cfg)
    weights.w_in[:, 0] = 0.0  # a zeroed weight is not a product
    count = sum(v != 0.0 for v in weights.w_in.flat) + sum(v != 0.0 for v in weights.w_res.flat)
    count += 2 * cfg.n_res
    count += sum(bool(selected) for row in weights.out_mask for selected in row[:-1])
    needed, dense = executed_rmps(weights, cfg)
    assert needed == count / n_out
    assert complexity_rmps(cfg) < needed < dense


def test_complexity_counts_the_printed_terms():
    cfg = EsnConfig(n_out=17)
    total = (
        cfg.n_in * cfg.n_res * cfg.s_in
        + cfg.n_res**2 * cfg.s_res
        + cfg.n_res * cfg.n_out * cfg.s_out
        + 2 * cfg.n_res
        + cfg.n_out * (1 + cfg.n_res)
    )
    assert complexity_rmps(cfg) == total / cfg.n_out
