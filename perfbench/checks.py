"""Output checks, computed apart from the program.

Every function returns a list of problems; an empty list means the
output passed. None of them compares against stored copies of earlier
output: they recompute what the method fixes (the complexity closed
form, the train/test split, the Gray labelling, the nearest-level
decision) or test a property the paper's result must have.
"""

from __future__ import annotations

import math

import numpy as np

KP4_BER = 2.26e-4
SPEED_OF_LIGHT = 299_792_458.0

# Real multiplications per symbol of the paper's three readout variants
# (k=11, n_res=30, s_in=0.1, s_res=0.05, s_out=0.1, 4 slices x 2 sps).
RMPS_CLOSED_FORM = {1: 691.0, 17: 1235.0 / 17.0, 23: 1439.0 / 23.0}

LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])
# Gray labels of LEVELS, in order: 00, 01, 11, 10
GRAY_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)


def guard_symbols(length_km: float, link: dict) -> int:
    """Per-edge discard: four times the dispersion spread of the occupied
    band, D * lambda^2 * (1 + rolloff) * baud * L / c, in symbol periods."""
    d = link["dispersion_ps_nm_km"] * 1e-6
    lam = link["wavelength_nm"] * 1e-9
    band = (1.0 + link["rolloff"]) * link["baud_rate"]
    spread_s = d * lam**2 * band * length_km * 1e3 / SPEED_OF_LIGHT
    return math.ceil(4.0 * spread_s * link["baud_rate"])


def split(total: int, length_km: float, n_out: int, cfg: dict) -> dict[str, int]:
    """Train/test boundaries of one frame: guard, a train_fraction prefix
    of the usable symbols, a k-symbol gap, then whole n_out strides up to
    k symbols short of the far guard."""
    guard = guard_symbols(length_km, cfg["link"])
    k = cfg["esn"]["k"]
    n_train = math.floor(cfg["train_fraction"] * (total - 2 * guard))
    train_last = guard + n_train
    test_first = train_last + k
    test_last = total - guard - k
    n_steps = (test_last - test_first) // n_out
    return {"train_last": train_last, "test_first": test_first, "test_symbols": n_steps * n_out}


def check_records(records, cfg: dict) -> list[str]:
    """Per-record checks: no error, closed-form complexity, per-position
    BER averaging to the BER, and the test-symbol count of the split."""
    problems = []
    for r in records:
        where = f"record L={r.fiber_length_km} n_out={r.n_out} snr={r.snr_db} seed={r.seed}"
        if r.error:
            problems.append(f"{where}: failed: {r.error}")
            continue
        want = RMPS_CLOSED_FORM.get(r.n_out)
        if want is None or not math.isclose(r.rmps, want, rel_tol=1e-12):
            problems.append(f"{where}: rmps {r.rmps!r}, closed form {want!r}")
        if len(r.per_position_ber) != r.n_out:
            problems.append(f"{where}: {len(r.per_position_ber)} positions, want {r.n_out}")
        elif not math.isclose(
            math.fsum(r.per_position_ber) / r.n_out, r.ber, rel_tol=1e-12, abs_tol=1e-15
        ):
            problems.append(f"{where}: mean per-position BER differs from ber {r.ber!r}")
        want_test = split(cfg["total_symbols"], r.fiber_length_km, r.n_out, cfg)["test_symbols"]
        if r.test_symbols != want_test:
            problems.append(f"{where}: test_symbols {r.test_symbols}, split gives {want_test}")
    return problems


def crossing_db(snr_db, ber, n_bits) -> float | None:
    """SNR where BER first falls through KP4, interpolating log10(BER)
    linearly between grid points. A zero count is read as half an error,
    0.5 / n_bits. None when the curve never falls through KP4."""
    snr = np.asarray(snr_db, dtype=float)
    val = np.maximum(np.asarray(ber, dtype=float), 0.5 / np.asarray(n_bits, dtype=float))
    for i in range(snr.size - 1):
        if val[i] > KP4_BER >= val[i + 1]:
            lo, hi = math.log10(val[i]), math.log10(val[i + 1])
            t = (math.log10(KP4_BER) - lo) / (hi - lo)
            return float(snr[i] + t * (snr[i + 1] - snr[i]))
    return None


def check_paper_claim(records) -> list[str]:
    """The 0 km single-symbol reference brackets KP4, and at every length
    the 17-symbol readout crosses KP4 within 1 dB of the 1-symbol one."""
    series: dict[tuple, list] = {}
    for r in records:
        if not r.error:
            series.setdefault((r.fiber_length_km, r.n_out), []).append(r)
    cross = {}
    for key, recs in series.items():
        recs.sort(key=lambda r: r.snr_db)
        cross[key] = crossing_db(
            [r.snr_db for r in recs], [r.ber for r in recs], [2 * r.test_symbols for r in recs]
        )
    problems = []
    if cross.get((0.0, 1)) is None:
        problems.append("0 km n_out=1 reference does not bracket KP4")
    for length in sorted({key[0] for key in series}):
        c1, c17 = cross.get((length, 1)), cross.get((length, 17))
        if c1 is None or c17 is None:
            problems.append(f"{length} km: no KP4 crossing (n_out=1 {c1}, n_out=17 {c17})")
        elif abs(c17 - c1) > 1.0:
            problems.append(f"{length} km: n_out=17 crosses at {c17:.2f} dB, n_out=1 at {c1:.2f} dB")
    return problems


def nearest_level(values: np.ndarray) -> np.ndarray:
    """Index into LEVELS of the nearest level; a tie goes to the lower one."""
    best = np.zeros(values.size, dtype=np.intp)
    best_dist = np.abs(values - LEVELS[0])
    for i in range(1, LEVELS.size):
        dist = np.abs(values - LEVELS[i])
        closer = dist < best_dist
        best[closer] = i
        best_dist[closer] = dist[closer]
    return best


def score(estimates: np.ndarray, truth: np.ndarray, n_out: int) -> dict:
    """Nearest-level decision and Gray bit errors, per window position."""
    decided = nearest_level(estimates)
    true_idx = nearest_level(truth)
    bit_errors = (GRAY_BITS[decided] != GRAY_BITS[true_idx]).sum(axis=1)
    per_position = bit_errors.reshape(-1, n_out).sum(axis=0)
    return {
        "n_bit_errors": int(bit_errors.sum()),
        "n_symbol_errors": int((decided != true_idx).sum()),
        "per_position_errors": per_position,
    }


def check_reference(estimates, truth, n_out: int, report, test_symbols: int) -> list[str]:
    """Re-score the equalizer's estimates and compare with the program's
    error report exactly; the BER must be measurable and below KP4."""
    problems = []
    if estimates.size != test_symbols:
        problems.append(f"{estimates.size} estimates, split gives {test_symbols}")
        return problems
    own = score(estimates, truth, n_out)
    n_bits = 2 * estimates.size
    if own["n_bit_errors"] != report.n_bit_errors or report.ber != own["n_bit_errors"] / n_bits:
        problems.append(
            f"bit errors: own {own['n_bit_errors']}, program {report.n_bit_errors} (ber {report.ber!r})"
        )
    if own["n_symbol_errors"] != report.n_symbol_errors:
        problems.append(
            f"symbol errors: own {own['n_symbol_errors']}, program {report.n_symbol_errors}"
        )
    per_position = own["per_position_errors"] / (2 * (estimates.size // n_out))
    if not np.array_equal(per_position, np.asarray(report.per_position_ber)):
        problems.append("per-position BER differs from the own re-score")
    if not 0.0 < report.ber < KP4_BER:
        problems.append(f"ber {report.ber!r} outside (0, KP4)")
    return problems
