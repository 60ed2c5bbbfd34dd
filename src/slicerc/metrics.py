"""Decision, error counting, FEC-threshold SNR reading, and complexity.

BER curves are read at a FEC threshold (a pre-FEC BER, KP4 by default)
by interpolating log10(BER) linearly in SNR. Zero-error measurements
are stored at the floor 1 / (2 n_bits) and flagged, so curves stay
interpolable without pretending the floor is a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .esn import EsnConfig, EsnWeights, _reads_reservoir
from .link import PAM4_LEVELS, demap_gray_pam4, level_indices

KP4_BER = 2.26e-4

# Values that hard_decision and ErrorTally work through at a time, which
# bounds their temporaries at a few times _BLOCK * 8 bytes
_BLOCK = 1 << 16

# PAM4_LEVELS as the int8 levels that hard_decision returns
_INT8_LEVELS = PAM4_LEVELS.astype(np.int8)

# _GRAY_BIT_DIFFERENCES[4 * i + j]: bits in which the Gray labels of
# levels i and j (indices into PAM4_LEVELS) differ
_GRAY_LABELS = demap_gray_pam4(PAM4_LEVELS).reshape(4, 2)
_GRAY_BIT_DIFFERENCES = (
    (_GRAY_LABELS[:, None, :] != _GRAY_LABELS[None, :, :]).sum(axis=2, dtype=np.uint8).reshape(-1)
)


class NotBracketed(Exception):
    """The curve never crosses the threshold; widen the SNR sweep."""


class NonMonotone(Exception):
    """The threshold is crossed but on no monotone-decreasing segment."""


@dataclass(eq=False, slots=True)
class BerReport:
    """Error counts for one equalized region."""

    ber: float
    ser: float
    n_bits: int
    n_bit_errors: int
    n_symbols: int
    n_symbol_errors: int
    per_position_ber: np.ndarray


def ber_floor(n_bits: int | np.ndarray) -> float | np.ndarray:
    """BER stored for a zero-error measurement of ``n_bits`` bits.

    Half of one error in the measurement: below every resolvable BER,
    yet finite on a log scale.
    """
    return 1.0 / (2.0 * n_bits)


@dataclass(eq=False, slots=True)
class BerSnrCurve:
    """BER versus SNR points, floor-flagged where no errors were seen."""

    snr_db: np.ndarray
    ber: np.ndarray
    floored: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.snr_db = np.asarray(self.snr_db, dtype=float)
        self.ber = np.asarray(self.ber, dtype=float)
        if self.floored is None:
            self.floored = np.zeros(self.snr_db.shape, dtype=bool)
        self.floored = np.asarray(self.floored, dtype=bool)
        if self.snr_db.size < 2:
            raise ValueError("curve needs at least two points")
        if self.snr_db.shape != self.ber.shape or self.snr_db.shape != self.floored.shape:
            raise ValueError("curve arrays must share one shape")
        if not np.all(np.diff(self.snr_db) > 0):
            raise ValueError("snr_db must be strictly increasing")
        if np.any(self.ber <= 0) or np.any(self.ber > 1):
            raise ValueError("ber values must lie in (0, 1]")


def hard_decision(estimates: np.ndarray) -> np.ndarray:
    """Nearest PAM4 level with thresholds {-2, 0, +2}, as int8 levels
    like ``SymbolFrame.levels``: an eighth of the estimates' size.

    An estimate exactly on a threshold rounds toward the lower level.
    Works through the estimates in blocks of ``_BLOCK``, so its
    temporaries stay bounded whatever their number.
    """
    estimates = np.asarray(estimates, dtype=float)
    levels = np.empty(estimates.shape, dtype=np.int8)
    flat, out = estimates.reshape(-1), levels.reshape(-1)
    for a in range(0, flat.size, _BLOCK):
        block = flat[a : a + _BLOCK]
        if not np.all(np.isfinite(block)):
            raise ValueError("estimates must be finite")
        idx = (block > -2.0).astype(np.intp)
        idx += block > 0.0
        idx += block > 2.0
        _INT8_LEVELS.take(idx, out=out[a : a + _BLOCK])
    return levels


class ErrorTally:
    """Running bit and symbol error counts of one equalized region.

    Aligned blocks of decided and true levels are added in order, and
    symbol i of the region (counted over every block added) goes to
    position i mod n_out, matching the stride of the multi-symbol
    readout. add is the one place that rule is applied: it keeps exact
    integer errors and symbol counts per position, so any split of the
    region into blocks gives the same report.
    """

    def __init__(self, n_out: int = 1) -> None:
        if n_out < 1:
            raise ValueError("n_out must be >= 1")
        self.n_symbols = 0
        self.n_symbol_errors = 0
        self.errors_at = np.zeros(n_out, dtype=np.int64)
        self.symbols_at = np.zeros(n_out, dtype=np.int64)

    def add(self, pred_levels: np.ndarray, true_levels: np.ndarray) -> None:
        """Count the errors of the next aligned levels of the region.

        Raises ``ValueError`` when the lengths differ or a value is not
        one of the four levels; the tally is then left partly updated.
        """
        # level_indices casts each block to float, so int8 truth is never
        # copied whole
        pred = np.asarray(pred_levels)
        true = np.asarray(true_levels)
        if pred.shape != true.shape:
            raise ValueError("sequences must have equal length")
        pred, true = pred.reshape(-1), true.reshape(-1)
        n_out = self.errors_at.size
        for a in range(0, pred.size, _BLOCK):
            pairs = level_indices(pred[a : a + _BLOCK]) * np.uint8(4)
            pairs += level_indices(true[a : a + _BLOCK])
            bit_errors = _GRAY_BIT_DIFFERENCES.take(pairs)
            positions = np.arange(self.n_symbols, self.n_symbols + bit_errors.size) % n_out
            self.n_symbols += bit_errors.size
            # Gray labels of two different levels differ in at least one bit
            self.n_symbol_errors += int(np.count_nonzero(bit_errors))
            # float64 sums of at most 2 * _BLOCK are exact integers
            self.errors_at += np.bincount(positions, bit_errors, n_out).astype(np.int64)
            self.symbols_at += np.bincount(positions, minlength=n_out)

    def report(self) -> BerReport:
        """The counts so far as a BerReport."""
        n_symbols, n_bit_errors = self.n_symbols, int(self.errors_at.sum())
        per_position = np.zeros(self.errors_at.size)
        np.divide(self.errors_at, 2 * self.symbols_at, out=per_position, where=self.symbols_at > 0)
        n_bits = 2 * n_symbols
        return BerReport(
            ber=n_bit_errors / n_bits if n_bits else 0.0,
            ser=self.n_symbol_errors / n_symbols if n_symbols else 0.0,
            n_bits=n_bits,
            n_bit_errors=n_bit_errors,
            n_symbols=n_symbols,
            n_symbol_errors=self.n_symbol_errors,
            per_position_ber=per_position,
        )


def count_errors(
    pred_levels: np.ndarray, true_levels: np.ndarray, n_out: int = 1
) -> BerReport:
    """Count bit and symbol errors between aligned level sequences.

    Both sequences must already exclude guard symbols. This is one
    :class:`ErrorTally` fed the whole sequences, so its per-position
    breakdown (symbol i at position i mod n_out) is the tally's.
    """
    tally = ErrorTally(n_out)
    tally.add(pred_levels, true_levels)
    return tally.report()


def snr_at_threshold(curve: BerSnrCurve, threshold: float = KP4_BER) -> float:
    """SNR in dB where the curve crosses the FEC threshold.

    Interpolates linearly in (snr_db, log10 ber) on the first
    monotone-decreasing segment that brackets the threshold, scanning
    from low SNR. A point whose BER equals the threshold is returned
    directly. Segments whose endpoints are both floor flags carry no
    information and are skipped. The threshold must lie in (0, 1).
    """
    if not 0 < threshold < 1:
        raise ValueError(f"FEC threshold must lie in (0, 1), got {threshold!r}")
    ber = curve.ber
    exact = np.flatnonzero(ber == threshold)
    if exact.size:
        return float(curve.snr_db[exact[0]])
    bracketing = False
    for i in range(ber.size - 1):
        if not (ber[i] > threshold > ber[i + 1]):
            continue
        bracketing = True
        if curve.floored[i] and curve.floored[i + 1]:
            continue
        lo, hi = np.log10(ber[i]), np.log10(ber[i + 1])
        t = (np.log10(threshold) - lo) / (hi - lo)
        return float(curve.snr_db[i] + t * (curve.snr_db[i + 1] - curve.snr_db[i]))
    if bracketing or ber.min() < threshold < ber.max():
        raise NonMonotone(
            "threshold lies inside the curve range but no usable "
            "decreasing segment brackets it"
        )
    raise NotBracketed(
        f"curve spans [{ber.min():.3g}, {ber.max():.3g}] and never crosses "
        f"{threshold:.3g}; widen the SNR sweep"
    )


def complexity_rmps(cfg: EsnConfig) -> float:
    """Real multiplications per equalized symbol of one equalizer variant.

    Evaluates, verbatim,

        [n_in n_res s_in + n_res^2 s_res + n_res n_out s_out
         + 2 n_res + n_out (1 + n_res)] / n_out

    Note the readout appears both in the sparse n_res n_out s_out term
    and in the dense-looking n_out (1 + n_res) term; the formula is kept
    as stated rather than corrected, so reported numbers stay comparable.
    """
    total = (
        cfg.n_in * cfg.n_res * cfg.s_in
        + cfg.n_res**2 * cfg.s_res
        + cfg.n_res * cfg.n_out * cfg.s_out
        + 2 * cfg.n_res
        + cfg.n_out * (1 + cfg.n_res)
    )
    return total / cfg.n_out


def executed_rmps(weights: EsnWeights, cfg: EsnConfig) -> tuple[float, float]:
    """Real multiplications per equalized symbol that one equalizer step
    needs and that it runs, each divided over the step's n_out symbols.

    A step projects the window through ``w_in``, multiplies the state by
    ``w_res``, makes the 2 n_res leak products and reads each readout
    row's selected columns; the bias column is added, not multiplied.
    The first count keeps the non-bias columns ``out_mask`` selects, and
    the nonzero ``w_in`` and ``w_res`` entries and the leak products only
    when some row reads a reservoir column. The second is what
    ``equalize`` runs, densely: every entry of ``w_in`` and ``w_res``, the
    leak products and every non-bias column of every row. When no row
    reads a reservoir column, ``equalize`` runs neither the projection nor
    the fold and multiplies every row by the window columns alone, which
    is then all the second count holds. Neither counts training, the
    washout or the refolds of the segmented fold.
    """
    readout = weights.out_mask[:, :-1]
    needed = np.count_nonzero(readout)
    if not _reads_reservoir(weights, cfg):
        return needed / cfg.n_out, readout[:, cfg.n_res :].size / cfg.n_out
    leak = 2 * cfg.n_res
    needed += np.count_nonzero(weights.w_in) + np.count_nonzero(weights.w_res) + leak
    dense = weights.w_in.size + weights.w_res.size + leak + readout.size
    return needed / cfg.n_out, dense / cfg.n_out
