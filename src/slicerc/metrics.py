"""Decision, error counting, FEC-threshold SNR reading, and complexity.

BER curves are read at a FEC threshold by interpolating log10(BER)
linearly in SNR. Zero-error measurements are stored at the floor
1 / (2 n_bits) and flagged, so curves stay interpolable without
pretending the floor is a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .esn import EsnConfig
from .link import PAM4_LEVELS, demap_gray_pam4, level_indices

KP4_BER = 2.26e-4

# Values that hard_decision and ErrorTally work through at a time, which
# bounds their temporaries at a few times _BLOCK * 8 bytes
_BLOCK = 1 << 16

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


@dataclass(frozen=True, slots=True)
class FecThreshold:
    """Pre-FEC BER below which the outer code is taken as error free."""

    ber_threshold: float = KP4_BER

    def __post_init__(self) -> None:
        if not 0 < self.ber_threshold < 1:
            raise ValueError("ber_threshold must lie in (0, 1)")


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
    """Nearest PAM4 level with thresholds {-2, 0, +2}.

    An estimate exactly on a threshold rounds toward the lower level.
    Works through the estimates in blocks of ``_BLOCK``, so its
    temporaries stay bounded whatever their number.
    """
    estimates = np.asarray(estimates, dtype=float)
    levels = np.empty(estimates.shape)
    flat, out = estimates.reshape(-1), levels.reshape(-1)
    for a in range(0, flat.size, _BLOCK):
        block = flat[a : a + _BLOCK]
        if not np.all(np.isfinite(block)):
            raise ValueError("estimates must be finite")
        idx = (block > -2.0).astype(np.intp)
        idx += block > 0.0
        idx += block > 2.0
        PAM4_LEVELS.take(idx, out=out[a : a + _BLOCK])
    return levels


class ErrorTally:
    """Running bit and symbol error counts of one equalized region.

    Aligned blocks of decided and true levels are added in order, and
    symbol i of the region (counted over every block added) is attributed
    to position i mod n_out, matching the stride of the multi-symbol
    readout. The counts are integers, so any split of the region into
    blocks gives the same report.
    """

    def __init__(self, n_out: int = 1) -> None:
        if n_out < 1:
            raise ValueError("n_out must be >= 1")
        self.n_symbols = 0
        self.n_bit_errors = 0
        self.n_symbol_errors = 0
        self.errors_at = np.zeros(n_out, dtype=np.int64)

    def add(self, pred_levels: np.ndarray, true_levels: np.ndarray) -> None:
        """Count the errors of the next aligned levels of the region.

        Raises ``ValueError`` when the lengths differ or a value is not
        one of the four levels; the tally is then left partly updated.
        """
        pred = np.asarray(pred_levels, dtype=float)
        true = np.asarray(true_levels, dtype=float)
        if pred.shape != true.shape:
            raise ValueError("sequences must have equal length")
        pred, true = pred.reshape(-1), true.reshape(-1)
        for a in range(0, pred.size, _BLOCK):
            pairs = level_indices(pred[a : a + _BLOCK]) * np.uint8(4)
            pairs += level_indices(true[a : a + _BLOCK])
            self._add_bit_errors(_GRAY_BIT_DIFFERENCES.take(pairs))

    def _add_bit_errors(self, bit_errors: np.ndarray) -> None:
        n_out = self.errors_at.size
        position = self.n_symbols % n_out
        self.n_symbols += bit_errors.size
        self.n_bit_errors += int(bit_errors.sum(dtype=np.int64))
        # Gray labels of two different levels differ in at least one bit
        self.n_symbol_errors += int(np.count_nonzero(bit_errors))
        # the first symbols finish the current row of n_out positions,
        # the rest start at position 0
        head = min(-position % n_out, bit_errors.size)
        self.errors_at[position : position + head] += bit_errors[:head]
        full, rest = divmod(bit_errors.size - head, n_out)
        aligned = bit_errors[head : head + full * n_out].reshape(full, n_out)
        self.errors_at += aligned.sum(axis=0, dtype=np.int64)
        self.errors_at[:rest] += bit_errors[head + full * n_out :]

    def report(self) -> BerReport:
        """The counts so far as a BerReport."""
        n_out, n_symbols = self.errors_at.size, self.n_symbols
        full, rest = divmod(n_symbols, n_out)
        symbols_at = np.full(n_out, full)
        symbols_at[:rest] += 1
        per_position = np.zeros(n_out)
        np.divide(self.errors_at, 2 * symbols_at, out=per_position, where=symbols_at > 0)
        n_bits = 2 * n_symbols
        return BerReport(
            ber=self.n_bit_errors / n_bits if n_bits else 0.0,
            ser=self.n_symbol_errors / n_symbols if n_symbols else 0.0,
            n_bits=n_bits,
            n_bit_errors=self.n_bit_errors,
            n_symbols=n_symbols,
            n_symbol_errors=self.n_symbol_errors,
            per_position_ber=per_position,
        )


def count_errors(
    pred_levels: np.ndarray, true_levels: np.ndarray, n_out: int = 1
) -> BerReport:
    """Count bit and symbol errors between aligned level sequences.

    Both sequences must already exclude guard symbols. Symbol i is
    attributed to position i mod n_out for the per-position breakdown,
    matching the stride of the multi-symbol readout. This is one
    :class:`ErrorTally` fed the whole sequences, which it counts in
    blocks of ``_BLOCK`` symbols.
    """
    tally = ErrorTally(n_out)
    tally.add(pred_levels, true_levels)
    return tally.report()


def snr_at_threshold(curve: BerSnrCurve, fec: FecThreshold | float) -> float:
    """SNR in dB where the curve crosses the FEC threshold.

    Interpolates linearly in (snr_db, log10 ber) on the first
    monotone-decreasing segment that brackets the threshold, scanning
    from low SNR. A point whose BER equals the threshold is returned
    directly. Segments whose endpoints are both floor flags carry no
    information and are skipped.
    """
    thr = fec.ber_threshold if isinstance(fec, FecThreshold) else float(fec)
    ber = curve.ber
    exact = np.flatnonzero(ber == thr)
    if exact.size:
        return float(curve.snr_db[exact[0]])
    bracketing = False
    for i in range(ber.size - 1):
        if not (ber[i] > thr > ber[i + 1]):
            continue
        bracketing = True
        if curve.floored[i] and curve.floored[i + 1]:
            continue
        lo, hi = np.log10(ber[i]), np.log10(ber[i + 1])
        t = (np.log10(thr) - lo) / (hi - lo)
        return float(curve.snr_db[i] + t * (curve.snr_db[i + 1] - curve.snr_db[i]))
    if bracketing or ber.min() < thr < ber.max():
        raise NonMonotone(
            "threshold lies inside the curve range but no usable "
            "decreasing segment brackets it"
        )
    raise NotBracketed(
        f"curve spans [{ber.min():.3g}, {ber.max():.3g}] and never crosses "
        f"{thr:.3g}; widen the SNR sweep"
    )


def snr_penalty(
    curve: BerSnrCurve, reference: BerSnrCurve, fec: FecThreshold | float
) -> float:
    """Extra SNR the curve needs over the reference at the threshold."""
    return snr_at_threshold(curve, fec) - snr_at_threshold(reference, fec)


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
