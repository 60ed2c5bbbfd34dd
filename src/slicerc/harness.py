"""Experiment configuration, seeded sweeps, and result emission.

A sweep is the Cartesian product of the fiber-length grid, the n_out
variant list, the SNR grid, and the seed list; a GridPoint holds one of
each and is the key of its record. It runs one task per
(fiber length, seed) frame with bounded parallelism: the noiseless link
runs once per frame, its noise is drawn once for all of its SNRs, and
every n_out of the frame reads those same observations, so a point adds
only its own training and scoring. The SNR points of one n_out share the
weight draw, so they train and equalize side by side as one batch, at
any frame length: the observations share the frame's rows and noise
draw, and the equalizer adds each one's scaled noise as it reads. Each
chunk of estimates is scored as the equalizer yields it, so a batch
never holds its estimates either.
Records always come back in deterministic grid order (lengths
outermost, then n_out, then SNR, then seeds) no matter how the frames
were scheduled, and a failed point becomes an error row instead of
aborting the sweep. A resume is pending_frames (the points an earlier
run's records leave), sweep_groups over them, and in_grid_order over the
old and new records together.
Every file the package writes goes through _replace_file, which writes a
sibling and moves it into place: a file on disk is always a whole
version, never one cut short by an interrupted write.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, make_dataclass
from datetime import datetime, timezone
from functools import cache
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .esn import EsnConfig, equalize_stream, fit_readout_batch, init_weights
from .link import (
    LinkConfig,
    SlicedObservation,
    SymbolFrame,
    check_filter_span,
    detect_frame,
    load_noise_batch,
    simulate_link,
)
from .metrics import (
    BerSnrCurve,
    ErrorTally,
    KP4_BER,
    NonMonotone,
    NotBracketed,
    ber_floor,
    complexity_rmps,
    hard_decision,
    snr_at_threshold,
)


class ConfigError(ValueError):
    """Configuration file could not be parsed or validated."""


# LinkConfig/EsnConfig fields that each grid point sets; every other
# field is shared by the whole sweep and read from the config file
_PER_POINT_LINK = {"fiber_length_km", "snr_db", "n_symbols", "seed"}
_PER_POINT_ESN = {"n_out", "sps", "num_slices", "seed"}


def _shared_params(name: str, cls: type, per_point: set[str], doc: str) -> type:
    """Frozen dataclass of ``cls``'s fields and defaults minus ``per_point``."""
    hints = get_type_hints(cls)
    shared = [(f.name, hints[f.name], field(default=f.default)) for f in fields(cls)
              if f.name not in per_point]
    # make_dataclass has no module= argument before Python 3.12, and
    # worker processes unpickle configs by module-qualified name
    return make_dataclass(name, shared, frozen=True, slots=True,
                          namespace={"__module__": __name__, "__doc__": doc})


LinkParams = _shared_params(
    "LinkParams", LinkConfig, _PER_POINT_LINK, "Link settings shared by every grid point."
)
EsnParams = _shared_params(
    "EsnParams", EsnConfig, _PER_POINT_ESN, "Equalizer settings shared by every grid point."
)


class GridPoint(NamedTuple):
    """One point of a sweep, and the key of its record."""

    fiber_length_km: float
    n_out: int
    snr_db: float
    seed: int


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One sweep: grids, seeds, scale, and the shared link/esn settings."""

    fiber_length_km: tuple[float, ...]
    snr_db: tuple[float, ...] = tuple(float(s) for s in range(8, 31))
    n_out: tuple[int, ...] = (1, 17, 23)
    seeds: tuple[int, ...] = (0,)
    total_symbols: int = 2**22
    train_fraction: float = 0.15
    label: str = "sweep"
    link: LinkParams = LinkParams()
    esn: EsnParams = EsnParams()

    def __post_init__(self) -> None:
        if not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.total_symbols < 1:
            raise ConfigError("total_symbols must be >= 1")
        for name in ("fiber_length_km", "snr_db", "n_out"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ConfigError(f"grid '{name}' must not be empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"grid '{name}' must be strictly increasing")
        if len(self.seeds) == 0:
            raise ConfigError("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be unique")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError("seeds must be non-negative")
        # run the link and equalizer validators and size every frame's
        # filter span and train/test split now, not once per point
        try:
            guards = {}
            for length in self.fiber_length_km:
                where = f"link at fiber_length_km={length}"
                link_cfg = self.link_config(
                    GridPoint(length, self.n_out[0], self.snr_db[0], self.seeds[0])
                )
                check_filter_span(link_cfg, self.total_symbols)
                guards[length] = link_cfg.guard_symbols
            for n_out in self.n_out:
                where = f"esn at n_out={n_out}"
                esn_cfg = self.esn_config(n_out, self.seeds[0])
                for length, guard in guards.items():
                    where = f"split at fiber_length_km={length}, n_out={n_out}"
                    _split(self, esn_cfg, guard)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    def link_config(self, point: GridPoint) -> LinkConfig:
        """Link settings of one grid point."""
        return LinkConfig(
            fiber_length_km=point.fiber_length_km,
            snr_db=point.snr_db,
            n_symbols=self.total_symbols,
            seed=point.seed,
            **asdict(self.link),
        )

    def esn_config(self, n_out: int, seed: int) -> EsnConfig:
        """Equalizer settings of one readout width under one seed."""
        return EsnConfig(
            n_out=n_out,
            sps=self.link.sps,
            num_slices=self.link.num_slices,
            seed=seed,
            **asdict(self.esn),
        )


@dataclass(slots=True)
class SweepRecord:
    """One row of a sweep: one grid point evaluated under one seed."""

    label: str
    seed: int
    snr_db: float
    fiber_length_km: float
    n_out: int
    n_res: int
    ber: float
    ser: float
    per_position_ber: tuple[float, ...]
    rmps: float
    train_symbols: int
    test_symbols: int
    wall_time_s: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.error == ""

    @property
    def key(self) -> GridPoint:
        return GridPoint(self.fiber_length_km, self.n_out, self.snr_db, self.seed)


# column name -> type, in column order; drives both writing and parsing
_RECORD_TYPES = get_type_hints(SweepRecord)


# scalar field type -> (YAML values it accepts, name used in errors)
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _coerce(value, hint, path: str):
    """Check one config value against its field type and convert it."""
    if get_origin(hint) is tuple:
        # a grid: a list, or a single value standing for a one-item list
        items = value if isinstance(value, list) else [value]
        return tuple(_coerce(v, get_args(hint)[0], path) for v in items)
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be a mapping")
        return _from_mapping(hint, value, f"{path}.")
    if hint not in _SCALARS:
        raise ConfigError(f"'{path}' has unsupported type")
    accepted, noun = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"'{path}' must be {noun}, got {value!r}")
    if hint is float and not math.isfinite(value):
        raise ConfigError(f"'{path}' must be finite, got {value!r}")
    return hint(value)


def _from_mapping(cls: type, data: dict, prefix: str):
    """Build dataclass ``cls`` from a mapping keyed by its field names."""
    hints = get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    for f in fields(cls):
        if f.default is MISSING and f.name not in data:
            raise ConfigError(f"missing required field '{prefix}{f.name}'")
    return cls(
        **{name: _coerce(value, hints[name], prefix + name) for name, value in data.items()}
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a plain mapping against the ExperimentConfig schema."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    return _from_mapping(ExperimentConfig, raw, "")


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a YAML experiment configuration."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"could not read '{path}': {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse '{path}': {exc}") from exc
    return config_from_dict({} if raw is None else raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-mapping form of a config; inverse of config_from_dict."""
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in asdict(cfg).items()
    }


def grid_points(cfg: ExperimentConfig) -> list[GridPoint]:
    """Deterministic sweep order: length, n_out, SNR, then seed."""
    return [
        GridPoint(length, n_out, snr, seed)
        for length in cfg.fiber_length_km
        for n_out in cfg.n_out
        for snr in cfg.snr_db
        for seed in cfg.seeds
    ]


def run_experiment(cfg: ExperimentConfig, point: GridPoint) -> SweepRecord:
    """Simulate, train, and evaluate one grid point.

    The frame is split into training and test regions by _split. Weights
    depend only on (topology, seed), so every SNR point of a sweep shares
    the same draw and retrains only the readout.
    """
    started = time.perf_counter()
    observation, frame = simulate_link(cfg.link_config(point))
    return _evaluate(cfg, [point], [observation], frame, time.perf_counter() - started)[0]


def _split(cfg: ExperimentConfig, esn_cfg: EsnConfig, guard: int) -> tuple[int, int, int, int]:
    """Training and test regions ``(train_first, train_last, test_first,
    test_last)`` of a sweep frame whose edges lose ``guard`` symbols each.

    The frame is split into a contiguous training prefix (train_fraction
    of the usable region), a k-symbol gap, and the test region; both
    regions exclude the dispersion guard at the frame edges. Raises
    ValueError unless the training region outlasts the washout and the
    test region holds a step.
    """
    usable = cfg.total_symbols - 2 * guard
    if usable < esn_cfg.m:
        raise ValueError("frame too short after guard discard")
    n_train = int(cfg.train_fraction * usable)
    train_first, train_last = guard, guard + n_train
    steps = n_train // esn_cfg.n_out
    if steps <= esn_cfg.washout:
        raise ValueError(f"washout must be smaller than the {steps} training steps")
    test_first = train_last + esn_cfg.k
    # scored windows must not hang off the burst end, so the test region
    # stops k symbols short of the guard boundary
    test_last = cfg.total_symbols - guard - esn_cfg.k
    if test_last - test_first < esn_cfg.n_out:
        raise ValueError("no test region left after the training split")
    return train_first, train_last, test_first, test_last


def _evaluate(
    cfg: ExperimentConfig,
    points: list[GridPoint],
    observations: list[SlicedObservation],
    frame: SymbolFrame,
    share: float,
) -> list[SweepRecord]:
    """Train and score points of one n_out as one batch, each on its
    noisy observation of the frame.

    The points share the frame and n_out, so they share the weight draw
    and run through one step stream; each record equals what its point
    gives alone. Each chunk of estimates is decided and counted as the
    stream yields it, so the batch never holds its estimates. A record's
    time is an equal share of the batch's time plus ``share``. The
    observations are read, never modified.
    """
    started = time.perf_counter()
    esn_cfg = cfg.esn_config(points[0].n_out, points[0].seed)
    train_first, train_last, test_first, test_last = _split(
        cfg, esn_cfg, observations[0].guard_symbols
    )
    weights = init_weights(esn_cfg)
    w_outs = fit_readout_batch(observations, frame, weights, esn_cfg, train_first, train_last)
    tallies = [ErrorTally(esn_cfg.n_out) for _ in observations]
    for start, estimates in equalize_stream(
        observations, frame, weights, w_outs, esn_cfg, test_first, test_last
    ):
        truth = frame.levels[start : start + estimates.shape[1]]
        for tally, row in zip(tallies, estimates):
            tally.add(hard_decision(row), truth)
    reports = [tally.report() for tally in tallies]
    n_train_steps = (train_last - train_first) // esn_cfg.n_out
    wall_time_s = (time.perf_counter() - started) / len(points) + share
    return [
        SweepRecord(
            label=cfg.label,
            seed=int(point.seed),
            snr_db=float(point.snr_db),
            fiber_length_km=float(point.fiber_length_km),
            n_out=int(point.n_out),
            n_res=int(esn_cfg.n_res),
            ber=float(report.ber),
            ser=float(report.ser),
            per_position_ber=tuple(float(v) for v in report.per_position_ber),
            rmps=float(complexity_rmps(esn_cfg)),
            train_symbols=int((n_train_steps - esn_cfg.washout) * esn_cfg.n_out),
            test_symbols=int(report.n_symbols),
            wall_time_s=wall_time_s,
        )
        for point, report in zip(points, reports)
    ]


def _error_row(cfg: ExperimentConfig, point: GridPoint, exc: Exception) -> SweepRecord:
    return SweepRecord(
        label=cfg.label, seed=int(point.seed), snr_db=float(point.snr_db),
        fiber_length_km=float(point.fiber_length_km), n_out=int(point.n_out),
        n_res=int(cfg.esn.n_res), ber=math.nan, ser=math.nan, per_position_ber=(),
        rmps=math.nan, train_symbols=0, test_symbols=0, wall_time_s=0.0,
        error=f"{type(exc).__name__}: {exc}",
    )


def _evaluate_or_split(
    cfg: ExperimentConfig,
    points: list[GridPoint],
    observations: list[SlicedObservation],
    frame: SymbolFrame,
    share: float,
) -> list[SweepRecord]:
    """_evaluate a batch; when it fails, rerun its points one at a time
    on the same observations so that each gets its own record or error
    row."""
    try:
        return _evaluate(cfg, points, observations, frame, share)
    except Exception as exc:
        if len(points) == 1:
            return [_error_row(cfg, points[0], exc)]
    # outside the except block, so the failed batch's intermediates are
    # freed before the reruns
    return [rec for point, observation in zip(points, observations)
            for rec in _evaluate_or_split(cfg, [point], [observation], frame, share)]


def _run_group(cfg: ExperimentConfig, points: list[GridPoint]) -> list[SweepRecord]:
    """Evaluate the points of one (fiber length, seed) frame.

    The noiseless front half of the link runs once and the noise of all
    the frame's pending SNRs is drawn once; every n_out of the frame then
    trains and equalizes its SNR points as one batch on those shared
    observations. Each point's wall_time_s adds an equal share of the
    front half and the draw. A failure becomes an error row for the
    points it hit, or for every point when the front half or the draw
    fails. Records come back in the order of ``points``.
    """
    started = time.perf_counter()
    snrs = list(dict.fromkeys(point.snr_db for point in points))
    try:
        link_cfg = cfg.link_config(points[0])
        rows, frame = detect_frame(link_cfg)
        observations = load_noise_batch(rows, link_cfg, snrs)
    except Exception as exc:
        return [_error_row(cfg, point, exc) for point in points]
    by_snr = dict(zip(snrs, observations))
    share = (time.perf_counter() - started) / len(points)
    records = []
    for _, group in groupby(points, key=lambda point: point.n_out):
        group = list(group)
        records += _evaluate_or_split(
            cfg, group, [by_snr[point.snr_db] for point in group], frame, share
        )
    return records


def pending_frames(
    cfg: ExperimentConfig, existing: Iterable[SweepRecord] = ()
) -> list[list[GridPoint]]:
    """Points still to run, one list per (fiber length, seed) frame, in
    grid order; points with a successful record in ``existing`` are left
    out, so error rows are retried."""
    done = {rec.key for rec in existing if rec.ok}
    frames: dict[tuple[float, int], list[GridPoint]] = {}
    for point in grid_points(cfg):
        if point not in done:
            frames.setdefault((point.fiber_length_km, point.seed), []).append(point)
    return list(frames.values())


def sweep_groups(
    cfg: ExperimentConfig, frames: list[list[GridPoint]], parallel: int
) -> Iterator[list[SweepRecord]]:
    """Yield the records of each frame of ``frames`` (as pending_frames
    gives them) as it finishes.

    With ``parallel`` > 1 the frames run as pool tasks and come back in
    completion order; if the pool breaks, every frame it did not finish
    comes back as error rows, which a resume retries. A ``parallel``
    below 1 raises ValueError here, before any frame runs.
    """
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    return _frame_groups(cfg, frames, parallel)


def _frame_groups(
    cfg: ExperimentConfig, frames: list[list[GridPoint]], parallel: int
) -> Iterator[list[SweepRecord]]:
    """The generator behind sweep_groups."""
    if parallel == 1 or len(frames) <= 1:
        yield from (_run_group(cfg, points) for points in frames)
        return
    with ProcessPoolExecutor(max_workers=min(parallel, len(frames))) as pool:
        futures = {pool.submit(_run_group, cfg, points): points for points in frames}
        for future in as_completed(futures):
            try:
                yield future.result()
            except BrokenProcessPool as exc:
                yield [_error_row(cfg, point, exc) for point in futures[future]]


def in_grid_order(cfg: ExperimentConfig, records: Iterable[SweepRecord]) -> list[SweepRecord]:
    """One record per key: the grid points that have a record, in grid
    order, then the keys outside the grid (rows of an earlier run over
    other grids or seeds) in the order they first appear. Grid points
    without a record (frames still to run) are left out.

    A successful record wins over an error row for the same point, and
    otherwise a later record wins over an earlier one.
    """
    best: dict[GridPoint, SweepRecord] = {}
    for rec in records:
        if rec.ok or rec.key not in best or not best[rec.key].ok:
            best[rec.key] = rec
    return [best.pop(point) for point in grid_points(cfg) if point in best] + list(best.values())


def run_sweep(cfg: ExperimentConfig, parallel: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point, in grid order.

    Each (fiber length, seed) frame is simulated once and shared by its
    n_out and SNR points.
    """
    groups = sweep_groups(cfg, pending_frames(cfg), parallel)
    return in_grid_order(cfg, [rec for group in groups for rec in group])


def _format_cell(value) -> str:
    if isinstance(value, tuple):
        return ";".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_cell(text: str, hint):
    if get_origin(hint) is tuple:
        return tuple(get_args(hint)[0](v) for v in text.split(";") if v)
    return hint(text)


def _csv_text(header: Iterable[str], rows: Iterable[list]) -> str:
    """RFC 4180 text of a header line and the rows under it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _replace_file(path: Path, text: str) -> Path:
    """Write ``text`` to a sibling of ``path`` and move it into place, so
    that an interrupted write leaves the old file whole. The one way the
    package writes a file."""
    partial = path.with_name(path.name + ".partial")
    partial.write_text(text, newline="")
    os.replace(partial, path)
    return path


def write_results(
    records: Iterable[SweepRecord], out_dir: str | Path, cfg: ExperimentConfig
) -> Path:
    """Replace manifest.json and results.csv (RFC 4180) in out_dir whole,
    creating the directory.

    The manifest goes first, so a results.csv always sits beside the
    config it was made under. A sweep calls this before its first frame
    runs and after every finished frame with in_grid_order of its records
    so far, so a stopped sweep leaves a whole file that a resume reads.
    """
    records, out = list(records), Path(out_dir)
    _write_manifest(out, cfg, records)
    rows = ([_format_cell(getattr(rec, col)) for col in _RECORD_TYPES] for rec in records)
    return _replace_file(out / "results.csv", _csv_text(_RECORD_TYPES, rows))


def _write_manifest(out: Path, cfg: ExperimentConfig, records: list[SweepRecord]) -> None:
    """Replace manifest.json in ``out``, creating the directory."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "package_version": _package_version(),
        "git_commit": _git_commit(),
        "n_records": len(records),
        "seeds": sorted({rec.seed for rec in records}),
        "environment": _environment(),
        "config": config_to_dict(cfg),
    }
    _replace_file(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def _environment() -> dict:
    """numpy, the BLAS it calls and the CPU count, so that the timings of
    runs on different machines can be told apart."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "cpu_count": os.cpu_count()}


def _package_version() -> str:
    from . import __version__

    return __version__


@cache
def _git_commit() -> str:
    """HEAD of the package's own checkout (the work tree whose top holds
    ``src/slicerc``), or "unknown". A copy of the package inside some
    other git work tree would otherwise report that tree's HEAD. Asked
    once per process: a sweep writes its manifest after every frame."""
    root = Path(__file__).resolve().parents[2]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split("\n")
    if out.returncode != 0 or len(lines) < 2 or Path(lines[0]).resolve() != root:
        return "unknown"
    return lines[1].strip()


def read_results(csv_path: str | Path) -> list[SweepRecord]:
    """Parse a results.csv back into records, exactly.

    A row with too few or too many cells, or a cell that does not parse
    as its column's type (a cut-short file ends in one), raises
    ``ValueError`` naming the file and the line.
    """
    records = []
    with Path(csv_path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(_RECORD_TYPES):
            raise ValueError(f"unexpected results.csv header in '{csv_path}'")
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError(f"want {len(_RECORD_TYPES)} cells")
                cells = {col: _parse_cell(row[col], hint) for col, hint in _RECORD_TYPES.items()}
            except ValueError as exc:
                raise ValueError(
                    f"malformed row in '{csv_path}' at line {reader.line_num}: {exc}"
                ) from None
            records.append(SweepRecord(**cells))
    return records


def series_curve(records: list[SweepRecord]) -> BerSnrCurve:
    """Median-across-seeds BER curve for records of one series.

    All records must share (fiber_length_km, n_out, n_res). A point is
    floor-flagged when at least half of its seeds saw zero errors.
    """
    ok = [r for r in records if r.ok]
    if not ok:
        raise ValueError("series has no successful records")
    curve_snr, curve_ber, curve_floor = [], [], []
    for snr in sorted({r.snr_db for r in ok}):
        group = [r for r in ok if r.snr_db == snr]
        effective = [max(r.ber, ber_floor(2 * r.test_symbols)) for r in group]
        curve_snr.append(snr)
        curve_ber.append(float(np.median(effective)))
        curve_floor.append(sum(r.ber == 0 for r in group) * 2 >= len(group))
    return BerSnrCurve(
        snr_db=np.array(curve_snr),
        ber=np.array(curve_ber),
        floored=np.array(curve_floor),
    )


# columns of each plot file, in the order emit_plot_data writes the files
_PLOT_COLUMNS = {
    "ber_vs_snr": ["fiber_length_km", "n_out", "n_res", "snr_db", "ber_median", "floored",
                   "n_seeds"],
    "snr_penalty": ["fiber_length_km", "n_out", "n_res", "snr_at_threshold_db", "penalty_db",
                    "note"],
    "complexity": ["n_out", "n_res", "rmps"],
    "per_position": ["fiber_length_km", "n_out", "n_res", "snr_db", "position", "ber_median",
                     "n_seeds"],
}


def emit_plot_data(
    records: list[SweepRecord],
    out_dir: str | Path,
    threshold: float = KP4_BER,
) -> dict[str, Path]:
    """Write the four plot-ready CSV files, each replacing its old
    version whole.

    ber_vs_snr.csv: median-seed BER per (length, n_out, n_res) series.
    snr_penalty.csv: SNR at threshold and penalty versus the n_out=1
    series at 0 km; series that never bracket the threshold are emitted
    with empty numbers and a note instead of being dropped silently.
    complexity.csv: multiplications per symbol per equalizer variant.
    per_position.csv: median-seed BER of each window position per series
    and SNR.

    All four come from one table of each series' records, curve and
    crossing (or the exception instead), built with the reference before
    any file is written: a failure leaves the directory as it was.
    """
    groups: dict[tuple, list[SweepRecord]] = {}
    for rec in records:
        if rec.ok:
            groups.setdefault((rec.fiber_length_km, rec.n_out, rec.n_res), []).append(rec)
    if not groups:
        raise ValueError("no successful records to plot")
    table: dict[tuple, tuple[list[SweepRecord], BerSnrCurve, float | Exception]] = {}
    for key, group in sorted(groups.items()):
        curve = series_curve(group)
        try:
            crossing = snr_at_threshold(curve, threshold)
        except (NotBracketed, NonMonotone) as exc:
            crossing = exc
        table[key] = (group, curve, crossing)
    references = [key for key in table if key[0] == 0.0 and key[1] == 1]
    if len(references) != 1:
        raise ValueError(
            "penalty reference requires exactly one n_out=1 series at 0 km, "
            f"found {len(references)}"
        )
    ref_snr = table[references[0]][2]
    if isinstance(ref_snr, Exception):
        raise ValueError(f"reference series unusable: {ref_snr}") from ref_snr

    rows = {name: [] for name in _PLOT_COLUMNS}
    for (length, n_out, n_res), (group, curve, crossing) in table.items():
        series = [repr(float(length)), n_out, n_res]
        for snr, ber, floored in zip(curve.snr_db, curve.ber, curve.floored):
            at_snr = [r for r in group if r.snr_db == snr]
            rows["ber_vs_snr"].append(series + [repr(float(snr)), repr(float(ber)), int(floored),
                                                len({r.seed for r in at_snr})])
            profiles = [r.per_position_ber for r in at_snr]
            for position, median in enumerate(np.median(profiles, axis=0)):
                rows["per_position"].append(series + [repr(float(snr)), position,
                                                      repr(float(median)), len(profiles)])
        if isinstance(crossing, Exception):
            rows["snr_penalty"].append(series + ["", "", type(crossing).__name__])
        else:
            rows["snr_penalty"].append(series + [repr(crossing), repr(crossing - ref_snr), ""])
    variants = sorted({(r.n_out, r.n_res, r.rmps) for r in records if r.ok})
    rows["complexity"] = [[n_out, n_res, repr(float(rmps))] for n_out, n_res, rmps in variants]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return {name: _replace_file(out / f"{name}.csv", _csv_text(columns, rows[name]))
            for name, columns in _PLOT_COLUMNS.items()}
