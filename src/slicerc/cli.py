"""Command line front end.

Subcommands: simulate (one grid point), sweep (full grid to a results
directory), complexity (multiplications-per-symbol table), plotdata
(results.csv to plot-ready CSVs). Exit codes: 0 success, 1 for
configuration or validation problems, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback
from pathlib import Path

from .esn import EsnConfig, init_weights
from .harness import (
    ConfigError,
    ExperimentConfig,
    GridPoint,
    config_to_dict,
    emit_plot_data,
    in_grid_order,
    load_config,
    pending_frames,
    read_results,
    run_experiment,
    sweep_groups,
    write_results,
)
from .metrics import KP4_BER, complexity_rmps, executed_rmps


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    changes = {}
    if args.seed is not None:
        changes["seeds"] = (args.seed,)
    if args.symbols is not None:
        changes["total_symbols"] = args.symbols
    return dataclasses.replace(cfg, **changes) if changes else cfg


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    rec = run_experiment(
        cfg, GridPoint(cfg.fiber_length_km[0], cfg.n_out[0], cfg.snr_db[0], cfg.seeds[0])
    )
    print(
        f"fiber_length_km={rec.fiber_length_km} n_out={rec.n_out} "
        f"n_res={rec.n_res} snr_db={rec.snr_db} seed={rec.seed}"
    )
    print(
        f"ber={rec.ber:.6g} ser={rec.ser:.6g} "
        f"test_symbols={rec.test_symbols} train_symbols={rec.train_symbols}"
    )
    print("per_position_ber=" + ";".join(f"{v:.6g}" for v in rec.per_position_ber))
    print(f"rmps={rec.rmps:.6g} wall_time_s={rec.wall_time_s:.2f}")
    return 0


def _check_resumable(cfg: ExperimentConfig, out: Path) -> None:
    """Refuse to resume over results made under other settings.

    The grids (lists) and seeds only choose which points run; every
    other setting changes a point's numbers or, for the label, its rows.
    """
    manifest = out / "manifest.json"
    prior = json.loads(manifest.read_text()).get("config") if manifest.exists() else None
    if prior is None:
        raise ConfigError(f"cannot resume '{out}': its manifest.json holds no config")
    changed = [key for key, value in config_to_dict(cfg).items()
               if not isinstance(value, list) and prior.get(key) != value]
    if changed:
        raise ConfigError(f"cannot resume '{out}': {', '.join(changed)} changed since its run")


def _cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out = Path(args.out)
    csv_path = out / "results.csv"
    records = []
    if csv_path.exists():
        _check_resumable(cfg, out)
        records = read_results(csv_path)
        print(f"resuming: {sum(r.ok for r in records)} completed points found")
    frames = pending_frames(cfg, records)
    # checks its arguments before anything is written
    groups = sweep_groups(cfg, frames, args.parallel)
    # the manifest and the rows so far are replaced whole before any point
    # runs and after every frame, so a stopped sweep leaves whole files
    # in grid order that a resume reads
    records = in_grid_order(cfg, records)
    path = write_results(records, out, cfg)
    failed = 0
    started = time.monotonic()
    for done, group in enumerate(groups, 1):
        records = in_grid_order(cfg, records + group)
        write_results(records, out, cfg)
        failed += sum(not r.ok for r in group)
        elapsed = time.monotonic() - started
        print(
            f"frame {done}/{len(frames)} done, {failed} failed points so far, "
            f"eta {elapsed / done * (len(frames) - done):.0f} s",
            file=sys.stderr,
            flush=True,
        )
    print(f"wrote {path} ({len(records)} records, {sum(not r.ok for r in records)} failed)")
    return 0


def _cmd_complexity(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        esn_cfgs = [cfg.esn_config(n, cfg.seeds[0]) for n in args.n_out or cfg.n_out]
    else:
        esn_cfgs = [EsnConfig(n_out=n) for n in args.n_out or [1, 17, 23]]
    print(f"{'n_out':>6} {'rmps':>12} {'nonzero':>12} {'dense':>12}")
    for esn_cfg in esn_cfgs:
        needed, dense = executed_rmps(init_weights(esn_cfg), esn_cfg)
        print(f"{esn_cfg.n_out:>6} {complexity_rmps(esn_cfg):>12.4f} {needed:>12.4f} {dense:>12.4f}")
    return 0


def _cmd_plotdata(args) -> int:
    results = Path(args.results) if args.results else Path(args.out) / "results.csv"
    records = read_results(results)
    paths = emit_plot_data(records, args.out, args.threshold)
    for name, path in paths.items():
        print(f"wrote {path}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicerc",
        description="Sliced-spectrum PAM4 link with a reservoir equalizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the first grid point and print its report")
    p.add_argument("--config", required=True, help="YAML experiment file")
    p.add_argument("--seed", type=int, default=None, help="override the seed list")
    p.add_argument("--symbols", type=int, default=None, help="override total_symbols")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="run the full grid into a results directory")
    p.add_argument("--config", required=True, help="YAML experiment file")
    p.add_argument("--out", required=True, help="results directory (resumable)")
    p.add_argument("--seed", type=int, default=None, help="override the seed list")
    p.add_argument("--symbols", type=int, default=None, help="override total_symbols")
    p.add_argument("--parallel", type=int, default=1, help="worker processes")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "complexity",
        help="print multiplications per symbol: the formula, the nonzero and the dense count",
    )
    p.add_argument("--config", default=None, help="optional YAML experiment file")
    p.add_argument(
        "--n-out",
        type=lambda s: [int(v) for v in s.split(",")],
        default=None,
        help="comma-separated n_out list (default 1,17,23 or the config grid)",
    )
    p.set_defaults(handler=_cmd_complexity)

    p = sub.add_parser("plotdata", help="turn results.csv into plot-ready CSVs")
    p.add_argument("--out", required=True, help="directory holding results.csv; plot CSVs land here")
    p.add_argument("--results", default=None, help="explicit results.csv path")
    p.add_argument("--threshold", type=float, default=KP4_BER)
    p.set_defaults(handler=_cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; that is a validation error here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ConfigError, ValueError, FileExistsError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
