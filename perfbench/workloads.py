"""One timed round of each workload, and the checks run on it afterwards.

A round calls slicerc through its module attributes (``harness.run_sweep``,
``link.simulate_link``, ...), never through names bound at import, so the
traced run sees every call once the tracer has wrapped them.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from slicerc import esn, harness, link, metrics

import checks


@dataclass
class Outcome:
    """What one round did, and the checks to run on it after timing."""

    attempted: int
    failed: int
    symbols: int  # test symbols equalized and scored
    check: Callable[[dict], list[str]]


def _sweep_outcome(records, check) -> Outcome:
    ok = [r for r in records if not r.error]
    return Outcome(
        attempted=len(records),
        failed=len(records) - len(ok),
        symbols=sum(r.test_symbols for r in ok),
        check=check,
    )


def _csv_rows(path: Path) -> int:
    with path.open(newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def desk_sweep(cfg, out: Path) -> Outcome:
    records = harness.run_sweep(cfg, parallel=1)
    harness.write_results(records, out, cfg)
    back = harness.read_results(out / "results.csv")
    plots = harness.emit_plot_data(back, out)

    def check(cfg_dict: dict) -> list[str]:
        problems = checks.check_records(records, cfg_dict)
        problems += checks.check_paper_claim(records)
        if [asdict(r) for r in back] != [asdict(r) for r in records]:
            problems.append("read_results does not return the records written")
        n_series = len(cfg.fiber_length_km) * len(cfg.n_out)
        want_rows = {"ber_vs_snr": n_series * len(cfg.snr_db), "snr_penalty": n_series,
                     "complexity": len(cfg.n_out)}
        for key, rows in want_rows.items():
            if _csv_rows(plots[key]) != rows:
                problems.append(f"{plots[key].name}: {_csv_rows(plots[key])} rows, want {rows}")
        return problems

    return _sweep_outcome(records, check)


def multi_out_sweep(cfg, out: Path) -> Outcome:
    records = harness.run_sweep(cfg, parallel=1)
    csv_path = harness.write_results(records, out, cfg)

    def check(cfg_dict: dict) -> list[str]:
        problems = checks.check_records(records, cfg_dict)
        if _csv_rows(csv_path) != len(records):
            problems.append(f"results.csv holds {_csv_rows(csv_path)} rows, want {len(records)}")
        return problems

    return _sweep_outcome(records, check)


def reference_point(cfg, out: Path) -> Outcome:
    """README "Library use" flow on run_experiment's train/test split."""
    seed = cfg.seeds[0]
    n_out = cfg.n_out[0]
    link_cfg = link.LinkConfig(
        fiber_length_km=cfg.fiber_length_km[0],
        snr_db=cfg.snr_db[0],
        n_symbols=cfg.total_symbols,
        seed=seed,
        **asdict(cfg.link),
    )
    esn_cfg = esn.EsnConfig(
        n_out=n_out, sps=cfg.link.sps, num_slices=cfg.link.num_slices, seed=seed,
        **asdict(cfg.esn),
    )
    obs, frame = link.simulate_link(link_cfg)
    guard = obs.guard_symbols
    train_last = guard + int(cfg.train_fraction * (frame.n_symbols - 2 * guard))
    test_first = train_last + esn_cfg.k
    test_last = frame.n_symbols - guard - esn_cfg.k
    weights = esn.init_weights(esn_cfg)
    weights.w_out = esn.fit_readout(obs, frame, weights, esn_cfg, guard, train_last)
    estimates, first = esn.equalize(obs, frame, weights, esn_cfg, test_first, test_last)
    truth = frame.levels[first : first + estimates.size].copy()
    report = metrics.count_errors(metrics.hard_decision(estimates), truth, n_out)

    def check(cfg_dict: dict) -> list[str]:
        want = checks.split(cfg.total_symbols, cfg.fiber_length_km[0], n_out, cfg_dict)
        problems = []
        if (first, train_last) != (want["test_first"], want["train_last"]):
            problems.append(f"split starts test at {first}, want {want['test_first']}")
        problems += checks.check_reference(estimates, truth, n_out, report, want["test_symbols"])
        return problems

    return Outcome(attempted=1, failed=0, symbols=int(report.n_symbols), check=check)


ROUNDS = {
    "desk_sweep": desk_sweep,
    "multi_out_sweep": multi_out_sweep,
    "reference_point": reference_point,
}
