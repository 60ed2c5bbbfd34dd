"""Sweep orchestration tests, kept at toy scale so they stay fast."""

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import slicerc
from slicerc import esn, harness
from slicerc.cli import main as cli_main
from slicerc.esn import EsnConfig, equalize
from slicerc.harness import (
    ConfigError,
    EsnParams,
    ExperimentConfig,
    GridPoint,
    LinkParams,
    SweepRecord,
    config_from_dict,
    config_to_dict,
    emit_plot_data,
    grid_points,
    in_grid_order,
    load_config,
    pending_frames,
    read_results,
    run_experiment,
    run_sweep,
    series_curve,
    sweep_groups,
    write_results,
)
from slicerc.link import detect_frame, load_noise_batch
from slicerc.metrics import ber_floor, complexity_rmps, count_errors, hard_decision


def toy_config(**kw) -> ExperimentConfig:
    base = dict(
        fiber_length_km=(0.0,),
        snr_db=(30.0,),
        n_out=(1,),
        seeds=(0,),
        total_symbols=2048,
        esn=EsnParams(washout=2),
        label="toy",
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------ config

def test_empty_config_names_missing_field(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="fiber_length_km"):
        load_config(path)


def test_minimal_config_fills_defaults(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("fiber_length_km: [0, 10, 30, 50]\n")
    cfg = load_config(path)
    assert cfg.fiber_length_km == (0.0, 10.0, 30.0, 50.0)
    assert cfg.snr_db == tuple(float(s) for s in range(8, 31))
    assert cfg.n_out == (1, 17, 23)
    assert cfg.total_symbols == 2**22
    assert cfg.train_fraction == 0.15
    assert cfg.link == LinkParams()
    assert cfg.esn == EsnParams()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key 'snr'"):
        config_from_dict({"fiber_length_km": [0], "snr": [10]})
    with pytest.raises(ConfigError, match="esn.n_nodes"):
        config_from_dict({"fiber_length_km": [0], "esn": {"n_nodes": 10}})


def test_type_errors_name_the_field():
    with pytest.raises(ConfigError, match="snr_db"):
        config_from_dict({"fiber_length_km": [0], "snr_db": ["high"]})
    with pytest.raises(ConfigError, match="total_symbols"):
        config_from_dict({"fiber_length_km": [0], "total_symbols": 2.5})
    # the LinkConfig/EsnConfig validators run at load, for every grid value
    with pytest.raises(ConfigError, match="rolloff"):
        config_from_dict({"fiber_length_km": [0], "link": {"rolloff": 2.0}})
    # 2k+1 = 23 outputs at most under the default k=11
    with pytest.raises(ConfigError, match="n_out=30"):
        config_from_dict({"fiber_length_km": [0], "n_out": [1, 30]})
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"fiber_length_km": [0], "seeds": [0, -1]})
    # a range check such as "x < 0" lets NaN through, so a non-finite
    # number is refused where it enters, with its dotted path
    for raw, path in (
        ({"esn": {"spectral_radius": math.nan}}, "esn.spectral_radius"),
        ({"esn": {"ridge_lambda": math.nan}}, "esn.ridge_lambda"),
        ({"esn": {"input_scaling": math.inf}}, "esn.input_scaling"),
        ({"snr_db": [math.nan]}, "snr_db"),
        ({"fiber_length_km": [math.inf]}, "fiber_length_km"),
    ):
        with pytest.raises(ConfigError, match=f"'{path}' must be finite"):
            config_from_dict({"fiber_length_km": [0], **raw})


def test_grid_ordering_enforced():
    with pytest.raises(ConfigError, match="strictly increasing"):
        config_from_dict({"fiber_length_km": [10, 0]})
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"fiber_length_km": [0], "seeds": [1, 1]})


def test_config_roundtrip(tmp_path):
    cfg = toy_config(
        fiber_length_km=(0.0, 10.0),
        snr_db=(8.0, 9.0),
        n_out=(1, 17),
        seeds=(0, 1),
        link=LinkParams(num_slices=2),
        esn=EsnParams(ridge_lambda=1e-3, washout=2),
    )
    path = tmp_path / "round.yaml"
    path.write_text(yaml.safe_dump(config_to_dict(cfg)))
    assert load_config(path) == cfg
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_malformed_yaml_reports_parse_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("fiber_length_km: [0\n")
    with pytest.raises(ConfigError, match="could not parse"):
        load_config(path)


# ------------------------------------------------------------- experiments

def test_run_experiment_deterministic():
    cfg = toy_config()
    point = GridPoint(0.0, 1, 30.0, 0)
    a = run_experiment(cfg, point)
    b = run_experiment(cfg, point)
    assert a.ber == b.ber
    assert a.ser == b.ser
    assert a.per_position_ber == b.per_position_ber
    assert a.test_symbols == b.test_symbols


def test_record_carries_complexity_of_its_variant():
    cfg = toy_config(n_out=(3,))
    rec = run_experiment(cfg, GridPoint(0.0, 3, 30.0, 0))
    assert rec.rmps == complexity_rmps(
        EsnConfig(n_out=3, washout=2, seed=0)
    )


def test_sweep_cardinality_and_order():
    cfg = toy_config(
        snr_db=(26.0, 27.0, 28.0, 29.0, 30.0),
        n_out=(1, 3, 5),
        seeds=(0, 1),
    )
    records = run_sweep(cfg)
    assert len(records) == 30
    assert [r.key for r in records] == grid_points(cfg)


def test_sweep_records_independent_of_parallelism():
    cfg = toy_config(snr_db=(29.0, 30.0), seeds=(0, 1))
    serial = run_sweep(cfg, parallel=1)
    pooled = run_sweep(cfg, parallel=2)
    for a, b in zip(serial, pooled):
        assert a.ber == b.ber
        assert a.ser == b.ser
        assert a.per_position_ber == b.per_position_ber


def _resume(cfg, existing):
    """The CLI's resume: run the frames ``existing`` leaves pending, then
    put the old and new records in grid order."""
    groups = sweep_groups(cfg, pending_frames(cfg, existing), 1)
    return in_grid_order(cfg, existing + [rec for group in groups for rec in group])


def test_sweep_resume_skips_completed_points():
    cfg = toy_config(snr_db=(29.0, 30.0))
    first = run_sweep(cfg)
    # poison one completed record; a resumed sweep must trust it on key
    # match instead of recomputing
    poisoned = replace(first[0], ber=0.123)
    resumed = _resume(cfg, [poisoned])
    assert resumed[0].ber == 0.123
    assert resumed[1].ber == first[1].ber


def test_sweep_retries_error_rows():
    cfg = toy_config()
    failed = SweepRecord(
        label="toy", seed=0, snr_db=30.0, fiber_length_km=0.0, n_out=1,
        n_res=30, ber=math.nan, ser=math.nan, per_position_ber=(),
        rmps=math.nan, train_symbols=0, test_symbols=0, wall_time_s=0.0,
        error="ValueError: boom",
    )
    records = _resume(cfg, [failed])
    assert records[0].ok
    assert records[0].ber == records[0].ber  # not nan


def _break_readout(monkeypatch, n_out):
    """Make the sweep's readout training raise for points of one n_out."""
    real = harness.fit_readout_batch

    def broken(observations, frame, w, esn_cfg, *args):
        if esn_cfg.n_out == n_out:
            raise RuntimeError(f"readout at n_out={n_out} broke")
        return real(observations, frame, w, esn_cfg, *args)

    monkeypatch.setattr(harness, "fit_readout_batch", broken)


def test_failing_point_becomes_error_row(monkeypatch):
    _break_readout(monkeypatch, 1)
    records = run_sweep(toy_config())
    assert len(records) == 1
    assert not records[0].ok
    assert "n_out=1 broke" in records[0].error
    assert math.isnan(records[0].ber)


def _without_wall_time(records):
    return [{k: v for k, v in asdict(r).items() if k != "wall_time_s"} for r in records]


def _counting_front_half(monkeypatch):
    calls = []
    real = harness.detect_frame

    def counted(link_cfg):
        calls.append((link_cfg.fiber_length_km, link_cfg.seed))
        return real(link_cfg)

    monkeypatch.setattr(harness, "detect_frame", counted)
    return calls


# SHA-256 of this grid's results.csv without its wall_time_s column, as
# produced when every point simulated its own link; a change to the
# numbers of any point changes it
GOLDEN_GRID_SHA256 = "fc769ab9e3f48df4e5b292ca55d0b349208ea9cc8fa0ff99bee977ec9a8e2ac8"


def test_sweep_shares_each_frame_and_matches_single_points(tmp_path, monkeypatch):
    cfg = toy_config(
        fiber_length_km=(0.0, 10.0), snr_db=(10.0, 14.0), n_out=(1, 17), seeds=(0, 1),
        total_symbols=8192,
    )
    single = [run_experiment(cfg, p) for p in grid_points(cfg)]
    calls = _counting_front_half(monkeypatch)
    serial = run_sweep(cfg, parallel=1)
    assert sorted(calls) == [(0.0, 0), (0.0, 1), (10.0, 0), (10.0, 1)]
    monkeypatch.undo()
    pooled = run_sweep(cfg, parallel=2)
    assert all(r.ok for r in single)
    assert _without_wall_time(serial) == _without_wall_time(single)
    assert _without_wall_time(pooled) == _without_wall_time(single)

    write_results(serial, tmp_path, cfg)
    with (tmp_path / "results.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    buf = io.StringIO()
    csv.writer(buf).writerows(row[:drop] + row[drop + 1 :] for row in rows)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_GRID_SHA256


def test_failures_stay_per_point_inside_a_frame(monkeypatch):
    _break_readout(monkeypatch, 17)
    records = run_sweep(toy_config(n_out=(1, 17), snr_db=(20.0, 30.0), total_symbols=4096))
    assert [(r.n_out, r.ok) for r in records] == [(1, True), (1, True), (17, False), (17, False)]
    assert all("n_out=17 broke" in r.error for r in records[2:])


def test_front_half_failure_fails_every_point_of_its_frame(monkeypatch):
    real = harness.detect_frame

    def fail_at_10_km(link_cfg):
        if link_cfg.fiber_length_km == 10.0:
            raise RuntimeError("front half broke")
        return real(link_cfg)

    monkeypatch.setattr(harness, "detect_frame", fail_at_10_km)
    cfg = toy_config(fiber_length_km=(0.0, 10.0), n_out=(1, 3), snr_db=(29.0, 30.0))
    records = run_sweep(cfg)
    assert len(records) == 8
    for rec in records:
        if rec.fiber_length_km == 10.0:
            assert rec.error == "RuntimeError: front half broke"
        else:
            assert rec.ok


def test_wall_time_includes_a_share_of_the_front_half(monkeypatch):
    real = harness.detect_frame
    pause = 0.4

    def slow(link_cfg):
        time.sleep(pause)
        return real(link_cfg)

    monkeypatch.setattr(harness, "detect_frame", slow)
    cfg = toy_config(n_out=(1, 3), snr_db=(29.0, 30.0))
    started = time.perf_counter()
    records = run_sweep(cfg)
    elapsed = time.perf_counter() - started
    assert all(r.wall_time_s >= pause / 4 for r in records)
    total = sum(r.wall_time_s for r in records)
    assert pause <= total <= elapsed


def _counting_batches(monkeypatch):
    sizes = []
    real = harness.fit_readout_batch

    def counted(observations, *args, **kwargs):
        sizes.append(len(observations))
        return real(observations, *args, **kwargs)

    monkeypatch.setattr(harness, "fit_readout_batch", counted)
    return sizes


def test_snr_points_share_one_batch_per_frame_and_n_out(monkeypatch):
    # no byte budget splits a frame's SNRs: the batch of each (frame,
    # n_out) holds all of its SNR points at either frame length
    sizes = _counting_batches(monkeypatch)
    for total_symbols in (2048, 8192):
        cfg = toy_config(n_out=(1, 3), snr_db=(28.0, 29.0, 30.0), seeds=(0, 1),
                         total_symbols=total_symbols)
        sizes.clear()
        batched = run_sweep(cfg)
        assert sizes == [3] * 4
        alone = [run_experiment(cfg, p) for p in grid_points(cfg)]
        assert _without_wall_time(batched) == _without_wall_time(alone)


@pytest.mark.parametrize("n_out", [1, 17, 23])
def test_streamed_scores_equal_scores_of_the_whole_estimates(monkeypatch, n_out):
    # 64-step chunks, so the test region streams through several of them
    monkeypatch.setattr(esn, "_CHUNK_STEPS", 64)
    cfg = toy_config(fiber_length_km=(10.0,), n_out=(n_out,), snr_db=(6.0, 8.0, 10.0),
                     total_symbols=8192)
    points = [GridPoint(10.0, n_out, snr, 0) for snr in cfg.snr_db]
    link_cfg = cfg.link_config(points[0])
    rows, frame = detect_frame(link_cfg)
    observations = load_noise_batch(rows, link_cfg, list(cfg.snr_db))
    streams = []
    real = harness.equalize_stream

    def recorded(*args):
        streams.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "equalize_stream", recorded)
    records = harness._evaluate(cfg, points, observations, frame, 0.0)
    ((observations, frame, weights, w_outs, esn_cfg, first_target, last_target),) = streams
    assert len(records) == len(observations) == 3
    for rec, obs, w_out in zip(records, observations, w_outs):
        row, first = equalize(obs, frame, replace(weights, w_out=w_out), esn_cfg,
                              first_target, last_target)
        truth = frame.levels[first : first + row.size]
        report = count_errors(hard_decision(row), truth, n_out)
        assert report.n_bit_errors > 0
        assert (rec.ber, rec.ser, rec.test_symbols, rec.per_position_ber) == (
            report.ber, report.ser, report.n_symbols, tuple(report.per_position_ber))


def test_a_point_failing_inside_a_batch_gets_its_own_error_row(monkeypatch):
    cfg = toy_config(n_out=(1, 3), snr_db=(28.0, 29.0, 30.0))
    clean = run_sweep(cfg)
    real_load, real_fit = harness.load_noise_batch, harness.fit_readout_batch
    broken = []

    def mark_29_db(rows, link_cfg, snrs):
        observations = real_load(rows, link_cfg, snrs)
        broken.extend(obs for obs, snr in zip(observations, snrs) if snr == 29.0)
        return observations

    def fail_at_29_db(observations, *args, **kwargs):
        if any(obs is bad for obs in observations for bad in broken):
            raise RuntimeError("training broke")
        return real_fit(observations, *args, **kwargs)

    monkeypatch.setattr(harness, "load_noise_batch", mark_29_db)
    monkeypatch.setattr(harness, "fit_readout_batch", fail_at_29_db)
    records = run_sweep(cfg)
    assert [r.key for r in records] == [r.key for r in clean]
    for rec, ref in zip(records, clean):
        if rec.snr_db == 29.0:
            assert rec.error == "RuntimeError: training broke"
        else:
            assert _without_wall_time([rec]) == _without_wall_time([ref])


def test_noise_draw_failure_fails_every_point_of_its_frame(monkeypatch):
    real = harness.load_noise_batch

    def fail_at_seed_1(rows, link_cfg, snrs):
        if link_cfg.seed == 1:
            raise RuntimeError("noise broke")
        return real(rows, link_cfg, snrs)

    monkeypatch.setattr(harness, "load_noise_batch", fail_at_seed_1)
    cfg = toy_config(n_out=(1, 3), snr_db=(29.0, 30.0), seeds=(0, 1))
    records = run_sweep(cfg)
    assert len(records) == 8
    for rec in records:
        assert rec.ok == (rec.seed == 0)
        if rec.seed == 1:
            assert rec.error == "RuntimeError: noise broke"


def test_each_frame_loads_its_noise_once_for_every_n_out(monkeypatch):
    cfg = toy_config(n_out=(1, 3), snr_db=(28.0, 29.0, 30.0), seeds=(0, 1))
    alone = [run_experiment(cfg, p) for p in grid_points(cfg)]
    loads = []
    real = harness.load_noise_batch

    def counted(rows, link_cfg, snrs):
        loads.append((link_cfg.seed, list(snrs)))
        return real(rows, link_cfg, snrs)

    monkeypatch.setattr(harness, "load_noise_batch", counted)
    records = run_sweep(cfg)
    # one load per frame serves both n_out; a load per point would make 12
    assert loads == [(0, [28.0, 29.0, 30.0]), (1, [28.0, 29.0, 30.0])]
    assert _without_wall_time(records) == _without_wall_time(alone)


def test_sweep_memory_does_not_grow_with_the_snr_count():
    # peak RSS growth of a fresh process running one 2^19-symbol frame at
    # n_out 17: six SNR points may take less than one more copy of the
    # frame's rows than one SNR point does
    script = (
        "import json, resource, sys\n"
        "from slicerc.harness import ExperimentConfig, run_sweep\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "snrs = tuple(float(s) for s in range(10, 10 + int(sys.argv[1])))\n"
        "cfg = ExperimentConfig(fiber_length_km=(10.0,), snr_db=snrs, n_out=(17,),\n"
        "                       total_symbols=2**19)\n"
        "assert all(rec.ok for rec in run_sweep(cfg))\n"
        "grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) * 1024\n"
        "rows = cfg.link.num_slices * cfg.total_symbols * cfg.link.sps * 8\n"
        "print(json.dumps({'grown': grown, 'rows': rows}))\n"
    )
    src = str(Path(slicerc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    got = {}
    for n_snr in (1, 6):
        proc = subprocess.run([sys.executable, "-c", script, str(n_snr)], capture_output=True,
                              text=True, env=env, check=True)
        got[n_snr] = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got[6]["grown"] - got[1]["grown"] < got[1]["rows"], got


def test_scoring_a_frame_does_not_hold_its_estimates():
    # peak RSS growth of a fresh process while one 2^19-symbol frame at
    # 12 SNRs, n_out 17, is equalized and scored, above the peak its
    # training reached. Holding the (12, test symbols) float64 estimates
    # grows it by about their size (42.7 MB); scoring chunk by chunk
    # grows it by almost nothing, and the bound is half their size. The
    # bound does not depend on n_out, and n_out 17 folds 17x fewer steps
    script = (
        "import json, resource\n"
        "from slicerc import harness\n"
        "def peak():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
        "trained = []\n"
        "def fit(*args):\n"
        "    w_outs = real_fit(*args)\n"
        "    trained.append(peak())\n"
        "    return w_outs\n"
        "real_fit, harness.fit_readout_batch = harness.fit_readout_batch, fit\n"
        "cfg = harness.ExperimentConfig(fiber_length_km=(10.0,), n_out=(17,),\n"
        "    snr_db=tuple(float(s) for s in range(8, 20)), total_symbols=2**19)\n"
        "records = harness.run_sweep(cfg)\n"
        "assert all(rec.ok for rec in records) and len(trained) == 1\n"
        "estimates = sum(rec.test_symbols for rec in records) * 8\n"
        "print(json.dumps({'grown': peak() - trained[0], 'estimates': estimates}))\n"
    )
    src = str(Path(slicerc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["grown"] < got["estimates"] / 2, got


def test_broken_pool_turns_unfinished_frames_into_error_rows(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched front half reaches pool workers only when they fork")
    cfg = toy_config(fiber_length_km=(0.0, 10.0), snr_db=(29.0, 30.0), seeds=(0, 1))
    parent = os.getpid()
    real = harness.detect_frame

    def worker_dies_at_10_km(link_cfg):
        if link_cfg.fiber_length_km == 10.0 and os.getpid() != parent:
            os._exit(1)
        return real(link_cfg)

    monkeypatch.setattr(harness, "detect_frame", worker_dies_at_10_km)
    records = run_sweep(cfg, parallel=2)
    assert len(records) == 8
    assert all(r.ok or r.error.startswith("BrokenProcessPool") for r in records)
    assert not any(r.ok for r in records if r.fiber_length_km == 10.0)
    monkeypatch.undo()
    # a resume retries the frames the pool did not finish
    resumed = _resume(cfg, records)
    assert _without_wall_time(resumed) == _without_wall_time(run_sweep(cfg))


# ---------------------------------------------------------------- results

def test_results_roundtrip(tmp_path):
    cfg = toy_config(snr_db=(29.0, 30.0))
    records = run_sweep(cfg)
    write_results(records, tmp_path, cfg)
    parsed = read_results(tmp_path / "results.csv")
    assert parsed == records


def test_zero_records_writes_header_only(tmp_path):
    write_results([], tmp_path, toy_config())
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("label,seed,snr_db")


def test_manifest_lists_every_seed(tmp_path):
    cfg = toy_config(seeds=(0, 3, 11), snr_db=(30.0,))
    records = run_sweep(cfg)
    write_results(records, tmp_path, cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == [0, 3, 11]
    assert manifest["n_records"] == 3
    assert manifest["config"]["label"] == "toy"


def test_read_results_rejects_foreign_header(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_results(path)


# ---------------------------------------------------------------- plotting

def synthetic_records():
    """Fabricated sweep: clean log-linear curves with a known geometry.

    n_out=1 curves cross KP4 near 11.3 dB at 0 km and 12.3 dB at 10 km;
    n_out=17 sits 0.5 dB to the right of n_out=1 at each length.
    """
    records = []
    for length, shift_l in ((0.0, 0.0), (10.0, 1.0)):
        for n_out, shift_v in ((1, 0.0), (17, 0.5)):
            rmps = complexity_rmps(EsnConfig(n_out=n_out))
            for snr in (8.0, 10.0, 12.0, 14.0):
                for seed in (0, 1):
                    eff = snr - shift_l - shift_v
                    ber = 10.0 ** (-eff / 3.1)
                    records.append(
                        SweepRecord(
                            label="synth", seed=seed, snr_db=snr,
                            fiber_length_km=length, n_out=n_out, n_res=30,
                            ber=ber, ser=2 * ber, per_position_ber=(ber,) * n_out,
                            rmps=rmps, train_symbols=1000, test_symbols=10000,
                            wall_time_s=0.1,
                        )
                    )
    return records


def test_emit_plot_data_files(tmp_path):
    paths = emit_plot_data(synthetic_records(), tmp_path)
    with paths["ber_vs_snr"].open() as fh:
        rows = list(csv.DictReader(fh))
    series = {(r["fiber_length_km"], r["n_out"]) for r in rows}
    assert len(series) == 4  # |lengths| x |n_out list|
    assert len(rows) == 16

    with paths["snr_penalty"].open() as fh:
        rows = list(csv.DictReader(fh))
    by_key = {(float(r["fiber_length_km"]), int(r["n_out"])): r for r in rows}
    # the reference series against itself at l=0 is the zero row
    assert float(by_key[(0.0, 1)]["penalty_db"]) == pytest.approx(0.0, abs=1e-12)
    assert float(by_key[(10.0, 1)]["penalty_db"]) == pytest.approx(1.0, abs=1e-9)
    assert float(by_key[(0.0, 17)]["penalty_db"]) == pytest.approx(0.5, abs=1e-9)
    assert float(by_key[(10.0, 17)]["penalty_db"]) == pytest.approx(1.5, abs=1e-9)

    with paths["complexity"].open() as fh:
        rows = list(csv.DictReader(fh))
    got = {int(r["n_out"]): float(r["rmps"]) for r in rows}
    assert got[1] == pytest.approx(691.0, abs=1e-9)
    assert got[17] == pytest.approx(1235.0 / 17.0, abs=1e-9)


def test_emit_plot_data_per_position_profiles(tmp_path):
    # seed 1 runs each position at three times seed 0's BER, and the
    # positions of a window at 1, 2, 3, ... times the point's BER
    records = [
        replace(r, per_position_ber=tuple((1 + 2 * r.seed) * (p + 1) * r.ber
                                          for p in range(r.n_out)))
        for r in synthetic_records()
    ]
    paths = emit_plot_data(records, tmp_path)
    with paths["per_position"].open() as fh:
        rows = list(csv.DictReader(fh))
    # 2 lengths x 4 SNRs x (1 + 17) positions
    assert len(rows) == 2 * 4 * (1 + 17)
    by_key = {
        (float(r["fiber_length_km"]), int(r["n_out"]), float(r["snr_db"]), int(r["position"])): r
        for r in rows
    }
    ber = next(r.ber for r in records
               if (r.fiber_length_km, r.n_out, r.snr_db) == (10.0, 17, 12.0))
    row = by_key[(10.0, 17, 12.0, 16)]
    # the median of two seeds is their mean: (1 + 3) / 2 * 17 * ber
    assert float(row["ber_median"]) == pytest.approx(2 * 17 * ber, rel=1e-12)
    assert (int(row["n_res"]), int(row["n_seeds"])) == (30, 2)
    positions = [int(r["position"]) for r in rows
                 if (float(r["fiber_length_km"]), int(r["n_out"]), float(r["snr_db"]))
                 == (0.0, 17, 8.0)]
    assert positions == list(range(17))


def test_emit_plot_data_notes_unbracketed_series(tmp_path):
    records = synthetic_records()
    for snr in (8.0, 10.0, 12.0, 14.0):
        records.append(
            SweepRecord(
                label="synth", seed=0, snr_db=snr, fiber_length_km=30.0,
                n_out=17, n_res=30, ber=0.4, ser=0.5, per_position_ber=(0.4,),
                rmps=complexity_rmps(EsnConfig(n_out=17)), train_symbols=1000,
                test_symbols=10000, wall_time_s=0.1,
            )
        )
    paths = emit_plot_data(records, tmp_path)
    with paths["snr_penalty"].open() as fh:
        rows = {
            (float(r["fiber_length_km"]), int(r["n_out"])): r
            for r in csv.DictReader(fh)
        }
    bad = rows[(30.0, 17)]
    assert bad["note"] == "NotBracketed"
    assert bad["penalty_db"] == ""


def test_emit_plot_data_requires_unique_reference(tmp_path):
    records = [r for r in synthetic_records() if not (r.fiber_length_km == 0.0 and r.n_out == 1)]
    with pytest.raises(ValueError, match="reference"):
        emit_plot_data(records, tmp_path)
    assert not list(tmp_path.glob("*.csv"))
    # a reference that never crosses the threshold writes nothing either
    flat = [replace(r, ber=0.4) if r.fiber_length_km == 0.0 and r.n_out == 1 else r
            for r in synthetic_records()]
    with pytest.raises(ValueError, match="reference series unusable"):
        emit_plot_data(flat, tmp_path / "new")
    assert not (tmp_path / "new").exists()
    # an earlier run's plot data stays as it was
    emit_plot_data(synthetic_records(), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    assert len(before) == 4
    with pytest.raises(ValueError, match="reference"):
        emit_plot_data(records, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")} == before


def test_cli_plotdata_that_fails_leaves_the_plot_files_as_they_were(tmp_path, capsys):
    write_results(synthetic_records(), tmp_path, toy_config())
    assert cli_main(["plotdata", "--out", str(tmp_path)]) == 0
    plots = ["ber_vs_snr.csv", "snr_penalty.csv", "complexity.csv", "per_position.csv"]
    before = {name: (tmp_path / name).read_bytes() for name in plots}
    for bad in ("0", "1", "nan"):
        assert cli_main(["plotdata", "--out", str(tmp_path), "--threshold", bad]) == 1
        assert "threshold must lie in (0, 1)" in capsys.readouterr().err
        assert {name: (tmp_path / name).read_bytes() for name in plots} == before
    # a series with one successful SNR has no curve; it sorts between the
    # 0 and 10 km series
    lone = replace(synthetic_records()[-1], fiber_length_km=5.0)
    write_results(synthetic_records() + [lone], tmp_path, toy_config())
    assert cli_main(["plotdata", "--out", str(tmp_path)]) == 1
    assert "two points" in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in plots} == before


def test_series_curve_medians_and_floors():
    base = dict(
        label="s", fiber_length_km=0.0, n_out=1, n_res=30,
        per_position_ber=(0.0,), rmps=691.0, train_symbols=10,
        test_symbols=1000, wall_time_s=0.0,
    )
    records = [
        SweepRecord(seed=0, snr_db=10.0, ber=1e-2, ser=2e-2, **base),
        SweepRecord(seed=1, snr_db=10.0, ber=3e-2, ser=4e-2, **base),
        SweepRecord(seed=2, snr_db=10.0, ber=2e-2, ser=3e-2, **base),
        SweepRecord(seed=0, snr_db=12.0, ber=0.0, ser=0.0, **base),
        SweepRecord(seed=1, snr_db=12.0, ber=1e-3, ser=1e-3, **base),
        SweepRecord(seed=2, snr_db=12.0, ber=0.0, ser=0.0, **base),
    ]
    curve = series_curve(records)
    assert curve.ber[0] == pytest.approx(2e-2)
    assert not curve.floored[0]
    # two of three seeds saw zero errors at 12 dB
    assert curve.floored[1]
    assert curve.ber[1] == pytest.approx(1.0 / (4.0 * 1000))
    # the same floor as a zero-error point of 2 * 1000 bits
    assert curve.ber[1] == ber_floor(2 * 1000)


# --------------------------------------------------------------------- cli

def test_cli_complexity_table(capsys):
    assert cli_main(["complexity"]) == 0
    out = capsys.readouterr().out
    assert "691" in out
    assert "72.6" in out


def test_cli_simulate_and_sweep(tmp_path, capsys):
    config = tmp_path / "toy.yaml"
    config.write_text(
        "fiber_length_km: [0]\n"
        "snr_db: [30]\n"
        "n_out: [1]\n"
        "seeds: [0]\n"
        "total_symbols: 2048\n"
        "esn: {washout: 2}\n"
    )
    assert cli_main(["simulate", "--config", str(config)]) == 0
    assert "ber=" in capsys.readouterr().out
    out_dir = tmp_path / "run"
    assert cli_main(["sweep", "--config", str(config), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "manifest.json").exists()
    # resuming reuses the completed point
    assert cli_main(["sweep", "--config", str(config), "--out", str(out_dir)]) == 0
    assert "resuming: 1 completed" in capsys.readouterr().out


def test_cli_simulate_writes_no_results_directory(tmp_path):
    # sweep is the one writer of a results directory; simulate only prints,
    # so it cannot replace a sweep's rows and manifest with its one point
    config = tmp_path / "toy.yaml"
    config.write_text(
        "fiber_length_km: [0]\n"
        "snr_db: [29, 30]\n"
        "n_out: [1]\n"
        "seeds: [0]\n"
        "total_symbols: 2048\n"
        "esn: {washout: 2}\n"
    )
    out_dir = tmp_path / "run"
    assert cli_main(["sweep", "--config", str(config), "--out", str(out_dir)]) == 0
    files = {name: (out_dir / name).read_bytes() for name in ("results.csv", "manifest.json")}
    simulate = ["simulate", "--config", str(config), "--out", str(out_dir), "--symbols", "4096"]
    assert cli_main(simulate) == 1
    assert {name: (out_dir / name).read_bytes() for name in files} == files


def test_cli_sweep_reports_progress_and_environment(tmp_path, capsys, monkeypatch):
    _break_readout(monkeypatch, 1)  # every point fails
    config = tmp_path / "toy.yaml"
    config.write_text(
        "fiber_length_km: [0, 10]\n"
        "snr_db: [30]\n"
        "n_out: [1]\n"
        "seeds: [0]\n"
        "total_symbols: 2048\n"
        "esn: {washout: 2}\n"
    )
    out_dir = tmp_path / "run"
    assert cli_main(["sweep", "--config", str(config), "--out", str(out_dir)]) == 0
    progress = [line for line in capsys.readouterr().err.splitlines() if line.startswith("frame ")]
    assert len(progress) == 2
    assert progress[0].startswith("frame 1/2 done, 1 failed points so far, eta ")
    assert progress[1] == "frame 2/2 done, 2 failed points so far, eta 0 s"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["environment"]["numpy"] == np.__version__
    assert manifest["environment"]["cpu_count"] == os.cpu_count()
    assert manifest["environment"]["blas"]
    assert "environment" not in manifest["config"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_manifest_commit_is_the_package_checkouts_own(tmp_path):
    def git(cwd, *args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=cwd, check=True, capture_output=True, text=True,
        ).stdout.strip()

    def commit_seen_by(checkout):
        shutil.copytree(
            Path(slicerc.__file__).parent, checkout / "src" / "slicerc",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        return subprocess.run(
            [sys.executable, "-c", "from slicerc import harness; print(harness._git_commit())"],
            env=env, check=True, capture_output=True, text=True,
        ).stdout.strip()

    # a copy inside another repository must not report that repository's HEAD
    outer = tmp_path / "outer"
    outer.mkdir()
    git(outer, "init", "-q")
    (outer / "README").write_text("another project\n")
    git(outer, "add", "README")
    git(outer, "commit", "-q", "-m", "other")
    assert commit_seen_by(outer / "vendor" / "copy") == "unknown"
    # a copy that is its own checkout reports its HEAD
    own = tmp_path / "own"
    own.mkdir()
    git(own, "init", "-q")
    (own / "README").write_text("slicerc\n")
    git(own, "add", "README")
    git(own, "commit", "-q", "-m", "own")
    assert commit_seen_by(own) == git(own, "rev-parse", "--short", "HEAD")


def test_cli_sweep_refuses_resume_under_other_settings(tmp_path, capsys):
    config = tmp_path / "toy.yaml"
    config.write_text(
        "fiber_length_km: [0]\n"
        "snr_db: [30]\n"
        "n_out: [1]\n"
        "seeds: [0]\n"
        "total_symbols: 2048\n"
        "esn: {washout: 2}\n"
    )
    out_dir = tmp_path / "run"
    sweep = ["sweep", "--config", str(config), "--out", str(out_dir)]
    assert cli_main(sweep) == 0
    results = (out_dir / "results.csv").read_bytes()
    capsys.readouterr()
    assert cli_main(sweep + ["--symbols", "4096"]) == 1
    assert "total_symbols" in capsys.readouterr().err
    assert (out_dir / "results.csv").read_bytes() == results
    # a new label would mix two labels in one results.csv
    relabelled = tmp_path / "relabelled.yaml"
    relabelled.write_text(config.read_text() + "label: other\n")
    assert cli_main(["sweep", "--config", str(relabelled), "--out", str(out_dir)]) == 1
    assert "label" in capsys.readouterr().err
    assert (out_dir / "results.csv").read_bytes() == results
    # the seed list only chooses which points run, so it may change
    assert cli_main(sweep + ["--seed", "1"]) == 0
    assert "resuming: 1 completed" in capsys.readouterr().out
    # a manifest that holds no config was not written by a sweep
    results = (out_dir / "results.csv").read_bytes()
    (out_dir / "manifest.json").write_text(json.dumps({"n_records": 2}))
    assert cli_main(sweep) == 1
    assert "holds no config" in capsys.readouterr().err
    assert (out_dir / "results.csv").read_bytes() == results


def test_cli_resume_keeps_rows_outside_the_new_grid(tmp_path, capsys):
    config = tmp_path / "toy.yaml"
    config.write_text(
        "fiber_length_km: [0]\n"
        "snr_db: [30]\n"
        "n_out: [1]\n"
        "seeds: [0]\n"
        "total_symbols: 2048\n"
        "esn: {washout: 2}\n"
    )
    out_dir = tmp_path / "run"
    sweep = ["sweep", "--config", str(config), "--out", str(out_dir)]
    assert cli_main(sweep) == 0
    (seed_0,) = read_results(out_dir / "results.csv")
    # the seed-0 row lies outside the seed-1 grid; it follows the grid's rows
    assert cli_main(sweep + ["--seed", "1"]) == 0
    records = read_results(out_dir / "results.csv")
    assert [r.seed for r in records] == [1, 0]
    assert records[1] == seed_0
    assert json.loads((out_dir / "manifest.json").read_text())["seeds"] == [0, 1]
    # back on the seed-0 grid, both rows are kept and the seed-0 one leads
    capsys.readouterr()
    assert cli_main(sweep) == 0
    assert "resuming: 2 completed" in capsys.readouterr().out
    assert read_results(out_dir / "results.csv") == [seed_0, records[0]]


def test_cli_final_rewrite_that_fails_keeps_the_appended_rows(tmp_path, monkeypatch):
    config = tmp_path / "toy.yaml"
    config.write_text(
        "fiber_length_km: [0]\n"
        "snr_db: [29, 30]\n"
        "n_out: [1]\n"
        "total_symbols: 2048\n"
        "esn: {washout: 2}\n"
    )
    real = harness._csv_rows

    def fail_on_the_rewrite(records, header):
        records = list(records)
        if header and records:  # only the final rewrite has both
            raise RuntimeError("interrupted while formatting")
        return real(records, header)

    monkeypatch.setattr(harness, "_csv_rows", fail_on_the_rewrite)
    out_dir = tmp_path / "run"
    assert cli_main(["sweep", "--config", str(config), "--out", str(out_dir)]) == 2
    appended = read_results(out_dir / "results.csv")
    assert [(r.snr_db, r.ok) for r in appended] == [(29.0, True), (30.0, True)]
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json", "results.csv"]


def test_cli_plotdata_from_results(tmp_path, capsys):
    write_results(synthetic_records(), tmp_path, toy_config())
    assert cli_main(["plotdata", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "ber_vs_snr.csv").exists()
    assert (tmp_path / "snr_penalty.csv").exists()
    assert (tmp_path / "complexity.csv").exists()
    assert (tmp_path / "per_position.csv").exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert cli_main(["simulate", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("fiber_length_km: [0]\nsnr: oops\n")
    assert cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "unknown key" in capsys.readouterr().err
    # values the link and equalizer reject stop the sweep before it starts
    base, small = "fiber_length_km: [0]\n", "n_out: [1]\ntotal_symbols: 4096\n"
    for text, field in (
        (base + "link: {rolloff: 2.0}\n", "rolloff"),
        (base + "n_out: [30]\n", "n_out"),
        # kept small, so a regression that runs the sweep ends quickly
        (base + "seeds: [0, -1]\nsnr_db: [30]\n" + small, "seeds"),
        # non-finite numbers are refused where they enter
        (base + "esn: {spectral_radius: .nan}\nsnr_db: [30]\n" + small, "esn.spectral_radius"),
        (base + "esn: {ridge_lambda: .nan}\nsnr_db: [30]\n" + small, "esn.ridge_lambda"),
        (base + "esn: {input_scaling: .inf}\nsnr_db: [30]\n" + small, "esn.input_scaling"),
        (base + "snr_db: [.nan]\n" + small, "snr_db"),
        ("fiber_length_km: [.inf]\nsnr_db: [30]\n" + small, "fiber_length_km"),
    ):
        bad.write_text(text)
        out_dir = tmp_path / "run"
        assert cli_main(["sweep", "--config", str(bad), "--out", str(out_dir)]) == 1
        assert field in capsys.readouterr().err
        assert not out_dir.exists()


def test_cli_sweep_refuses_frames_too_small_before_writing(tmp_path, capsys):
    config = tmp_path / "small.yaml"
    for text, reason in (
        ("fiber_length_km: [0]\ntotal_symbols: 100\n", "filter span"),
        # 105 training steps at 0 km, but 96 at 50 km, whose guard takes 30
        # symbols at each edge: fewer than the washout of 100
        ("fiber_length_km: [0, 50]\nn_out: [1]\ntotal_symbols: 700\n",
         "fiber_length_km=50.0, n_out=1: washout"),
    ):
        config.write_text(text)
        out_dir = tmp_path / "run"
        assert cli_main(["sweep", "--config", str(config), "--out", str(out_dir)]) == 1
        assert reason in capsys.readouterr().err
        assert not out_dir.exists()


def test_cli_sweep_refuses_parallel_below_one_before_writing(tmp_path, capsys):
    config = tmp_path / "toy.yaml"
    config.write_text("fiber_length_km: [0]\nsnr_db: [30]\nn_out: [1]\ntotal_symbols: 4096\n")
    out_dir = tmp_path / "run"
    args = ["sweep", "--config", str(config), "--out", str(out_dir), "--parallel", "0"]
    assert cli_main(args) == 1
    assert "parallel" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_sweep_survives_interruption(tmp_path, capsys):
    config = tmp_path / "four_frames.yaml"
    config.write_text(
        "fiber_length_km: [0, 10]\n"
        "snr_db: [10, 14]\n"
        "n_out: [1, 17]\n"
        "seeds: [0, 1]\n"
        "total_symbols: 16384\n"
        "esn: {washout: 20}\n"
    )
    stopped = tmp_path / "stopped"
    env = dict(os.environ, PYTHONPATH=str(Path(slicerc.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "slicerc.cli", "sweep", "--config", str(config),
         "--out", str(stopped)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    csv_path = stopped / "results.csv"
    deadline = time.monotonic() + 120
    try:
        # stop as soon as the first frame's rows are on disk
        while proc.poll() is None and time.monotonic() < deadline:
            if csv_path.exists() and len(csv_path.read_text().splitlines()) > 1:
                break
            time.sleep(0.005)
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    partial = read_results(csv_path)
    assert 1 <= len(partial) < 16
    assert json.loads((stopped / "manifest.json").read_text())["config"]["total_symbols"] == 16384

    assert cli_main(["sweep", "--config", str(config), "--out", str(stopped)]) == 0
    assert f"resuming: {len(partial)} completed" in capsys.readouterr().out
    whole = tmp_path / "whole"
    assert cli_main(["sweep", "--config", str(config), "--out", str(whole)]) == 0
    resumed = read_results(csv_path)
    assert len(resumed) == 16
    assert _without_wall_time(resumed) == _without_wall_time(read_results(whole / "results.csv"))
