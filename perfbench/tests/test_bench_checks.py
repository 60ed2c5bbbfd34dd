"""The benchmark's own output checks, and that a failed check fails a run.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import run  # noqa: E402
from slicerc.harness import ExperimentConfig, SweepRecord, config_to_dict  # noqa: E402
from slicerc.metrics import count_errors, hard_decision  # noqa: E402

CFG = config_to_dict(ExperimentConfig(fiber_length_km=(0.0, 10.0), total_symbols=2**18))


def record(length=10.0, n_out=17, snr=10.0, ber=2e-4, **changes):
    fields = dict(
        label="t", seed=0, snr_db=snr, fiber_length_km=length, n_out=n_out, n_res=30,
        ber=ber, ser=ber, per_position_ber=(ber,) * n_out,
        rmps=checks.RMPS_CLOSED_FORM[n_out], train_symbols=1000,
        test_symbols=checks.split(2**18, length, n_out, CFG)["test_symbols"], wall_time_s=1.0,
    )
    fields.update(changes)
    return SweepRecord(**fields)


def test_consistent_records_pass():
    assert checks.check_records([record(n_out=n) for n in (1, 17, 23)], CFG) == []


def test_split_matches_a_program_record():
    # 0 km has no guard: 2^18 symbols, 15% train, k=11 gap and tail
    usable = 2**18
    n_train = int(0.15 * usable)
    assert checks.split(2**18, 0.0, 1, CFG)["test_symbols"] == usable - n_train - 22
    assert checks.guard_symbols(10.0, CFG["link"]) == 6


@pytest.mark.parametrize(
    "changes, words",
    [
        ({"ber": 3e-4}, "per-position"),
        ({"rmps": 72.6}, "rmps"),
        ({"error": "ValueError: frame too short"}, "failed"),
        ({"test_symbols": 222801}, "test_symbols"),
        ({"per_position_ber": (2e-4,) * 16}, "positions"),
    ],
)
def test_bad_record_is_reported(changes, words):
    fields = dict(per_position_ber=(2e-4,) * 17)
    fields.update(changes)
    ber = fields.pop("ber", 2e-4)
    problems = checks.check_records([record(ber=ber, **fields)], CFG)
    assert len(problems) == 1 and words in problems[0]


def _curve(length, n_out, cross_db, snrs=(9.0, 10.0, 11.0)):
    # log10 BER falls one decade per 2 dB and passes KP4 at cross_db
    return [
        record(length, n_out, snr, ber=checks.KP4_BER * 10 ** ((cross_db - snr) / 2.0))
        for snr in snrs
    ]


def test_paper_claim_holds_within_one_db():
    recs = _curve(0.0, 1, 10.0) + _curve(0.0, 17, 10.5) + _curve(10.0, 1, 10.1) + _curve(10.0, 17, 10.6)
    assert checks.check_paper_claim(recs) == []
    assert checks.crossing_db([9.0, 10.0, 11.0], [r.ber for r in _curve(0, 1, 10.25)], 1e6) == (
        pytest.approx(10.25)
    )


def test_paper_claim_fails_on_a_wide_gap_or_no_reference():
    wide = _curve(0.0, 1, 9.5) + _curve(0.0, 17, 10.8)
    assert any("crosses at" in p for p in checks.check_paper_claim(wide))
    never = _curve(0.0, 1, 12.0) + _curve(0.0, 17, 12.0)
    assert "0 km n_out=1 reference does not bracket KP4" in checks.check_paper_claim(never)


def _estimates(n_errors, n_out=17, steps=20000, seed=1):
    rng = np.random.default_rng(seed)
    truth = rng.choice(checks.LEVELS, size=n_out * steps)
    estimates = truth + rng.uniform(-0.9, 0.9, truth.size)
    hit = rng.choice(truth.size, size=n_errors, replace=False)
    # push each hit one level inward: one Gray bit error each
    estimates[hit] = truth[hit] - 2.0 * np.sign(truth[hit])
    return estimates, truth


def test_rescore_matches_count_errors():
    estimates, truth = _estimates(30)
    report = count_errors(hard_decision(estimates), truth, 17)
    assert report.n_bit_errors == 30
    assert checks.check_reference(estimates, truth, 17, report, truth.size) == []
    assert checks.score(np.array([-2.0, 0.0, 2.0]), np.array([-3.0, -1.0, 1.0]), 1)[
        "n_symbol_errors"
    ] == 0


def test_reference_fails_on_a_wrong_ber():
    estimates, truth = _estimates(30)
    report = count_errors(hard_decision(estimates), truth, 17)
    report.ber *= 1.5
    assert any("bit errors" in p for p in checks.check_reference(estimates, truth, 17, report, truth.size))
    report = count_errors(hard_decision(estimates), truth, 17)
    report.per_position_ber = report.per_position_ber[::-1].copy()
    assert checks.check_reference(estimates, truth, 17, report, truth.size) != []


def test_reference_fails_outside_zero_to_kp4():
    for n_errors in (0, 400):
        estimates, truth = _estimates(n_errors)
        report = count_errors(hard_decision(estimates), truth, 17)
        problems = checks.check_reference(estimates, truth, 17, report, truth.size)
        assert any("outside (0, KP4)" in p for p in problems)


def test_a_failed_check_fails_the_run(monkeypatch, tmp_path, capsys):
    def child(args, deadline):
        if "--setup-only" in args:
            return {"setup_s": 0.5}
        return {"setup_s": 0.5, "walls": [2.0], "symbols": [100], "attempted": 12, "failed": 1,
                "problems": ["record L=0.0 n_out=17 snr=9.0 seed=0: failed: ValueError"],
                "layers": [], "peak_rss_mb": 100.0, "env": {}}

    monkeypatch.setattr(run, "RUNS_DIR", tmp_path)
    monkeypatch.setattr(run, "_child", child)
    code = run.main(["--workload", "multi_out_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 12
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.CONFIGS)
    layer_names = [f"{layer}.{fn}{'_self_s' if fn == 'run_experiment' else '_s'}"
                   for layer, fns in run.spans.LAYERS.items() for fn in fns]
    counted = ["link.simulate_link_calls", "link.distinct_frames", "link.frame_reuse_ratio",
               "link.peak_alloc_mb", "esn.fold_steps", "esn.us_per_fold_step", "esn.peak_alloc_mb",
               "trace.overhead_s", "trace.unattributed_s"]
    spec_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(spec_layers) == set(layer_names + counted)
    assert all(run.spans.unit(name) == u for name, u in spec_layers.items())
