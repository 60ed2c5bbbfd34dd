"""slicerc sweep benchmark.

    python3 perfbench/run.py --workload desk_sweep|multi_out_sweep|reference_point|all
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh child
processes, one at a time, that import slicerc from this checkout's
``src/``. With ``--trace 0`` the last stdout line reports the end-to-end
metrics (set-up, wall time, symbol throughput, peak RSS); with
``--trace 1`` it reports the per-layer metrics of a traced child, plus
the tracing overhead against an untraced child. The run's config,
result (with its environment block) and spans are kept under
``.perfbench_runs/``. Exit code 0 when every output check passed,
1 when a check failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

# Every n_out=1 and n_out=17 KP4 crossing of the desk lengths falls near
# 10 dB, so 9-11 dB brackets each one by about 1 dB on either side and
# the paper-claim check holds whatever the seed.
DESK_SNR_DB = [9.0, 10.0, 11.0]

# generated config = base file + these overrides + seeds: [workload seed]
CONFIGS = {
    "desk_sweep": (
        "configs/desk_curves.yaml",
        {"fiber_length_km": [0.0, 50.0], "snr_db": DESK_SNR_DB, "n_out": [1, 17, 23],
         "total_symbols": 2**18},
    ),
    "multi_out_sweep": (
        "configs/desk_curves.yaml",
        {"fiber_length_km": [0.0, 10.0, 30.0, 50.0], "snr_db": DESK_SNR_DB, "n_out": [17, 23],
         "total_symbols": 2**18},
    ),
    "reference_point": (
        "configs/full_curves.yaml",
        {"fiber_length_km": [10.0], "snr_db": [12.0], "n_out": [17], "total_symbols": 2**22},
    ),
}

RUNS_DIR = ROOT / ".perfbench_runs"
# set-up is sampled this many times in set-up-only children, plus once
# in the workload child, and reported as the median
SETUP_SAMPLES = 6
# every child must end before the run's 180 s limit
RUN_LIMIT_S = 170.0

UNITS = {"setup_s": "s", "wall_s": "s", "symbols_per_s": "symbols/s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def generated_config(name: str, seed: int, base: dict) -> dict:
    raw = dict(base)
    raw.update(CONFIGS[name][1])
    raw["seeds"] = [seed]
    raw["label"] = f"perfbench-{name}"
    return raw


def _child(args: list[str], deadline: float) -> dict:
    """Run one child to its end and return its JSON result."""
    # One process with one BLAS thread: on a shared machine a second BLAS
    # thread spin-waits whenever a neighbour holds the other core, which
    # made fit_readout times swing several-fold between runs.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--t0", repr(t0), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Measure one workload; returns the result object, environment included."""
    out = RUNS_DIR / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    base = yaml.safe_load((ROOT / CONFIGS[name][0]).read_text())
    config = out / "config.yaml"
    config.write_text(yaml.safe_dump(generated_config(name, seed, base), sort_keys=False))
    common = ["--workload", name, "--config", str(config), "--out", str(out / "work")]

    plain = None
    if trace:
        # one round each: the traced child adds an untimed memory round,
        # and the whole run must stay inside its time limit
        common += ["--seconds", "0"]
        plain = _child(common + ["--trace", "0"], deadline)
        child = _child(common + ["--trace", "1", "--spans", str(out / "spans.jsonl")], deadline)
    else:
        common += ["--seconds", str(seconds)]
        setups = [_child(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        child = _child(common + ["--trace", "0"], deadline)
        setups.append(child["setup_s"])
    walls = child["walls"]
    if trace:
        metrics = dict(child["layers"][0])
        metrics["harness.load_config_s"] = child["load_config_s"]
        metrics.update(child["memory"])
        metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain["walls"])
        units = {key: spans.unit(key) for key in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "symbols_per_s": statistics.median(s / w for s, w in zip(child["symbols"], walls)),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        units = UNITS
    runs = [child] + ([plain] if plain else [])
    result = {
        "correct": not any(run["problems"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": len(walls), "walls": walls, "problems": [p for r in runs for p in r["problems"]],
              "env": child["env"], **result}
    (out / "result.json").write_text(json.dumps(detail, indent=2))
    shutil.rmtree(out / "work", ignore_errors=True)
    return detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="slicerc sweep benchmark")
    parser.add_argument("--workload", required=True, choices=[*CONFIGS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    needed = dict.fromkeys(["src/slicerc/__init__.py", *(c[0] for c in CONFIGS.values())])
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a slicerc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(CONFIGS) if args.workload == "all" else [args.workload]
    seed = args.seed % 2**32
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            detail = run_workload(name, seed, args.seconds, args.trace,
                                  deadline if len(names) == 1 else time.monotonic() + RUN_LIMIT_S)
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print(f"{name} env {json.dumps(detail['env'], sort_keys=True)}")
        print(f"{name} rounds={detail['rounds']} attempted={detail['attempted']} "
              f"failed={detail['failed']} correct={detail['correct']}")
        for problem in detail["problems"]:
            print(f"{name} CHECK FAILED: {problem}")
        for key, m in detail["metrics"].items():
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            print(f"{name} {key} = {value} {m['unit']}")
        final["correct"] &= detail["correct"]
        final["attempted"] += detail["attempted"]
        final["failed"] += detail["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        final["metrics"].update({prefix + k: v for k, v in detail["metrics"].items()})
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
