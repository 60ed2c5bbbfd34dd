"""One measured child process of the benchmark.

    python3 perfbench/child.py --workload NAME --config FILE --t0 T
        --seconds S --trace 0|1 --out DIR [--setup-only] [--spans FILE]

Set-up is interpreter start (the parent's ``time.monotonic()`` just
before spawning, passed as ``--t0``) to ready: slicerc imported and the
generated config loaded and validated. The child then runs whole rounds
of the workload while the next round still fits in ``--seconds`` (at
least one), checks each round's outputs after its timer stops, and
prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _source_commit() -> dict:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment() -> dict:
    """What numbers from different commits or machines must be read with."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **_source_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import slicerc
    from slicerc import harness

    import spans

    if Path(slicerc.__file__).resolve().parent != ROOT / "src" / "slicerc":
        raise SystemExit(f"slicerc imported from {slicerc.__file__}, not this checkout")
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    cfg = harness.load_config(args.config)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    run_round = workloads.ROUNDS[args.workload]
    cfg_dict = harness.config_to_dict(cfg)
    result = {"setup_s": setup_s, "walls": [], "symbols": [], "attempted": 0, "failed": 0,
              "problems": [], "layers": []}
    setup_end = len(tracer.spans) if tracer else 0

    def one_round(index: int, root: str | None) -> tuple[float, int]:
        """Run, time and check one round; returns (wall seconds, symbols)."""
        out = args.out / f"round{index}"
        span = tracer.open(root) if root else None
        t = time.perf_counter()
        outcome = run_round(cfg, out)
        wall = time.perf_counter() - t
        if span is not None:
            tracer.close(span)
        result["attempted"] += outcome.attempted
        result["failed"] += outcome.failed
        result["problems"] += outcome.check(cfg_dict)
        shutil.rmtree(out, ignore_errors=True)
        return wall, outcome.symbols

    started = time.monotonic()
    while True:
        lo = tracer.begin_round() if tracer else 0
        wall, symbols = one_round(len(result["walls"]), spans.ROUND if tracer else None)
        result["walls"].append(wall)
        result["symbols"].append(symbols)
        if tracer:
            result["layers"].append(tracer.round_metrics(lo))
        if time.monotonic() - started + wall > args.seconds:
            break
    if tracer:
        tracer.begin_round()
        tracer.follow_memory = True
        one_round(len(result["walls"]), spans.MEMORY_ROUND)
        result["memory"] = tracer.memory_metrics()
        tracer.uninstall()
        setup_self = spans.self_times(tracer.spans, 0, setup_end)
        result["load_config_s"] = setup_self.get("harness.load_config", 0.0)
        if args.spans:
            tracer.write(args.spans, args.t0 - time.monotonic() + time.perf_counter())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
