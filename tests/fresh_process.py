"""Run a script in a fresh Python process and read back its result.

Memory tests measure peak RSS growth in a child process, so nothing the
suite itself holds or has freed counts. The child imports this
checkout's ``slicerc``, runs with one BLAS thread, and prints its result
as JSON on its last stdout line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import slicerc

SRC = str(Path(slicerc.__file__).resolve().parents[1])


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` with ``args`` in a new interpreter and return the
    JSON object it printed last."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])
