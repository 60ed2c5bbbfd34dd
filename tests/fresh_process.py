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

# Defined ahead of every script. ru_maxrss is no measure here: a child
# started from the suite starts with the suite's own peak RSS as its
# ru_maxrss (45 MB against 32 MB from a shell, more late in a run), so
# growth over it reads low. VmHWM belongs to the child's own address
# space alone.
PRELUDE = """
def peak_rss():
    \"\"\"Peak resident memory of this process so far, in bytes.\"\"\"
    with open('/proc/self/status') as status:
        line = next(line for line in status if line.startswith('VmHWM:'))
    return int(line.split()[1]) * 1024
"""


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` with ``args`` in a new interpreter and return the
    JSON object it printed last. The script may call ``peak_rss()``
    (:data:`PRELUDE`)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + script, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])
