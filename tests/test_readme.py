"""The README's "Library use" example runs as written, so a public name it
uses cannot be renamed or removed without the README following."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    ber, _ = capsys.readouterr().out.split(" ", 1)
    assert 0.0 <= float(ber) < 1e-2
