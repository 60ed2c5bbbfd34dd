"""The README's "Library use" example runs as written, so a public name it
uses cannot be renamed or removed without the README following, and its
CLI usage lines name every option the parser takes."""

import argparse
import re
from pathlib import Path

from slicerc.cli import _parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    ber, _ = capsys.readouterr().out.split(" ", 1)
    assert 0.0 <= float(ber) < 1e-2


def test_every_cli_option_is_on_its_usage_line():
    # the CLI block holds one usage line per subcommand; an option the
    # parser takes but the line omits is undocumented
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    usage = {m.group(1): m.group(0) for m in re.finditer(r"^    slicerc (\S+).*$", section, re.M)}
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(usage) == set(sub.choices)
    missing = [
        f"{name} {option}"
        for name, parser in sub.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", usage[name])
    ]
    assert not missing, missing
