"""Every public top-level function and class of the package has a user.

A public name counts as used when the package or the benchmark refers to
it (as a name or an attribute in ``src/slicerc/*.py`` or
``perfbench/*.py``), when the benchmark's tracer wraps it by name (a
string in ``perfbench/spans.py``'s ``LAYERS``), or when the README names
it in backticks as part of the documented interface. Tests do not count:
a function that only its own tests call is dead code with a test.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slicerc"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions() -> dict[str, str]:
    """Public top-level function and class names -> defining module file."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                defined[node.name] = path.name
    return defined


def referenced_names() -> set[str]:
    """Names and attributes read anywhere in the package or the benchmark."""
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def traced_names() -> set[str]:
    """Function names listed in the tracer's ``LAYERS`` table."""
    for node in _parse(ROOT / "perfbench" / "spans.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            layers = ast.literal_eval(node.value)
            return {name for names in layers.values() for name in names}
    raise AssertionError("perfbench/spans.py defines no LAYERS table")


def readme_names() -> set[str]:
    """Identifiers inside backtick spans and fenced blocks of the README."""
    text = (ROOT / "README.md").read_text()
    spans = (m.group(2) for m in re.finditer(r"(`+)(.+?)\1", text, re.S))
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_name_has_a_user():
    used = referenced_names() | traced_names() | readme_names()
    unused = {name: module for name, module in public_definitions().items() if name not in used}
    assert not unused, f"public names nothing outside the tests uses: {unused}"


def test_the_scan_sees_definitions_and_uses():
    # guards the scan itself: a known definition, a call made only inside
    # the package, a traced name and a README name are all found
    defined = public_definitions()
    assert defined["detect_frame"] == "link.py"
    assert "rrc_taps" in referenced_names()
    assert "photodetect_and_load_noise" in traced_names()
    assert "demap_gray_pam4" in readme_names()
