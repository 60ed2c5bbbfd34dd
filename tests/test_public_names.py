"""Every public top-level function and class of the package, and every
public method and property of those classes, has a user.

A public name counts as used when the package or the benchmark refers to
it (as a name or an attribute in ``src/slicerc/*.py`` or
``perfbench/*.py``), when the benchmark's tracer wraps it by name (a
string in ``perfbench/spans.py``'s ``LAYERS``), or when the README names
it in backticks as part of the documented interface. Tests do not count:
a function that only its own tests call is dead code with a test.

The same holds for the defaulted parameters of public functions: some
call in the package, the benchmark or the README's python block must
pass each one, or its non-default branch runs only under test.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slicerc"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_defs(body: list[ast.stmt]) -> list[ast.stmt]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in body if isinstance(node, defs) and not node.name.startswith("_")]


def public_definitions() -> dict[str, str]:
    """Public top-level function and class names, and ``Class.member``
    for the public methods and properties of those classes -> defining
    module file."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public_defs(_parse(path).body):
            defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                members = _public_defs(node.body)
                defined.update({f"{node.name}.{m.name}": path.name for m in members})
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
    unused = {name: module for name, module in public_definitions().items()
              if name.rpartition(".")[2] not in used}
    assert not unused, f"public names nothing outside the tests uses: {unused}"


def test_the_scan_sees_definitions_and_uses():
    # guards the scan itself: a known definition, a method and a property,
    # a call made only inside the package, a traced name and a README name
    # are all found
    defined = public_definitions()
    assert defined["detect_frame"] == "link.py"
    assert defined["SlicedObservation.write_samples"] == "link.py"
    assert defined["EsnConfig.n_in"] == "esn.py"
    assert "rrc_taps" in referenced_names()
    assert "photodetect_and_load_noise" in traced_names()
    assert "demap_gray_pam4" in readme_names()


# parameters whose default serves a seam outside the package: the tests
# call cli.main with an argument list, the console script without one
SEAM_PARAMETERS = {("main", "argv")}


def defaulted_parameters() -> dict[str, dict[str, int | None]]:
    """Public top-level function -> its defaulted parameters, each with
    its positional index (None when it is keyword-only)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            params = {a.arg: i for i, a in enumerate(positional)
                      if i >= len(positional) - len(args.defaults)}
            params.update({a.arg: None for a, default in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None})
            if params:
                found[node.name] = params
    return found


def readme_python() -> str:
    """The README's fenced python blocks, joined."""
    text = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))


def user_trees() -> list[ast.Module]:
    """The package, the benchmark and the README's python, parsed."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return [*(_parse(path) for path in paths), ast.parse(readme_python())]


def passed_parameters(
    defaulted: dict[str, dict[str, int | None]], trees: list[ast.Module]
) -> set[tuple[str, str]]:
    """(function, parameter) pairs that some call in ``trees`` passes, by
    position or by keyword; a call that spreads ``*args`` or ``**kwargs``
    counts as passing every parameter it could reach."""
    passed = set()
    for node in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in defaulted:
            continue
        spread = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {kw.arg for kw in node.keywords}
        for param, index in defaulted[name].items():
            by_position = index is not None and (spread or index < len(node.args))
            if by_position or None in keywords or param in keywords:
                passed.add((name, param))
    return passed


def test_every_defaulted_parameter_has_a_caller():
    # a default that no call outside the tests overrides marks a
    # test-only parameter: the tests reach code that no user runs
    defaulted = defaulted_parameters()
    passed = passed_parameters(defaulted, user_trees()) | SEAM_PARAMETERS
    unused = sorted((name, param) for name, params in defaulted.items() for param in params
                    if (name, param) not in passed)
    assert not unused, f"defaulted parameters only the tests pass: {unused}"


def test_the_parameter_scan_sees_defaults_and_calls():
    # guards the scan itself: a defaulted parameter, one passed by
    # position in the package and one passed by keyword in the README
    defaulted = defaulted_parameters()
    assert defaulted["run_sweep"]["parallel"] == 1
    package = [_parse(path) for path in PACKAGE.glob("*.py")]
    assert ("emit_plot_data", "threshold") in passed_parameters(defaulted, package)
    readme = [ast.parse(readme_python())]
    assert ("count_errors", "n_out") in passed_parameters(defaulted, readme)
