"""The benchmark's tracer still finds what it wraps.

``perfbench/spans.py`` patches public slicerc functions by name and its
counters bind some of their parameters by name, so a rename in the
package would break a traced benchmark run without failing any other
test. This reads the tracer's tables and checks them against the
package; it does not change anything under ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# parameters the tracer's counters bind, per wrapped function
BOUND = {
    "link.simulate_link": ("cfg",),
    "esn.fit_readout": ("obs", "frame", "cfg", "first_target", "last_target"),
    "esn.equalize": ("obs", "frame", "cfg", "first_target", "last_target"),
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_on_its_module():
    layers = load_spans().LAYERS
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"slicerc.{layer}"), name, None))
    ]
    assert not missing


def test_counted_functions_keep_their_bound_parameters():
    layers = load_spans().LAYERS
    for qualified, params in BOUND.items():
        layer, name = qualified.split(".")
        assert name in layers[layer]
        signature = inspect.signature(getattr(importlib.import_module(f"slicerc.{layer}"), name))
        assert set(params) <= set(signature.parameters), qualified
