"""The benchmark's tracer wraps knotcert functions by name; some of them
(fox.fox_derivative, fox.abelianize_element, laurent.divides) have no other
caller in the library, so a rename would only show when the benchmark runs.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _tracing_module().LAYERS
    assert layers
    for metric, modname, attr in layers:
        module = importlib.import_module(f"knotcert.{modname}")
        fn = functools.reduce(getattr, attr.split("."), module)
        assert callable(fn), metric
        # defined in the module the metric is named after, not re-exported
        assert fn.__module__ == module.__name__, metric
