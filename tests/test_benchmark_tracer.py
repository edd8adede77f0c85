"""perfbench/tracer.py wraps radonet functions by module and name; a name
that no longer exists would make a traced benchmark run die on start-up."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_module_level_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for _, module, name in tracer.TRACED:
        fn = getattr(importlib.import_module(module), name, None)
        assert inspect.isfunction(fn), f"{module}.{name} is not a function"
