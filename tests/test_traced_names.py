"""The functions that perfbench/tracing.py wraps exist in the package.

The benchmark's tracer wraps each (module, attribute) of its TARGETS in
pricelab, a method through its class __dict__ and a function by name,
and fails when one is missing; this test notices a renamed or deleted
target without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_name_resolves_in_the_package():
    targets = traced_targets()
    missing = []
    for module_name, attr in targets:
        module = importlib.import_module(f"pricelab.{module_name}")
        if "." in attr:
            class_name, method = attr.split(".")
            found = method in vars(getattr(module, class_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert targets and not missing, missing
