"""The pricelab names that perfbench uses exist in the package.

The benchmark's tracer wraps each (module, attribute) of its TARGETS in
pricelab, a method through its class __dict__ and a function by name,
and fails when one is missing; its workloads build chains from records
and call pricelab's modules by attribute. These tests notice a renamed
or deleted name without running the benchmark.
"""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

from pricelab import estimators, market_data

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load(path, name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Registered while the test runs: dataclasses look their module up there.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package(monkeypatch):
    targets = load(TRACING, "perfbench_tracing", monkeypatch).TARGETS
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


def test_every_pricelab_name_the_workloads_use_resolves(monkeypatch):
    # The workloads import perfbench's own modules by bare name. Loading them
    # resolves every name they import from pricelab.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = load(WORKLOADS, "perfbench_workloads", monkeypatch)
    modules = {name: value for name, value in vars(workloads).items()
               if isinstance(value, types.ModuleType) and value.__name__.startswith("pricelab.")}
    used = {(node.value.id, node.attr) for node in ast.walk(ast.parse(WORKLOADS.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    missing = [f"{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(modules[module], attr)]
    assert not missing, missing
    assert {("estimators", "fit"), ("market_data", "quote_sort_key"),
            ("cli", "run_protocol")} <= used
    assert workloads.PredictStatus is estimators.PredictStatus
    assert workloads.OptionQuote is market_data.OptionQuote
    # Read from a chain, not from a module: the scan cannot see it.
    assert isinstance(vars(market_data.DailyChain)["quotes"], property)
