"""Spans around the public functions of pricelab, recorded from outside.

The package binds names with `from .x import f`, so a function is wrapped
by replacing every binding of it in every pricelab module's namespace,
and methods by replacing the class attribute. Each call records one span
(name, start, end, parent span, whether it returned) in flat arrays kept
in memory; a few spans also record a note read off the call's arguments
or result, for the derived ratios.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from statistics import median

LABELS = ("LI", "LIB", "BS", "NW", "BSNW", "NWCV", "BSNWCV", "VG")

# (module, attribute) of each traced function, in pricelab.
TARGETS = (
    ("cli", "main"),
    ("harness", "run_protocol"),
    ("harness", "prepare_day"),
    ("harness", "evaluate_day"),
    ("market_data", "load_chains"),
    ("black_scholes", "fill_implied_vols"),
    ("black_scholes", "implied_vol"),
    ("black_scholes", "bs_price"),
    ("parity", "estimate_dividend_curve"),
    ("surface", "normalized_li_values"),
    ("surface", "NormalizedSurface.value_at"),
    ("surface", "NormalizedSurface.in_domain"),
    ("kernel", "silverman_bandwidths"),
    ("kernel", "loo_cv_bandwidths"),
    ("kernel", "nw_estimate"),
    ("variance_gamma", "vg_calibrate"),
    ("variance_gamma", "vg_price_quadrature"),
    ("estimators", "fit"),
    ("estimators", "predict"),
    ("reporting", "aggregate"),
    ("reporting", "write_report_csv"),
)

SPAN_NAMES = tuple(
    [f"{module}.{attr}" for module, attr in TARGETS if attr not in ("fit", "predict")]
    + [f"estimators.{step}.{label}" for step in ("fit", "predict") for label in LABELS]
)


def _label_of_fit(args, kwargs) -> str:
    label = args[0] if args else kwargs["label"]
    return f"estimators.fit.{getattr(label, 'value', label)}"


def _label_of_predict(args, kwargs) -> str:
    estimator = args[0] if args else kwargs["estimator"]
    return f"estimators.predict.{estimator.label.value}"


def _quotes_in(args, kwargs, result) -> int:
    return len(args[0])


def _vols_filled(args, kwargs, result) -> tuple[int, int]:
    filled, failed = result
    return len(filled), len(filled) - failed


NAMERS = {"fit": _label_of_fit, "predict": _label_of_predict}
NOTES = {"prepare_day": _quotes_in, "fill_implied_vols": _vols_filled}


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.ok = array("b")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, fixed_name, fn, namer, note):
        clock = time.perf_counter
        stack = self._stack
        ids = self._ids

        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else fixed_name
            index = len(self.start)
            self.name_id.append(ids[name])
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.ok.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            self.ok[index] = 1
            if note is not None:
                self.notes[index] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target. Call uninstall() to restore the originals."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pricelab" or name.startswith("pricelab.")]
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"pricelab.{module_name}")
            namer, note = NAMERS.get(attr), NOTES.get(attr)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(module, class_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(f"{module_name}.{attr}", original, None, note))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, namer, note)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, holder, key, wrapper) -> None:
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds of spans
        [first, last), plus the derived ratios."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for i in range(first, last):
            parent = self.parent[i]
            if parent >= first:
                # Calls are serial, so a span's direct children never overlap
                # and their summed lengths are the interval they cover.
                child[parent] += self.end[i] - self.start[i]
        own: dict[str, float] = defaultdict(float)
        for i in range(first, last):
            name = self.names[self.name_id[i]]
            span = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += span
            own[name] += span - child[i]
        metrics: dict[str, float] = {}
        for name in self.names:
            metrics[f"{name}.calls"] = float(calls[name])
            metrics[f"{name}.s"] = total[name]
            metrics[f"{name}.self_s"] = own[name]

        ids = self._ids
        quotes_in = sum(self.notes.get(i, 0) for i in range(first, last)
                        if self.name_id[i] == ids["harness.prepare_day"])
        fills = [i for i in range(first, last)
                 if self.name_id[i] == ids["black_scholes.fill_implied_vols"]]
        calibrations = [i for i in range(first, last)
                        if self.name_id[i] == ids["variance_gamma.vg_calibrate"]]
        in_calibration = set(calibrations)
        quad_in_calibration = sum(
            1 for i in range(first, last)
            if self.name_id[i] == ids["variance_gamma.vg_price_quadrature"]
            and self.parent[i] in in_calibration)
        attempted = sum(self.notes.get(i, (0, 0))[0] for i in fills)
        inverted = sum(self.notes.get(i, (0, 0))[1] for i in fills)
        metrics["black_scholes.implied_vol.calls_per_quote"] = _ratio(
            calls["black_scholes.implied_vol"], quotes_in)
        metrics["black_scholes.fill_implied_vols.inverted_frac"] = _ratio(inverted, attempted)
        metrics["variance_gamma.vg_calibrate.converged"] = _ratio(
            sum(self.ok[i] for i in calibrations), len(calibrations))
        metrics["variance_gamma.vg_price_quadrature.calls_per_calibration"] = _ratio(
            quad_in_calibration, len(calibrations))
        return metrics

    def write(self, path: Path) -> None:
        """All spans as CSV: index, name, start, end, parent, ok."""
        with path.open("w") as handle:
            handle.write("span,name,start_s,end_s,parent,ok\n")
            for i in range(len(self.start)):
                handle.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},"
                             f"{self.end[i]!r},{self.parent[i]},{self.ok[i]}\n")


def _ratio(numerator: float, denominator: float) -> float:
    """A ratio whose base is empty on this workload reads 0."""
    return float(numerator) / denominator if denominator else 0.0


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(rep[key] for rep in per_rep) for key in per_rep[0]}
