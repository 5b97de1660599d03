"""Per-quote error records and their aggregation into report tables.

A PricingError is one out-of-sample attempt: what the estimator said,
what the market said, and the relative error |1 - estimate/price| when
both exist. Reports summarize a partition of those records with summary
statistics (in percent) and the empirical CDF of the error at fixed
thresholds.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

# CDF thresholds, in percent.
CDF_THRESHOLDS = (1.0, 5.0, 10.0, 20.0, 25.0, 30.0, 50.0)


class ErrorStatus(enum.Enum):
    PRICED = "priced"
    OUTSIDE_HULL = "outside_hull"
    EXTRAPOLATED = "extrapolated"
    FAILED = "failed"


@dataclass(frozen=True)
class PricingError:
    """One test quote's evaluation outcome.

    rel_error is |1 - est_price/true_price|, present for PRICED and
    EXTRAPOLATED records; OUTSIDE_HULL (hull-domain estimator declined)
    and FAILED records carry none.
    """

    date: dt.date
    label: str
    strike: float
    tau: float
    true_price: float
    est_price: float | None
    rel_error: float | None
    status: ErrorStatus


@dataclass(frozen=True)
class ErrorReport:
    """Summary of one (label, partition) slice.

    count is the number of records in the partition; n_errors the number
    carrying a relative error (the sample behind the statistics). Stats
    are in percent and None when the sample is empty (std needs two).
    cdf maps each percent threshold to the fraction of errors at or
    below it.
    """

    label: str
    partition: str
    count: int
    n_errors: int
    mean: float | None
    std: float | None
    median: float | None
    min: float | None
    max: float | None
    cdf: dict[float, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


PARTITIONS: dict[str, Callable[[PricingError], bool]] = {
    "all": lambda e: True,
    "hull": lambda e: e.status is ErrorStatus.PRICED,
    "nohull": lambda e: e.status in (ErrorStatus.OUTSIDE_HULL, ErrorStatus.EXTRAPOLATED),
    "gt1": lambda e: e.true_price > 1.0,
}


def aggregate(
    errors: Iterable[PricingError],
    partition: str = "all",
    label: str | None = None,
    extra: dict[str, float] | None = None,
) -> ErrorReport:
    """Summarize the records in the partition named by a PARTITIONS key.

    Statistics use the errors expressed in percent; std is the n-1
    sample deviation. An empty partition yields count 0 and all-None
    statistics, never an exception; an unknown name raises ValueError.
    """
    if partition not in PARTITIONS:
        raise ValueError(f"unknown partition {partition!r}, expected one of {sorted(PARTITIONS)}")
    records = [e for e in errors if PARTITIONS[partition](e)]
    sample = np.array([e.rel_error for e in records if e.rel_error is not None], dtype=float)
    sample *= 100.0

    if label is None:
        labels = sorted({e.label for e in records})
        label = labels[0] if len(labels) == 1 else ",".join(labels)

    if sample.size == 0:
        return ErrorReport(
            label=label, partition=partition, count=len(records), n_errors=0,
            mean=None, std=None, median=None, min=None, max=None,
            cdf={t: float("nan") for t in CDF_THRESHOLDS}, extra=dict(extra or {}),
        )

    return ErrorReport(
        label=label,
        partition=partition,
        count=len(records),
        n_errors=int(sample.size),
        mean=float(np.mean(sample)),
        std=float(np.std(sample, ddof=1)) if sample.size > 1 else None,
        median=float(np.median(sample)),
        min=float(np.min(sample)),
        max=float(np.max(sample)),
        cdf={t: float(np.mean(sample <= t)) for t in CDF_THRESHOLDS},
        extra=dict(extra or {}),
    )


def write_report_csv(report: ErrorReport, path: str | Path) -> None:
    """Write one report as a two-block CSV: stat,value rows then
    threshold_pct,cdf rows. Full float precision, so identical runs
    produce identical bytes."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["stat", "value"])
        writer.writerow(["label", report.label])
        writer.writerow(["partition", report.partition])
        writer.writerow(["count", str(report.count)])
        writer.writerow(["n_errors", str(report.n_errors)])
        for name in ("mean", "std", "median", "min", "max"):
            value = getattr(report, name)
            writer.writerow([name, "" if value is None else repr(value)])
        for key in sorted(report.extra):
            writer.writerow([key, repr(report.extra[key])])
        writer.writerow(["threshold_pct", "cdf"])
        for threshold in CDF_THRESHOLDS:
            writer.writerow([repr(threshold), repr(report.cdf[threshold])])


def read_report_csv(path: str | Path) -> ErrorReport:
    """Inverse of write_report_csv. A leading byte-order mark and rows
    whose every field is blank are skipped.

    Raises ValueError naming the file and line of a row that is not a
    two-field stat or cdf row, and of a file that ends before giving the
    cdf at every threshold.
    """
    path = Path(path)
    stats: dict = {}
    cdf: dict[float, float] = {}
    extra: dict[str, float] = {}
    in_cdf = False
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not "".join(row).strip():
                continue
            try:
                if len(row) != 2:
                    raise ValueError(f"expected 2 fields, got {len(row)}")
                key, text = row
                if key in ("stat", "threshold_pct"):
                    in_cdf = key == "threshold_pct"
                elif in_cdf:
                    cdf[float(key)] = float(text)
                elif key in ("label", "partition"):
                    stats[key] = text
                elif key in ("count", "n_errors"):
                    stats[key] = int(text)
                elif key in ("mean", "std", "median", "min", "max"):
                    stats[key] = float(text) if text else None
                else:
                    extra[key] = float(text)
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
        missing = [t for t in CDF_THRESHOLDS if t not in cdf]
        if missing:
            raise ValueError(
                f"{path} line {reader.line_num}: file ends without the cdf at thresholds {missing}"
            )

    return ErrorReport(
        label=stats.get("label", ""),
        partition=stats.get("partition", ""),
        count=stats.get("count", 0),
        n_errors=stats.get("n_errors", 0),
        mean=stats.get("mean"),
        std=stats.get("std"),
        median=stats.get("median"),
        min=stats.get("min"),
        max=stats.get("max"),
        cdf=cdf,
        extra=extra,
    )


def render_reports(reports: Sequence[ErrorReport]) -> str:
    """Aligned-text rendering of several reports, one row per report:
    summary stats to one decimal (percent), then the CDF columns."""
    heads = ["label", "partition", "count", "n", "mean", "std", "median", "min", "max"]
    heads += [f"<={t:g}%" for t in CDF_THRESHOLDS]

    def fmt(value: float | None) -> str:
        return "-" if value is None else f"{value:.1f}"

    rows = []
    for r in reports:
        row = [r.label, r.partition, str(r.count), str(r.n_errors),
               fmt(r.mean), fmt(r.std), fmt(r.median), fmt(r.min), fmt(r.max)]
        row += ["-" if np.isnan(r.cdf[t]) else f"{100.0 * r.cdf[t]:.1f}" for t in CDF_THRESHOLDS]
        rows.append(row)

    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(heads)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(heads, widths))]
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
