"""Error records, aggregation, CSV round trips, and text rendering."""

import math
from datetime import date

import pytest

from pricelab.reporting import (
    CDF_THRESHOLDS,
    ErrorReport,
    ErrorStatus,
    PricingError,
    aggregate,
    read_report_csv,
    render_reports,
    write_report_csv,
)

DAY = date(2012, 1, 3)


def record(rel_error, status=ErrorStatus.PRICED, true_price=5.0, label="LI"):
    est = None if rel_error is None else true_price * (1.0 + rel_error)
    return PricingError(
        date=DAY, label=label, strike=100.0, tau=0.5,
        true_price=true_price, est_price=est, rel_error=rel_error, status=status,
    )


def test_aggregate_statistics():
    errors = [record(0.01), record(0.05), record(0.20)]
    report = aggregate(errors)
    sample = [1.0, 5.0, 20.0]
    mean = sum(sample) / 3
    assert report.label == "LI"
    assert report.partition == "all"
    assert report.count == 3 and report.n_errors == 3
    assert report.mean == pytest.approx(mean)
    assert report.std == pytest.approx(
        math.sqrt(sum((x - mean) ** 2 for x in sample) / 2)
    )
    assert report.median == pytest.approx(5.0)
    assert report.min == pytest.approx(1.0)
    assert report.max == pytest.approx(20.0)
    # Thresholds are inclusive.
    assert report.cdf[1.0] == pytest.approx(1 / 3)
    assert report.cdf[5.0] == pytest.approx(2 / 3)
    assert report.cdf[10.0] == pytest.approx(2 / 3)
    assert report.cdf[20.0] == 1.0
    assert report.cdf[50.0] == 1.0


def test_aggregate_partitions():
    errors = [
        record(0.01, ErrorStatus.PRICED, true_price=5.0),
        record(0.10, ErrorStatus.EXTRAPOLATED, true_price=0.5),
        record(None, ErrorStatus.OUTSIDE_HULL, true_price=2.0),
        record(None, ErrorStatus.FAILED, true_price=0.2),
    ]
    all_report = aggregate(errors, "all")
    assert all_report.count == 4 and all_report.n_errors == 2

    hull = aggregate(errors, "hull")
    assert hull.count == 1 and hull.n_errors == 1
    assert hull.mean == pytest.approx(1.0)

    nohull = aggregate(errors, "nohull")
    assert nohull.count == 2 and nohull.n_errors == 1
    assert nohull.mean == pytest.approx(10.0)

    gt1 = aggregate(errors, "gt1")
    assert gt1.count == 2 and gt1.n_errors == 1


def test_aggregate_empty_partition():
    report = aggregate([record(None, ErrorStatus.FAILED)], "hull")
    assert report.count == 0 and report.n_errors == 0
    assert report.mean is None and report.std is None and report.max is None
    assert all(math.isnan(v) for v in report.cdf.values())
    assert set(report.cdf) == set(CDF_THRESHOLDS)


def test_aggregate_single_record_has_no_std():
    report = aggregate([record(0.02)])
    assert report.n_errors == 1
    assert report.mean == pytest.approx(2.0)
    assert report.std is None


def test_aggregate_label_inference():
    errors = [record(0.01, label="LI"), record(0.02, label="NW")]
    assert aggregate(errors).label == "LI,NW"
    assert aggregate(errors, label="MIXED").label == "MIXED"
    assert aggregate([record(0.01, label="BS")]).label == "BS"


def test_aggregate_rejects_an_unknown_partition():
    assert aggregate([record(0.01)], "hull").count == 1
    with pytest.raises(ValueError, match="unknown partition 'bogus'"):
        aggregate([record(0.01)], "bogus")


def test_report_csv_round_trip(tmp_path):
    report = aggregate(
        [record(0.013), record(0.071), record(None, ErrorStatus.OUTSIDE_HULL)],
        "all",
        extra={"unmatched_itm": 3.0},
    )
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    assert read_report_csv(path) == report

    again = tmp_path / "again.csv"
    write_report_csv(report, again)
    assert path.read_bytes() == again.read_bytes()


def test_read_report_csv_skips_blank_lines(tmp_path):
    report = aggregate([record(0.013), record(0.071)])
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["", lines[0], "", *lines[1:], ""]) + "\n")
    assert read_report_csv(path) == report
    # A leading byte-order mark, and rows whose every field is blank.
    path.write_text("\ufeff" + "\n".join([lines[0], " , ", *lines[1:], ","]) + "\n", encoding="utf-8")
    assert read_report_csv(path) == report


def test_report_csv_round_trip_preserves_none(tmp_path):
    report = aggregate([record(0.5)])
    path = tmp_path / "single.csv"
    write_report_csv(report, path)
    loaded = read_report_csv(path)
    assert loaded.std is None
    assert loaded == report


def test_render_reports():
    errors = [record(0.01), record(0.05), record(0.20)]
    text = render_reports([aggregate(errors), aggregate([record(None, ErrorStatus.FAILED)])])
    lines = text.splitlines()
    assert len(lines) == 3
    assert "label" in lines[0] and "<=1%" in lines[0]
    assert "LI" in lines[1]
    # Empty sample renders dashes for stats and CDF alike.
    assert "-" in lines[2]
    mean = (1.0 + 5.0 + 20.0) / 3
    assert f"{mean:.1f}" in lines[1]
