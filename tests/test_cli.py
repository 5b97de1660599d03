"""End-to-end command-line runs, in process via main(argv)."""

import csv
import dataclasses
import datetime as dt
import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from pricelab import cli, synth
from pricelab.cli import main
from pricelab.estimators import EstimatorLabel, fit, predict
from pricelab.harness import (
    DEFAULT_MASTER_SEED, DaySplit, ProtocolConfig, evaluate_day, prepare_day,
)
from pricelab.market_data import DailyChain, OptionKind, load_chains, save_chains
from pricelab.reporting import aggregate, read_report_csv, write_report_csv

NON_VG_LABELS = "LI,LIB,BS,NW,BSNW,NWCV,BSNWCV"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_into(capsys, directory, *extra):
    code, out, err = run(capsys, "synth", "--output-dir", directory, *extra)
    assert code == 0, err
    return directory / "chains.csv"


def test_synth_writes_chains(tmp_path, capsys):
    code, out, _ = run(capsys, "synth", "--output-dir", tmp_path, "--days", 2)
    assert code == 0
    assert "208 BS quotes over 2 days" in out
    chains = load_chains(tmp_path / "chains.csv")
    assert len(chains) == 2
    assert all(len(c) == 104 for c in chains)


def test_synth_reruns_byte_identical(tmp_path, capsys):
    a = synth_into(capsys, tmp_path / "a", "--noise", 0.01)
    b = synth_into(capsys, tmp_path / "b", "--noise", 0.01)
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_and_env_override(tmp_path, capsys, monkeypatch):
    one = synth_into(capsys, tmp_path / "one", "--noise", 0.01, "--seed", 1)
    two = synth_into(capsys, tmp_path / "two", "--noise", 0.01, "--seed", 2)
    assert one.read_bytes() != two.read_bytes()

    monkeypatch.setenv("PRICELAB_SEED", "1")
    env = synth_into(capsys, tmp_path / "env", "--noise", 0.01, "--seed", 2)
    assert env.read_bytes() == one.read_bytes()


def test_seed_env_must_be_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRICELAB_SEED", "banana")
    code, _, err = run(capsys, "synth", "--output-dir", tmp_path)
    assert code == 2
    assert "PRICELAB_SEED" in err


def test_synth_vg_prices_one_day_maturities(tmp_path, capsys):
    source = synth_into(
        capsys, tmp_path, "--model", "vg",
        "--theta", 0, "--sigma", 0.3, "--alpha", 3, "--maturities", "1,30,91",
    )
    assert all(q.mid > 0.0 for q in load_chains(source)[0].quotes if q.ttm_days == 1)


@pytest.mark.parametrize("overrides, message", [
    (dict(model="heston"), "unknown model 'HESTON'"),
    (dict(strikes=[]), "strikes must be positive"),
    (dict(strikes=[90.0, 0.0]), "strikes must be positive"),
    (dict(maturities_days=(30, 0)), "maturities must be positive day counts"),
    (dict(n_days=0), "n_days must be at least one"),
    (dict(noise=-0.01), "noise must be non-negative"),
    # A NaN compares false with anything, so min() let it through in either place.
    (dict(strikes=[math.nan, 100.0]), "strikes must be positive"),
    (dict(strikes=[100.0, math.nan]), "strikes must be positive"),
    (dict(strikes=[90.0, math.inf]), "strikes must be positive"),
])
def test_synth_chain_rejects_bad_arguments(overrides, message):
    with pytest.raises(ValueError, match=message):
        synth.synth_chain(**{"model": "bs", **overrides})


def test_synth_chain_rolls_a_weekend_start_forward_and_skips_weekends():
    chains = synth.synth_chain("bs", start_date=dt.date(2012, 1, 7), n_days=6)  # a Saturday
    assert [c.env.date for c in chains] == [dt.date(2012, 1, d) for d in (9, 10, 11, 12, 13, 16)]


# SHA-256 of the chains.csv that synth_chain and save_chains write for each
# world: the bytes of the synthetic files, BS and VG, that tests start from.
_PINNED_SYNTH_FILES = {
    "bs": (dict(model="bs", n_days=4, noise=0.005),
           "3e51f1f86598370b66092e04abcc5f399fd9dbd0df87da86df8fb9525ffa7fac"),
    "vg": (dict(model="vg", n_days=2, noise=0.01),
           "4bdd37690d4893cd2105e5e1c38a6fb23a5d8e3127b90e553c13f94e667b2ff4"),
    "bs-one-maturity": (dict(model="bs", maturities_days=(91,), n_days=3),
                        "63990fdca4d403629a6a551bcbc546aa3b270fb42f86999a9812ae00f181294d"),
}


@pytest.mark.parametrize("world", _PINNED_SYNTH_FILES)
def test_synth_files_stay_pinned(tmp_path, world):
    arguments, digest = _PINNED_SYNTH_FILES[world]
    path = tmp_path / "chains.csv"
    save_chains(synth.synth_chain(**arguments), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_ingest_normalizes(tmp_path, capsys):
    source = synth_into(capsys, tmp_path / "raw")
    code, out, _ = run(capsys, "ingest", "--input", source, "--output-dir", tmp_path / "clean")
    assert code == 0
    assert "104 quotes over 1 days" in out
    assert (tmp_path / "clean" / "chains.csv").read_bytes() == source.read_bytes()


def ci_world(capsys, monkeypatch, directory):
    """The CI steps' world: pricelab synth --days 4 --noise 0.005."""
    monkeypatch.delenv("PRICELAB_SEED", raising=False)
    return synth_into(capsys, directory, "--days", 4, "--noise", 0.005)


def outputs_of(capsys, source, directory):
    """Every file that ingest, a seven-label evaluate --trim and audit
    write for source, by its path under directory."""
    for command, *flags in (("ingest",), ("evaluate", "--trim", "--labels", NON_VG_LABELS),
                            ("audit",)):
        code, _, err = run(capsys, command, "--input", source, *flags,
                           "--output-dir", directory / command)
        assert code == 0, err
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_row_order_changes_no_output(tmp_path, capsys, monkeypatch):
    """The CI step of this name: the data rows shuffled with a fixed seed,
    the header kept first. The loader's grouping by day and sort within
    each day must undo it."""
    source = ci_world(capsys, monkeypatch, tmp_path / "world")
    with source.open(newline="") as handle:
        header, *rows = handle.readlines()
    random.Random(19).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    with shuffled.open("w", newline="") as handle:
        handle.writelines([header] + rows)
    assert shuffled.read_bytes() != source.read_bytes()
    expected = outputs_of(capsys, source, tmp_path / "sorted")
    assert len(expected) == 1 + 28 + 1  # chains.csv, 7 labels x 4 partitions, audit.csv
    assert outputs_of(capsys, shuffled, tmp_path / "shuffled") == expected


def test_ingest_is_a_fixed_point_and_rejects_a_repeated_column(tmp_path, capsys, monkeypatch):
    """The CI step of this name."""
    source = ci_world(capsys, monkeypatch, tmp_path / "world")
    ingested = tmp_path / "ingested" / "chains.csv"
    for path, directory in ((source, ingested.parent), (ingested, tmp_path / "reingested")):
        code, _, err = run(capsys, "ingest", "--input", path, "--output-dir", directory)
        assert code == 0, err
    assert (tmp_path / "reingested" / "chains.csv").read_bytes() == ingested.read_bytes()

    header, *rows = source.read_text().splitlines()
    twice = tmp_path / "twice.csv"
    twice.write_text("\n".join([header + ",strike"] + [row + ",1.0" for row in rows]) + "\n")
    code, _, err = run(capsys, "ingest", "--input", twice, "--output-dir", tmp_path / "twice")
    assert code == 2 and "repeated ['strike']" in err, err


def test_audit_reports_parity_errors(tmp_path, capsys):
    source = synth_into(capsys, tmp_path)
    code, out, _ = run(capsys, "audit", "--input", source, "--output-dir", tmp_path)
    assert code == 0
    assert "PARITY" in out
    report = read_report_csv(tmp_path / "audit.csv")
    assert report.n_errors > 0
    assert report.mean < 1e-8  # percent; quotes are exactly parity-consistent
    assert report.extra == {"unmatched_itm": 0.0}


def test_audit_skips_days_without_atm_pairs(tmp_path, capsys):
    source = synth_into(capsys, tmp_path / "data", "--days", 2)
    lines = source.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    second_day = max(row.split(",")[0] for row in rows)
    # The second day keeps only its puts, so it has no put-call pairs.
    kept = [row for row in rows if row.split(",")[0] != second_day or row.split(",")[1] == "P"]
    source.write_text("\n".join([header, *kept]) + "\n")

    code, out, err = run(capsys, "audit", "--input", source, "--output-dir", tmp_path / "mixed")
    assert code == 0, err
    assert "skipped 1 of 2 days without ATM put-call pairs" in out

    first_only = tmp_path / "first.csv"
    first_only.write_text("\n".join([header, *(r for r in rows if r.split(",")[0] != second_day)]) + "\n")
    code, out, _ = run(capsys, "audit", "--input", first_only, "--output-dir", tmp_path / "first")
    assert code == 0
    assert "skipped" not in out
    audit = (tmp_path / "mixed" / "audit.csv").read_bytes()
    assert audit == (tmp_path / "first" / "audit.csv").read_bytes()


def test_evaluate_then_report(tmp_path, capsys):
    source = synth_into(capsys, tmp_path / "data", "--days", 3)
    out_dir = tmp_path / "reports"
    code, out, _ = run(
        capsys, "evaluate", "--input", source, "--output-dir", out_dir,
        "--labels", "LI,BS", "--partitions", "all,hull",
    )
    assert code == 0
    assert "wrote 4 reports" in out
    files = sorted(p.name for p in out_dir.glob("report_*.csv"))
    assert files == [
        "report_BS_all.csv", "report_BS_hull.csv",
        "report_LI_all.csv", "report_LI_hull.csv",
    ]
    code, rendered, _ = run(capsys, "report", "--input", out_dir)
    assert code == 0
    assert "LI" in rendered and "BS" in rendered


def test_evaluate_rejects_unknown_label(tmp_path, capsys):
    source = synth_into(capsys, tmp_path)
    code, _, err = run(capsys, "evaluate", "--input", source,
                       "--output-dir", tmp_path, "--labels", "NOPE")
    assert code == 2
    assert "NOPE" in err


@pytest.mark.parametrize(
    "flags, fragment",
    [
        (("--labels", "XX"), "XX"),
        (("--labels", "LI,XX"), "XX"),
        (("--fraction", 2), "fraction"),
        (("--partitions", "all,bogus"), "bogus"),
        (("--workers", 0), "workers"),
        (("--labels", "NW,nw"), "more than once: NW"),
        (("--labels", ","), "at least one label"),
        (("--partitions", ","), "at least one partition is required"),
        (("--partitions", "all,all"), "partitions listed more than once: all"),
    ],
)
def test_evaluate_rejects_bad_config_values(tmp_path, capsys, flags, fragment):
    source = synth_into(capsys, tmp_path)
    code, _, err = run(capsys, "evaluate", "--input", source, "--output-dir", tmp_path, *flags)
    assert code == 2
    assert fragment in err and err.count("\n") == 1
    assert not list(tmp_path.glob("report_*.csv"))


def test_flags_and_a_config_file_give_the_same_reports(tmp_path, capsys, monkeypatch):
    """The CI step of this name, with its flags and config lines."""
    source = ci_world(capsys, monkeypatch, tmp_path / "world")
    config = tmp_path / "protocol.cfg"
    config.write_text("\n".join(["labels = LI,NW,NWCV", "partitions = all,hull",
                                 "master_seed = 7", "trim = true"]) + "\n")
    reports = []
    for name, flags in (("flags", ("--labels", "LI,NW,NWCV", "--partitions", "all,hull",
                                   "--seed", 7, "--trim")),
                        ("config", ("--config", config))):
        code, _, err = run(capsys, "evaluate", "--input", source, *flags,
                           "--output-dir", tmp_path / name)
        assert code == 0, err
        reports.append({path.name: path.read_bytes()
                        for path in sorted((tmp_path / name).iterdir())})
    assert len(reports[0]) == 6  # 3 labels x 2 partitions
    assert reports[1] == reports[0]


def test_evaluate_rejects_bad_config_file(tmp_path, capsys):
    source = synth_into(capsys, tmp_path)
    config = tmp_path / "protocol.cfg"
    config.write_text("trim = ture\n")
    code, _, err = run(capsys, "evaluate", "--input", source, "--output-dir", tmp_path,
                       "--config", config)
    assert code == 2
    assert "ture" in err


class Ran(Exception):
    """Raised in place of run_protocol, carrying the config it was given."""


def evaluate_config(monkeypatch, capsys, *argv):
    """The ProtocolConfig that evaluate would run with, or the error it
    exits 2 with before running."""
    def capture(chains, config):
        raise Ran(config)

    monkeypatch.setattr(cli, "run_protocol", capture)
    try:
        code, _, err = run(capsys, "evaluate", *argv)
    except Ran as ran:
        return ran.args[0]
    assert code == 2
    return err


# (flags, the config line they stand for, the config or an error fragment)
FLAG_CASES = [
    (("--labels", "li,NW"), "labels = li,NW", ProtocolConfig(labels=("LI", "NW"))),
    (("--labels", "NW,nw"), "labels = NW,nw", "more than once: NW"),
    (("--labels", ""), "labels =", "at least one label"),
    (("--kind", "Call"), "kind = Call", ProtocolConfig(kind=OptionKind.CALL)),
    # An empty kind used to fall back to puts on the command line.
    (("--kind", ""), "kind =", "bad kind ''"),
    (("--trim",), "trim = true", ProtocolConfig(trim=True)),
    (("--fraction", "0.8"), "fraction = 0.8", ProtocolConfig(fraction=0.8)),
    (("--fraction", "2"), "fraction = 2", "fraction must be in"),
    # A trailing comma used to name an empty partition on the command line.
    (("--partitions", "all,"), "partitions = all,", ProtocolConfig(partitions=("all",))),
    (("--partitions", "all,bogus"), "partitions = all,bogus", "unknown partition 'bogus'"),
    (("--workers", "2"), "workers = 2", ProtocolConfig(workers=2)),
    (("--workers", "0"), "workers = 0", "workers must be at least 1"),
    (("--workers", "two"), "workers = two", "'two'"),
    (("--seed", "7"), "master_seed = 7", ProtocolConfig(master_seed=7)),
]


@pytest.mark.parametrize("flags, line, expected", FLAG_CASES,
                         ids=[line for _, line, _ in FLAG_CASES])
def test_evaluate_flags_parse_like_config_keys(tmp_path, capsys, monkeypatch,
                                               flags, line, expected):
    source = synth_into(capsys, tmp_path)
    config = tmp_path / "protocol.cfg"
    config.write_text(line + "\n")
    common = ("--input", source, "--output-dir", tmp_path / "reports")
    from_flags = evaluate_config(monkeypatch, capsys, *common, *flags)
    from_file = evaluate_config(monkeypatch, capsys, *common, "--config", config)
    assert from_flags == from_file
    if isinstance(expected, str):
        assert expected in from_flags
    else:
        assert from_flags == expected


# A setting whose text does not cast, given as a flag or as a file line.
@pytest.mark.parametrize("flags, line, fragment", [
    (("--workers", "two"), None, "bad workers 'two'"),
    (("--fraction", "x"), None, "bad fraction 'x'"),
    ((), "fraction = x", "bad fraction 'x'"),
    ((), "min_volume = 1.5", "bad min_volume '1.5'"),
])
def test_a_setting_that_does_not_cast_names_its_key(tmp_path, capsys, flags, line, fragment):
    source = synth_into(capsys, tmp_path)
    argv = ["evaluate", "--input", source, "--output-dir", tmp_path / "reports", *flags]
    if line is not None:
        (tmp_path / "protocol.cfg").write_text(line + "\n")
        argv += ["--config", tmp_path / "protocol.cfg"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert fragment in err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("command, flags, fragment", [
    ("synth", ("--seed", "banana"), "bad --seed 'banana': invalid literal"),
    ("synth", ("--maturities", "30,x"), "bad --maturities '30,x': invalid literal"),
    ("synth", ("--start-date", "2012-13-01"), "bad --start-date '2012-13-01': month"),
    ("price", ("--date", "2012-13-01"), "bad --date '2012-13-01': month"),
    ("calibrate-vg", ("--date", "banana"), "bad --date 'banana': Invalid isoformat"),
])
def test_a_flag_that_does_not_cast_names_itself(tmp_path, capsys, command, flags, fragment):
    argv = [command, "--output-dir", tmp_path / "out", *flags]
    if command != "synth":
        argv += ["--input", synth_into(capsys, tmp_path)]
    if command == "price":
        (tmp_path / "queries.csv").write_text("strike,tau\n100.0,0.5\n")
        argv += ["--label", "BS", "--queries", tmp_path / "queries.csv"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert fragment in err
    assert not (tmp_path / "out").exists()


def test_seed_precedence_is_env_then_flag_then_file_then_default(tmp_path, capsys,
                                                                 monkeypatch):
    source = synth_into(capsys, tmp_path)
    config = tmp_path / "protocol.cfg"
    config.write_text("master_seed = 7\n")

    def seed(*argv):
        return evaluate_config(monkeypatch, capsys, "--input", source, *argv).master_seed

    assert seed() == DEFAULT_MASTER_SEED
    assert seed("--config", config) == 7
    assert seed("--config", config, "--seed", 8) == 8
    monkeypatch.setenv("PRICELAB_SEED", "9")
    assert seed("--config", config, "--seed", 8) == 9
    assert seed() == 9


def test_evaluate_records_puts_expiring_today_as_failed(tmp_path, capsys):
    # With min_ttm_days = 0, puts expiring on the quote date reach the
    # protocol; a held-out one used to stop evaluate with "tau must be
    # positive" instead of being recorded FAILED.
    source = synth_into(capsys, tmp_path)
    [day] = load_chains(source)
    put = next(q for q in day.quotes if q.kind is OptionKind.PUT)
    expiring = tuple(dataclasses.replace(put, strike=k, expiry=day.env.date, ttm_days=0,
                                         bid=k - 100.0, ask=k - 100.0 + 0.1)
                     for k in range(101, 121))
    save_chains([DailyChain(day.env, day.quotes + expiring)], source)
    (tmp_path / "protocol.cfg").write_text("min_ttm_days = 0\nlabels = LI,NW\n")
    code, _, err = run(capsys, "evaluate", "--input", source, "--output-dir", tmp_path / "reports",
                       "--config", tmp_path / "protocol.cfg")
    assert code == 0, err
    for label in ("LI", "NW"):
        count = {part: read_report_csv(tmp_path / "reports" / f"report_{label}_{part}.csv").count
                 for part in ("all", "hull", "nohull")}
        assert count["all"] > count["hull"] + count["nohull"]


def test_calibrate_vg_recovers_parameters(tmp_path, capsys):
    source = synth_into(
        capsys, tmp_path, "--model", "vg",
        "--theta", 0.0, "--sigma", 0.3, "--alpha", 3.0, "--maturities", "91,182",
    )
    code, out, _ = run(capsys, "calibrate-vg", "--input", source, "--output-dir", tmp_path)
    assert code == 0
    assert "theta=" in out
    with (tmp_path / "vg_params.csv").open(newline="") as handle:
        row = next(csv.DictReader(handle))
    assert float(row["objective"]) < 1e-8
    # (theta, sigma^2, alpha) is only identified up to a common scale, so
    # check the scale-invariant ratios against the generating parameters.
    sigma, alpha, theta = (float(row[k]) for k in ("sigma", "alpha", "theta"))
    assert sigma**2 / alpha == pytest.approx(0.3**2 / 3.0, rel=1e-2)
    assert abs(theta / alpha) < 1e-3


def test_calibrate_vg_uses_the_parity_dividend_curve(tmp_path, capsys):
    # The quotes carry a 1% dividend, which the day's put-call pairs
    # reveal; the 3% historical estimate in the file would keep every
    # model price off its quote.
    source = synth_into(
        capsys, tmp_path, "--model", "vg", "--dividend", 0.01,
        "--theta", 0.0, "--sigma", 0.3, "--alpha", 3.0, "--maturities", "91,182",
    )
    [day] = load_chains(source)
    save_chains([DailyChain(dataclasses.replace(day.env, div_hist=0.03), day.quotes)], source)
    code, _, err = run(capsys, "calibrate-vg", "--input", source, "--output-dir", tmp_path)
    assert code == 0, err
    with (tmp_path / "vg_params.csv").open(newline="") as handle:
        row = next(csv.DictReader(handle))
    assert float(row["objective"]) < 1e-12


def test_single_day_commands_need_a_date(tmp_path, capsys):
    source = synth_into(capsys, tmp_path, "--days", 2)
    code, _, err = run(capsys, "calibrate-vg", "--input", source, "--output-dir", tmp_path)
    assert code == 2
    assert "--date" in err
    code, _, err = run(capsys, "calibrate-vg", "--input", source,
                       "--output-dir", tmp_path, "--date", "2011-05-05")
    assert code == 2
    assert "2011-05-05" in err


def test_single_day_commands_fit_the_day_that_date_names(tmp_path, capsys):
    source = synth_into(capsys, tmp_path, "--days", 2, "--noise", 0.005)
    queries = tmp_path / "queries.csv"
    queries.write_text("strike,tau\n100.0,0.4986301369863014\n")
    code, _, err = run(capsys, "price", "--input", source, "--output-dir", tmp_path,
                       "--label", "LI", "--queries", queries, "--date", "2012-01-04")
    assert code == 0, err
    # A training quote of each day, so LI prices it at that day's own mid.
    first, second = ([q.mid for q in day.quotes if q.strike == 100.0 and q.ttm_days == 182
                      and q.kind is OptionKind.PUT] for day in load_chains(source))
    assert first != second
    with (tmp_path / "prices.csv").open(newline="") as handle:
        [priced] = csv.DictReader(handle)
    assert float(priced["price"]) == pytest.approx(second[0], rel=1e-12)


@pytest.mark.parametrize("command", ["price", "calibrate-vg"])
def test_single_day_commands_diagnose_a_file_without_quotes(tmp_path, capsys, command):
    source = tmp_path / "chains.csv"
    source.write_text("date,kind,strike,expiry,bid,ask,volume,spot,rate,div_hist\n")
    queries = tmp_path / "queries.csv"
    queries.write_text("strike,tau\n100.0,0.5\n")
    extra = ("--label", "LI", "--queries", queries) if command == "price" else ()
    code, _, err = run(capsys, command, "--input", source, "--output-dir", tmp_path, *extra)
    assert code == 2
    assert err == f"pricelab {command}: error: the input holds no quotes\n"


def test_price_writes_statuses(tmp_path, capsys):
    source = synth_into(capsys, tmp_path)
    queries = tmp_path / "queries.csv"
    queries.write_text("strike,tau\n100.0,0.4986301369863014\n200.0,0.5\n")
    code, out, _ = run(
        capsys, "price", "--input", source, "--output-dir", tmp_path,
        "--label", "li", "--queries", queries,
    )
    assert code == 0
    assert "priced 2 queries with LI" in out
    with (tmp_path / "prices.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    at_node, far = rows
    assert at_node["status"] == "priced"
    # 182/365 at strike 100 is a training quote, so LI returns its mid.
    day = load_chains(source)[0]
    mid = next(q.mid for q in day.quotes if q.strike == 100.0 and q.ttm_days == 182
               and q.kind.value == "P")
    assert float(at_node["price"]) == pytest.approx(mid, rel=1e-12)
    assert far["status"] == "outside_hull"
    assert far["price"] == ""


def test_price_needs_query_columns(tmp_path, capsys):
    source = synth_into(capsys, tmp_path)
    queries = tmp_path / "queries.csv"
    queries.write_text("strike\n100.0\n")
    code, _, err = run(capsys, "price", "--input", source, "--output-dir", tmp_path,
                       "--label", "LI", "--queries", queries)
    assert code == 2
    assert "strike,tau" in err


@pytest.mark.parametrize("rows, line, message", [
    ("105\n", 2, "needs both strike and tau"),
    ("100,0.5\n110,0.5\n-5,0.5\n", 4, "finite and positive"),
    ("100,0.5\nabc,0.5\n", 3, "must be numbers"),
    ("100,\n", 2, "must be numbers"),
    ("100,nan\n", 2, "finite and positive"),
    ("inf,0.5\n", 2, "finite and positive"),
    ("100,0\n", 2, "finite and positive"),
    # A spreadsheet's empty row of bare commas is a blank line.
    ("100,0.5\n,\n , \n-5,0.5\n", 5, "finite and positive"),
])
def test_price_rejects_a_bad_query_row_before_writing(tmp_path, capsys, rows, line, message):
    source = synth_into(capsys, tmp_path)
    queries = tmp_path / "queries.csv"
    queries.write_text("strike,tau\n" + rows)
    code, _, err = run(capsys, "price", "--input", source, "--output-dir", tmp_path,
                       "--label", "LI", "--queries", queries)
    assert code == 2
    assert err.startswith(f"pricelab price: error: {queries} line {line}: ")
    assert message in err
    assert not (tmp_path / "prices.csv").exists()


@pytest.mark.parametrize("text, line, message", [
    ("strike,tau,strike\n95.0,0.25,500\n", 1, "names strike more than once"),
    ("tau,strike,tau\n0.25,95.0,0.5\n", 1, "names tau more than once"),
    ("strike,tau\n100,0.5,7\n", 2, "wrong number of fields"),
    ("strike,tau,note\n100,0.5\n", 2, "wrong number of fields"),
    ("strike,tau\n100,0.5\n\n110,0.5,1\n", 4, "wrong number of fields"),
])
def test_price_reads_queries_by_column_and_width(tmp_path, capsys, text, line, message):
    source = synth_into(capsys, tmp_path)
    queries = tmp_path / "queries.csv"
    queries.write_text(text)
    code, _, err = run(capsys, "price", "--input", source, "--output-dir", tmp_path,
                       "--label", "LI", "--queries", queries)
    assert code == 2
    assert err.startswith(f"pricelab price: error: {queries} line {line}: ")
    assert message in err
    assert not (tmp_path / "prices.csv").exists()


@pytest.mark.parametrize("header", [" strike , tau ", "\ufeffstrike,tau", "\ufeff strike ,tau"],
                         ids=["padded", "byte-order mark", "both"])
def test_price_reads_a_padded_header_or_a_byte_order_mark(tmp_path, capsys, header):
    source = synth_into(capsys, tmp_path)
    rows = "95.0,0.25\n100.0,0.5\n200.0,0.5\n"
    written = {}
    for name, text in [("plain", "strike,tau\n" + rows), ("other", header + "\n" + rows)]:
        queries = tmp_path / f"{name}.csv"
        queries.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "price", "--input", source, "--output-dir", tmp_path / name,
                           "--label", "LI", "--queries", queries)
        assert code == 0, err
        written[name] = (tmp_path / name / "prices.csv").read_bytes()
    assert written["other"] == written["plain"]


def test_missing_input_is_diagnosed(tmp_path, capsys):
    code, _, err = run(capsys, "audit", "--input", tmp_path / "nope.csv",
                       "--output-dir", tmp_path)
    assert code == 2
    assert "nope.csv" in err


def test_report_needs_report_files(tmp_path, capsys):
    code, _, err = run(capsys, "report", "--input", tmp_path)
    assert code == 2
    assert "report_*.csv" in err


def write_report(directory, keep):
    """A report_LI_all.csv under directory holding the lines keep selects
    from a well-formed report's lines."""
    path = directory / "report_LI_all.csv"
    write_report_csv(aggregate([], label="LI"), path)
    path.write_text("".join(keep(path.read_text().splitlines(keepends=True))))
    return path


def test_report_diagnoses_a_report_without_cdf_rows(tmp_path, capsys):
    write_report(tmp_path, lambda lines: lines[:10])
    assert "threshold_pct" not in (tmp_path / "report_LI_all.csv").read_text()
    code, _, err = run(capsys, "report", "--input", tmp_path)
    assert code == 2
    assert "report_LI_all.csv line 10" in err


def test_report_diagnoses_a_one_field_row(tmp_path, capsys):
    write_report(tmp_path, lambda lines: [
        "mean\n" if line.startswith("mean,") else line for line in lines
    ])
    code, _, err = run(capsys, "report", "--input", tmp_path)
    assert code == 2
    assert "report_LI_all.csv line 6" in err


def test_bad_arguments_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--model", "heston"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ingest", "--input", "chains.csv"],
    ["audit", "--input", "chains.csv"],
    ["calibrate-vg", "--input", "chains.csv"],
    ["price", "--input", "chains.csv", "--label", "LI", "--queries", "queries.csv"],
    ["report", "--input", "reports"],
], ids=lambda argv: argv[0])
def test_only_synth_and_evaluate_take_a_seed(capsys, argv):
    # These never read a seed, so argparse rejects one rather than ignore it.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_price_fits_on_the_prepared_day(tmp_path, capsys):
    # One put quoted at zero: evaluate's day preparation drops it, and so
    # must price, or it fits a day that evaluate never scores.
    source = synth_into(capsys, tmp_path)
    [chain] = load_chains(source)
    quotes = tuple(dataclasses.replace(q, bid=0.0, ask=0.0)
                   if (q.kind, q.strike, q.ttm_days) == (OptionKind.PUT, 75.0, 30) else q
                   for q in chain.quotes)
    chain = DailyChain(chain.env, quotes)
    save_chains([chain], source)
    day, curve, _ = prepare_day(chain, ProtocolConfig())
    assert len(day) == len(chain.of_kind(OptionKind.PUT)) - 1
    queries = [(76.0, 40 / 365), (100.0, 0.25), (72.0, 0.1), (200.0, 0.5)]
    (tmp_path / "queries.csv").write_text(
        "strike,tau\n" + "".join(f"{k!r},{t!r}\n" for k, t in queries))
    for label in ("LI", "NW", "BSNW"):
        code, _, err = run(capsys, "price", "--input", source, "--output-dir", tmp_path,
                           "--label", label, "--queries", tmp_path / "queries.csv")
        assert code == 0, err
        estimator = fit(EstimatorLabel(label), OptionKind.PUT, day.quotes, day.env, curve)
        with (tmp_path / "prices.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        expected = [predict(estimator, k, t) for k, t in queries]
        assert [row["price"] for row in rows] == [
            "" if p.price is None else repr(p.price) for p in expected]


def test_price_statuses_match_evaluate_day(tmp_path, capsys):
    # evaluate_day fits the prepared day's quotes and prices probe quotes
    # appended to it; price fits the same quotes and prices the probes'
    # (strike, tau). Each probe gets the same status and price from both.
    source = synth_into(capsys, tmp_path)
    [chain] = load_chains(source)
    day, curve, _ = prepare_day(chain, ProtocolConfig())
    template = day.quotes[0]
    probes = tuple(dataclasses.replace(template, strike=k, ttm_days=d, bid=1.0, ask=1.0)
                   for k, d in [(100.0, 182), (103.0, 120), (200.0, 182), (100.0, 800)])
    (tmp_path / "queries.csv").write_text(
        "strike,tau\n" + "".join(f"{q.strike!r},{q.tau!r}\n" for q in probes))
    scored = DailyChain(day.env, day.quotes + probes)
    split = DaySplit(tuple(range(len(day))), tuple(range(len(day), len(scored))))
    seen = set()
    for label in ("LI", "NW"):
        code, _, err = run(capsys, "price", "--input", source, "--output-dir", tmp_path,
                           "--label", label, "--queries", tmp_path / "queries.csv")
        assert code == 0, err
        with (tmp_path / "prices.csv").open(newline="") as handle:
            rows = [(row["status"], row["price"]) for row in csv.DictReader(handle)]
        records = evaluate_day([EstimatorLabel(label)], scored, split, curve)
        assert rows == [(r.status.value, "" if r.est_price is None else repr(r.est_price))
                        for r in records]
        seen.update(status for status, _ in rows)
    assert seen == {"priced", "extrapolated", "outside_hull"}


def test_far_price_queries_raise_no_floating_point_warning(tmp_path, capsys):
    # The CI step of the same name, in process. The kernel query path must
    # cover a square past the float range (1e300) and two finite squares
    # whose sum overflows: the last query is about 1.2e154 of the day's NW
    # and BSNW bandwidths (about 7.6 and 0.13) away in both coordinates.
    source = synth_into(capsys, tmp_path, "--days", 4, "--noise", 0.005)
    queries = tmp_path / "far_queries.csv"
    queries.write_text("strike,tau\n95.0,0.25\n1e300,0.5\n9.2e154,1.5e153\n")
    for label in ("NW", "BSNW"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "price", "--input", source, "--date", "2012-01-03",
                               "--label", label, "--queries", queries,
                               "--output-dir", tmp_path / label)
        assert code == 0, err
        with (tmp_path / label / "prices.csv").open(newline="") as handle:
            rows = [(row["strike"], row["tau"], row["price"] != "", row["status"])
                    for row in csv.DictReader(handle)]
        assert rows == [("95.0", "0.25", True, "priced"), ("1e+300", "0.5", False, "failed"),
                        ("9.2e+154", "1.5e+153", False, "failed")], label


# SHA-256 of prices.csv from `pricelab price` on one synth day (--noise
# 0.005) over a 12 x 10 grid of strikes 60..140 and taus 0.05..1.4, which
# reaches inside and outside every hull: the bytes of the per-query path.
_PINNED_GRID_PRICES = {
    "LI": "b29a85fd910fb45c48c49f4c1fcf333a8222787805f8c59ce45fc21d2c30f8c7",
    "LIB": "a2d0eb16bca6bb4d19a8938d4841d774a1d9ac1f28da34f32f74fa02b24bdd77",
    "BS": "0e31dfef3bcca47708c04918531390a1928ba52ed5088d68d357a2f5c2fe6504",
    "NW": "bd016b5c6d307b5293449d63e82f6d7ff01023810670dbcab78da43ffb9f6f64",
    "BSNW": "349c891c26803faca1e4efc69eb8022d26cab7fe90edad67612ed00d8340bd05",
    "NWCV": "f3e688122dbfefc509522d45004c9732357037d63f5edf39caa0109fa7c821e3",
    "BSNWCV": "35afd80ec968f3eece01c40b9bb979998e036bf0b92cafc07aca904b89d67d1f",
}


def test_price_grid_bytes_stay_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PRICELAB_SEED", raising=False)
    source = synth_into(capsys, tmp_path, "--noise", 0.005)
    queries = tmp_path / "grid_queries.csv"
    queries.write_text("strike,tau\n" + "".join(
        f"{float(k)!r},{float(t)!r}\n"
        for k in np.linspace(60.0, 140.0, 12) for t in np.linspace(0.05, 1.4, 10)))
    statuses = set()
    for label, digest in _PINNED_GRID_PRICES.items():
        code, _, err = run(capsys, "price", "--input", source, "--label", label,
                           "--queries", queries, "--output-dir", tmp_path / label)
        assert code == 0, err
        written = (tmp_path / label / "prices.csv").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest, label
        statuses.update(row.rsplit(b",", 1)[1] for row in written.splitlines()[1:])
    assert statuses == {b"priced", b"extrapolated", b"outside_hull", b"failed"}
