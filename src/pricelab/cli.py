"""Command-line interface.

Subcommands:

    ingest        validate a chain CSV and rewrite it normalized
    synth         generate synthetic chains from a known model
    audit         parity-audit ITM quotes against their OTM counterparts
    evaluate      run the out-of-sample protocol and write report CSVs
    calibrate-vg  fit Variance-Gamma parameters to one day's quotes
    price         fit one estimator on a day and price a query list
    report        render previously written report CSVs as text tables

Only synth and evaluate take --seed. evaluate casts its flags' text as
it casts a --config file's lines; PRICELAB_SEED beats --seed, which
beats the file. Every subcommand but report takes --output-dir. price and
calibrate-vg fit on the day as evaluate prepares it, with the trim off.
Exit status is 0 on success and 2 on any diagnosed failure; diagnostics
name the subcommand and the offending input.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import math
import os
import sys
from pathlib import Path

from . import market_data, reporting, synth
from .errors import NoAtmPairs, PricelabError
from .estimators import EstimatorLabel, PricingEstimator, TrainingSet, predict, prediction_status
from .harness import DEFAULT_MASTER_SEED, apply_config, cast_text, prepare_day, read_config, run_protocol
from .market_data import load_chains, save_chains
from .parity import estimate_dividend_curve, itm_parity_audit
from .variance_gamma import vg_eta

_ENV_SEED = "PRICELAB_SEED"


def _master_seed(args: argparse.Namespace) -> str | None:
    """PRICELAB_SEED when set, else --seed, as text: None when neither is."""
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        cast_text(_ENV_SEED, int, env)
        return env
    return args.seed


def _load_input(path: str) -> list[market_data.DailyChain]:
    if not Path(path).exists():
        raise FileNotFoundError(f"input file {path} does not exist")
    return load_chains(path)


def _single_day(chains, date_text: str | None):
    if not chains:
        raise ValueError("the input holds no quotes")
    if date_text:
        wanted = cast_text("--date", dt.date.fromisoformat, date_text)
        for chain in chains:
            if chain.env.date == wanted:
                return chain
        raise ValueError(f"no quotes dated {wanted} in the input")
    if len(chains) != 1:
        dates = ", ".join(c.env.date.isoformat() for c in chains)
        raise ValueError(f"input holds several days ({dates}); pick one with --date")
    return chains[0]


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_ingest(args: argparse.Namespace) -> int:
    chains = _load_input(args.input)
    out = _out_dir(args) / "chains.csv"
    save_chains(chains, out, include_iv=args.with_iv)
    total = sum(len(c) for c in chains)
    print(f"ingested {total} quotes over {len(chains)} days -> {out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    seed = _master_seed(args)
    chains = synth.synth_chain(
        args.model,
        spot=args.spot,
        rate=args.rate,
        dividend=args.dividend,
        sigma=args.sigma,
        theta=args.theta,
        alpha=args.alpha,
        maturities_days=cast_text("--maturities", lambda t: tuple(map(int, t.split(","))), args.maturities),
        start_date=cast_text("--start-date", dt.date.fromisoformat, args.start_date),
        n_days=args.days,
        noise=args.noise,
        seed=DEFAULT_MASTER_SEED if seed is None else cast_text("--seed", int, seed),
    )
    out = _out_dir(args) / "chains.csv"
    save_chains(chains, out)
    total = sum(len(c) for c in chains)
    print(f"wrote {total} {args.model.upper()} quotes over {len(chains)} days -> {out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    chains = _load_input(args.input)
    days = []
    for chain in chains:
        liquid = market_data.filter_liquidity(chain)
        try:
            days.append((liquid, estimate_dividend_curve(liquid)))
        except NoAtmPairs:
            pass
    merged = itm_parity_audit(days)
    out = _out_dir(args) / "audit.csv"
    reporting.write_report_csv(merged, out)
    print(reporting.render_reports([merged]))
    no_pairs = len(chains) - len(days)
    if no_pairs:
        print(f"skipped {no_pairs} of {len(chains)} days without ATM put-call pairs")
    print(f"wrote {out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    chains = _load_input(args.input)
    settings = read_config(args.config) if args.config else {}
    flags = {"master_seed": _master_seed(args), "labels": args.labels, "kind": args.kind,
             "trim": args.trim, "fraction": args.fraction, "partitions": args.partitions,
             "workers": args.workers}
    settings.update((key, text) for key, text in flags.items() if text is not None)
    result = run_protocol(chains, apply_config(settings))
    out = _out_dir(args)
    written = result.write(out)
    reports = [result.reports[key] for key in sorted(result.reports)]
    print(reporting.render_reports(reports))
    print(f"wrote {len(written)} reports -> {out}")
    return 0


def _fit_day(args: argparse.Namespace, label: EstimatorLabel) -> PricingEstimator:
    """Fit one label on the day picked by --date, prepared as evaluate
    prepares a day with the trim off."""
    chain = _single_day(_load_input(args.input), args.date)
    config = apply_config({"kind": args.kind})
    day, curve, _ = prepare_day(chain, config)
    return TrainingSet(config.kind, day, curve).fit(label)


def _cmd_calibrate_vg(args: argparse.Namespace) -> int:
    meta = _fit_day(args, EstimatorLabel.VG).meta
    theta, sigma, alpha = meta["params"]
    eta, objective = vg_eta(theta, sigma, alpha), meta["objective"]
    out = _out_dir(args) / "vg_params.csv"
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["theta", "sigma", "alpha", "eta", "objective"])
        writer.writerow([repr(theta), repr(sigma), repr(alpha), repr(eta), repr(objective)])
    print(f"theta={theta:.6g} sigma={sigma:.6g} alpha={alpha:.6g} "
          f"eta={eta:.6g} objective={objective:.3e}")
    print(f"wrote {out}")
    return 0


def _cmd_price(args: argparse.Namespace) -> int:
    # Every query is read and checked before the fit, so a bad row leaves
    # no prices.csv behind.
    queries = []
    with open(args.queries, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = [name.strip() for name in next(reader, [])]
        if not {"strike", "tau"} <= set(header):
            raise ValueError(f"query file {args.queries} needs strike,tau columns")
        for name in ("strike", "tau"):
            if header.count(name) > 1:
                raise ValueError(f"{args.queries} line 1: names {name} more than once")
        i_strike, i_tau = header.index("strike"), header.index("tau")
        for row in reader:
            if not "".join(row).strip():
                continue  # a blank line, or an empty spreadsheet row
            where = f"{args.queries} line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: wrong number of fields; needs both strike and tau, "
                                 f"one field per header column")
            fields = (row[i_strike], row[i_tau])
            try:
                strike, tau = map(float, fields)
            except ValueError:
                raise ValueError(f"{where}: strike and tau must be numbers, got {fields}") from None
            if not (math.isfinite(strike) and math.isfinite(tau) and strike > 0.0 and tau > 0.0):
                raise ValueError(f"{where}: strike and tau must be finite and positive, "
                                 f"got {strike}, {tau}")
            queries.append((strike, tau))

    estimator = _fit_day(args, EstimatorLabel(args.label.upper()))
    out = _out_dir(args) / "prices.csv"
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["strike", "tau", "price", "status"])
        for strike, tau in queries:
            prediction = predict(estimator, strike, tau)
            price_text = "" if prediction.price is None else repr(prediction.price)
            writer.writerow([repr(strike), repr(tau), price_text,
                             prediction_status(prediction).value])
    print(f"priced {len(queries)} queries with {estimator.label.value} -> {out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    paths = sorted(Path(args.input).glob("report_*.csv"))
    if not paths:
        raise FileNotFoundError(f"no report_*.csv files under {args.input}")
    reports = [reporting.read_report_csv(path) for path in paths]
    print(reporting.render_reports(reports))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pricelab",
        description="Daily option-chain pricing estimators and their evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = False) -> None:
        p.add_argument("--output-dir", default=".", help="directory for outputs")
        if seed:
            p.add_argument("--seed", help=f"master seed (default {DEFAULT_MASTER_SEED}; "
                                          f"env {_ENV_SEED} overrides)")

    p = sub.add_parser("ingest", help="validate and normalize a chain CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--with-iv", action="store_true",
                   help="keep the input's implied_vol column, blank where it has none "
                        "(pricelab never reads it)")
    common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic chains")
    p.add_argument("--model", default="BS", choices=["BS", "VG", "bs", "vg"])
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--rate", type=float, default=0.02)
    p.add_argument("--dividend", type=float, default=0.01)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--theta", type=float, default=-0.1)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--maturities", default="30,91,182,365", help="days, comma separated")
    p.add_argument("--start-date", default="2012-01-03")
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    common(p, seed=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("audit", help="parity-audit ITM quotes")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("evaluate", help="run the out-of-sample protocol")
    p.add_argument("--input", required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--labels", help="comma-separated estimator labels")
    p.add_argument("--kind", help="put or call")
    p.add_argument("--trim", action="store_const", const="true", help="apply the price/vol trim")
    p.add_argument("--fraction", help="training fraction")
    p.add_argument("--partitions", help="comma-separated partition names")
    p.add_argument("--workers", help="parallel day workers")
    common(p, seed=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("calibrate-vg", help="fit Variance-Gamma parameters to one day")
    p.add_argument("--input", required=True)
    p.add_argument("--date", help="day to calibrate (defaults to the only day)")
    p.add_argument("--kind", default="put")
    common(p)
    p.set_defaults(func=_cmd_calibrate_vg)

    p = sub.add_parser("price", help="fit one estimator and price queries")
    p.add_argument("--input", required=True)
    p.add_argument("--date", help="day to fit (defaults to the only day)")
    p.add_argument("--label", required=True)
    p.add_argument("--kind", default="put")
    p.add_argument("--queries", required=True, help="CSV with strike,tau columns")
    common(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("report", help="render report CSVs as text tables")
    p.add_argument("--input", required=True, help="directory holding report_*.csv")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PricelabError, ValueError, OSError) as exc:
        print(f"pricelab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
