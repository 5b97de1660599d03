"""Every file that load_chains accepts gets through every subcommand.

Files of one to three days, each in its own environment (spots from 1e-3
to 5,000, rates from -1% to 30%, historical yields from -2% to 50%), hold
mispriced, zero-bid, zero-volume, deep-wing, expiring and ten-year
quotes. Each subcommand runs on them through cli.main and exits 0, or
exits 2 with one diagnostic line; no exception and no warning escapes."""

import contextlib
import datetime as dt
import io
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pricelab import cli
from pricelab.black_scholes import bs_price
from pricelab.market_data import DailyChain, MarketEnv, OptionKind, OptionQuote, save_chains

CALL, PUT = OptionKind.CALL, OptionKind.PUT
FIRST_DAY = dt.date(2012, 1, 3)
NON_VG_LABELS = ("LI", "LIB", "BS", "NW", "NWCV", "BSNW", "BSNWCV")

environments = st.tuples(
    st.sampled_from((1e-3, 1.0, 100.0, 100.0, 5000.0)),
    st.sampled_from((-0.01, 0.0, 0.02, 0.02, 0.3)),
    st.sampled_from((-0.02, 0.0, 0.01, 0.01, 0.5)),
)

MONEYNESS = (0.05, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 20.0)
MATURITIES = (7, 30, 91, 182, 3650)

# One quote: (kind, strike over spot, days to expiry, vol, price factor,
# quote style, volume). The mid is the Black-Scholes price at the vol (the
# intrinsic value plus a little when expiring today) times the factor,
# which can push it outside the no-arbitrage band; the style widens the
# spread or zeroes the bid.
odd_quotes = st.tuples(
    st.sampled_from((PUT, CALL)),
    st.sampled_from(MONEYNESS),
    st.sampled_from((0, 1) + MATURITIES),
    st.sampled_from((0.1, 0.25, 0.6)),
    st.sampled_from((1.0, 0.9, 1.1, 3.0)),
    st.sampled_from(("tight", "wide", "zero bid")),
    st.sampled_from((1000, 10, 0)),
)

# A day: its environment, a grid of liquid puts and calls at a vol of 0.25
# (3 to 7 strikes by 1 to 3 maturities), and up to 8 odd quotes.
day_rows = st.tuples(
    environments,
    st.lists(st.sampled_from(MONEYNESS), min_size=3, max_size=7, unique=True),
    st.lists(st.sampled_from(MATURITIES), min_size=1, max_size=3, unique=True),
    st.lists(odd_quotes, max_size=8),
)


def chain_of(day, environment, moneyness, maturities, odd):
    spot, rate, div_hist = environment
    env = MarketEnv(date=day, spot=spot, rate=rate, div_hist=div_hist)
    grid = [(kind, m, days, 0.25, 1.0, "tight", 1000)
            for kind in (PUT, CALL) for m in moneyness for days in maturities]
    records = []
    for kind, m, days, vol, factor, style, volume in grid + odd:
        strike = m * spot
        if days == 0:
            intrinsic = strike - spot if kind is PUT else spot - strike
            price = max(intrinsic, 0.0) + 5e-4 * spot
        else:
            price = bs_price(kind, spot, strike, rate, div_hist, vol, days / 365)
        mid = price * factor
        half_spread = (0.2 if style == "wide" else 0.01) * mid
        bid = 0.0 if style == "zero bid" else mid - half_spread
        records.append(OptionQuote(kind, strike, day + dt.timedelta(days=days), days, bid,
                                   mid + half_spread, volume))
    return DailyChain(env, tuple(records))


def run(*argv):
    """cli.main on argv, checked: exit 0, or exit 2 with one line on
    stderr that names the subcommand. Returns the exit status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main([str(arg) for arg in argv])
    if status == 0:
        assert err.getvalue() == ""
    else:
        assert status == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"pricelab {argv[0]}: error: "), lines
    return status


def run_every_subcommand(directory, days, kind, trim, labels, price_label):
    """Each subcommand, through run, on a file of these days."""
    chains = [chain_of(FIRST_DAY + dt.timedelta(days=i), *rows) for i, rows in enumerate(days)]
    path = directory / "chains.csv"
    save_chains(chains, path)
    spot = chains[0].env.spot
    queries = directory / "queries.csv"
    queries.write_text("strike,tau\n" + "".join(
        f"{moneyness * spot!r},{tau!r}\n" for moneyness in (0.5, 1.0, 1.5) for tau in (0.1, 1.0)))
    date = FIRST_DAY.isoformat()
    reports = directory / "reports"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run("ingest", "--input", path, "--output-dir", directory / "ingested")
        run("audit", "--input", path, "--output-dir", directory / "audit")
        evaluated = run("evaluate", "--input", path, "--kind", kind, "--labels", ",".join(labels),
                        *(["--trim"] if trim else []), "--output-dir", reports)
        assert run("report", "--input", reports) == evaluated
        run("price", "--input", path, "--date", date, "--kind", kind, "--label", price_label,
            "--queries", queries, "--output-dir", directory / "priced")
        if "VG" in labels:
            run("calibrate-vg", "--input", path, "--date", date, "--kind", kind,
                "--output-dir", directory / "vg")


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(days=st.lists(day_rows, min_size=1, max_size=3), kind=st.sampled_from(("put", "call")),
       trim=st.booleans(), label=st.sampled_from(NON_VG_LABELS))
def test_every_subcommand_takes_every_accepted_file(tmp_path_factory, days, kind, trim, label):
    run_every_subcommand(tmp_path_factory.mktemp("cli"), days, kind, trim, NON_VG_LABELS, label)


# VG calibrates by Nelder-Mead on every day, up to seconds when it stalls,
# so it runs on a few files of one day each: evaluated with every label,
# priced and calibrated.
@settings(max_examples=4, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(day=day_rows, kind=st.sampled_from(("put", "call")), trim=st.booleans())
def test_vg_takes_every_accepted_day(tmp_path_factory, day, kind, trim):
    run_every_subcommand(tmp_path_factory.mktemp("cli"), [day], kind, trim,
                         NON_VG_LABELS + ("VG",), "VG")
