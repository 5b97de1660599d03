"""The protocol returns records, never exceptions: on small adversarial
chains that load_chains accepts, every non-VG label gets one record per
held-out quote, and each label's reports account for every record."""

import datetime as dt
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pricelab.black_scholes import bs_price
from pricelab.harness import ProtocolConfig, prepare_day, run_protocol, split_day
from pricelab.market_data import (DailyChain, MarketEnv, OptionKind, OptionQuote, load_chains,
                                  save_chains)
from pricelab.reporting import ErrorStatus

CALL, PUT = OptionKind.CALL, OptionKind.PUT
DAY = dt.date(2012, 1, 3)
ENV = MarketEnv(date=DAY, spot=100.0, rate=0.02, div_hist=0.01)
NON_VG_LABELS = ("LI", "LIB", "BS", "NW", "NWCV", "BSNW", "BSNWCV")
MATURITIES = (0, 1, 7, 30, 91, 182)
STRIKES = tuple(float(k) for k in range(80, 121, 5))

# One quote: (kind, strike, days to expiry, vol, price factor, quote style,
# volume). The mid is the Black-Scholes price at the vol (the intrinsic
# value when expiring today) times the factor, which can push it outside
# the no-arbitrage band; the style widens the spread or zeroes the bid.
quotes = st.tuples(
    st.sampled_from((PUT, PUT, CALL)),
    st.sampled_from(STRIKES),
    st.sampled_from(MATURITIES),
    st.sampled_from((0.1, 0.25, 0.6)),
    st.sampled_from((1.0, 1.0, 0.9, 1.1)),
    st.sampled_from(("tight", "tight", "wide", "zero bid")),
    st.sampled_from((1000, 1000, 10)),
)


def option_quote(kind, strike, days, vol, factor, style, volume):
    if days == 0:
        price = max(strike - ENV.spot if kind is PUT else ENV.spot - strike, 0.0) + 0.05
    else:
        price = bs_price(kind, ENV.spot, strike, ENV.rate, ENV.div_hist, vol, days / 365)
    mid = price * factor
    half_spread = 0.2 * mid if style == "wide" else 0.01 * mid
    bid = 0.0 if style == "zero bid" else mid - half_spread
    return OptionQuote(kind, strike, DAY + dt.timedelta(days=days), days, bid, mid + half_spread,
                       volume)


def round_trip(rows):
    """The day of those quotes as load_chains reads it back from a file."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "chains.csv"
        save_chains([DailyChain(ENV, tuple(option_quote(*row) for row in rows))], path)
        return load_chains(path)


# Puts expiring today beside a month of puts, no calls (so no ATM pairs):
# with min_ttm_days = 0 some of the held-out puts expire today.
EXPIRING = ([(PUT, k, days, 0.25, 1.0, "tight", 1000) for k in STRIKES for days in (0, 30)],
            0, False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(quotes, min_size=2, max_size=30),
       min_ttm_days=st.sampled_from((0, 1)), trim=st.booleans())
@example(*EXPIRING)
def test_the_protocol_records_every_held_out_quote(rows, min_ttm_days, trim):
    chains = round_trip(rows)
    config = ProtocolConfig(labels=NON_VG_LABELS, trim=trim, min_ttm_days=min_ttm_days)
    result = run_protocol(chains, config)

    held_out = 0
    for chain in chains:
        day, _, _ = prepare_day(chain, config)
        if len(day) >= 2:
            held_out += len(split_day(len(day), day.env.date, config.master_seed,
                                      config.fraction).test)
    for label in NON_VG_LABELS:
        records = [r for r in result.errors if r.label == label]
        assert len(records) == held_out
        failed = sum(r.status is ErrorStatus.FAILED for r in records)
        count = {part: result.report(label, part).count for part in ("all", "hull", "nohull")}
        assert count["all"] == len(records) == count["hull"] + count["nohull"] + failed
