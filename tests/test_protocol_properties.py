"""Properties over small adversarial chains that load_chains accepts.

The protocol returns records, never exceptions: every non-VG label gets
one record per held-out quote, and each label's reports account for every
record. A chain's columns agree with its records: built from records or
read back from a file, it holds the same quotes, and each operation on
its columns gives what its record-by-record definition (tests/oracles.py)
gives, the parity audit and the cross-date report included."""

import dataclasses
import datetime as dt
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from pricelab.black_scholes import bs_price, fill_implied_vols
from pricelab.harness import (ProtocolConfig, cross_date_report, prepare_day, run_protocol,
                              split_day)
from pricelab.market_data import (DailyChain, MarketEnv, OptionKind, OptionQuote,
                                  filter_liquidity, load_chains, quote_sort_key, save_chains,
                                  trim_mask)
from pricelab.parity import DividendCurve, _atm_pairs, itm_parity_records
from pricelab.reporting import ErrorStatus

CALL, PUT = OptionKind.CALL, OptionKind.PUT
DAY = dt.date(2012, 1, 3)
ENV = MarketEnv(date=DAY, spot=100.0, rate=0.02, div_hist=0.01)
NON_VG_LABELS = ("LI", "LIB", "BS", "NW", "NWCV", "BSNW", "BSNWCV")
MATURITIES = (0, 1, 7, 30, 91, 182)
STRIKES = tuple(float(k) for k in range(80, 121, 5))

# One quote: (kind, strike, days to expiry, vol, price factor, quote style,
# volume, the file's implied vol). The mid is the Black-Scholes price at
# the vol (the intrinsic value when expiring today) times the factor,
# which can push it outside the no-arbitrage band; the style widens the
# spread or zeroes the bid. The implied vol only passes through.
quotes = st.tuples(
    st.sampled_from((PUT, PUT, CALL)),
    st.sampled_from(STRIKES),
    st.sampled_from(MATURITIES),
    st.sampled_from((0.1, 0.25, 0.6)),
    st.sampled_from((1.0, 1.0, 0.9, 1.1)),
    st.sampled_from(("tight", "tight", "wide", "zero bid")),
    st.sampled_from((1000, 1000, 10, 0)),
    st.sampled_from((None, None, 0.3)),
)


def option_quote(kind, strike, days, vol, factor, style, volume, implied_vol):
    if days == 0:
        price = max(strike - ENV.spot if kind is PUT else ENV.spot - strike, 0.0) + 0.05
    else:
        price = bs_price(kind, ENV.spot, strike, ENV.rate, ENV.div_hist, vol, days / 365)
    mid = price * factor
    half_spread = 0.2 * mid if style == "wide" else 0.01 * mid
    bid = 0.0 if style == "zero bid" else mid - half_spread
    return OptionQuote(kind, strike, DAY + dt.timedelta(days=days), days, bid, mid + half_spread,
                       volume, implied_vol)


def round_trip(rows):
    """The day of those quotes as load_chains reads it back from a file."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "chains.csv"
        save_chains([DailyChain(ENV, tuple(option_quote(*row) for row in rows))], path,
                    include_iv=True)
        return load_chains(path)


# Puts expiring today beside a month of puts, no calls (so no ATM pairs):
# with min_ttm_days = 0 some of the held-out puts expire today.
EXPIRING = ([(PUT, k, days, 0.25, 1.0, "tight", 1000, None) for k in STRIKES for days in (0, 30)],
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


CURVE = DividendCurve([0.1, 0.5], [0.012, 0.008])


def pairs_by_tau(pairs):
    return {tau: sorted(legs, key=lambda leg: leg[0]) for tau, legs in pairs.items()}


def later_day(chain, days, spot):
    """The chain's quotes in reverse order, each at its days to expiry,
    on the day that many days later, at this spot."""
    shift = dt.timedelta(days=days)
    env = dataclasses.replace(chain.env, date=chain.env.date + shift, spot=spot)
    return DailyChain(env, [dataclasses.replace(q, expiry=q.expiry + shift)
                            for q in reversed(chain.quotes)])


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(quotes, min_size=1, max_size=30), min_ttm_days=st.sampled_from((0, 1, 30)),
       min_volume=st.sampled_from((0, 100, 1000)), max_iv=st.sampled_from((0.3, 0.7)),
       min_price=st.sampled_from((0.0, 0.125, 1.0)))
# An ATM contract quoted twice in each kind: the last quote of each counts.
@example(rows=[(kind, 100.0, 30, vol, factor, "tight", 1000, None)
               for kind in (CALL, PUT) for vol, factor in ((0.25, 1.0), (0.6, 1.1))],
         min_ttm_days=1, min_volume=100, max_iv=0.7, min_price=0.125)
# An in-the-money call and its put, each quoted twice: the audit prices
# each call off the last put.
@example(rows=[(kind, 85.0, 30, vol, factor, "tight", 1000, None)
               for kind in (CALL, PUT) for vol, factor in ((0.25, 1.0), (0.6, 1.1))],
         min_ttm_days=1, min_volume=100, max_iv=0.7, min_price=0.125)
def test_columns_agree_with_their_records(rows, min_ttm_days, min_volume, max_iv, min_price):
    records = tuple(option_quote(*row) for row in rows)
    built = DailyChain(ENV, records)
    (loaded,) = round_trip(rows)
    canonical = DailyChain(ENV, sorted(records, key=quote_sort_key))
    assert built.quotes == records
    assert loaded == canonical and loaded.quotes == canonical.quotes
    # Records built from columns carry Python types, and None for no vol.
    for q in loaded.quotes:
        assert (type(q.strike), type(q.bid), type(q.ask)) == (float, float, float)
        assert (type(q.ttm_days), type(q.volume), type(q.expiry)) == (int, int, dt.date)
        assert q.implied_vol is None or type(q.implied_vol) is float
    assert loaded.mids.tolist() == [q.mid for q in loaded.quotes]
    assert loaded.taus.tolist() == [q.tau for q in loaded.quotes]

    for chain in (built, loaded):
        kept = filter_liquidity(chain, min_ttm_days, min_volume)
        assert kept.quotes == oracles.filter_liquidity(chain, min_ttm_days, min_volume)
        for kind in (CALL, PUT):
            assert chain.of_kind(kind).quotes == oracles.of_kind(chain, kind)
        vols, n_nan = fill_implied_vols(chain, CURVE)
        expected, expected_nan = oracles.fill_implied_vols(chain, CURVE)
        assert vols.tobytes() == expected.tobytes() and n_nan == expected_nan
        mask = trim_mask(chain, vols, max_iv, min_price)
        assert mask.tolist() == oracles.trim_mask(chain, vols, max_iv, min_price).tolist()
        assert pairs_by_tau(_atm_pairs(chain)) == pairs_by_tau(oracles.atm_pairs(chain))
        # repr tells a NumPy scalar from a Python float, and a NaN equals itself.
        audit = itm_parity_records(chain, CURVE)
        assert repr(audit) == repr(oracles.itm_parity_records(chain, CURVE))
        # Three days within the spot tolerance of each other, one beyond it.
        days = [later_day(chain, 2, 100.04), chain, later_day(chain, 3, 101.0),
                later_day(chain, 1, 100.03)]
        matches = cross_date_report(days)
        assert repr(matches) == repr(oracles.cross_date_report(days))
        assert chain.select(mask).quotes == tuple(q for q, k in zip(chain.quotes, mask) if k)
