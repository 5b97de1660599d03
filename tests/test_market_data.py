"""Chain data model, CSV round trips, and the two quote filters."""

import dataclasses
import datetime as dt
import math

import numpy as np
import pytest

from pricelab.errors import ChainParseError
from pricelab.market_data import (
    DAYS_PER_YEAR,
    DailyChain,
    MarketEnv,
    OptionKind,
    OptionQuote,
    filter_liquidity,
    load_chains,
    save_chains,
    trim_mask,
)

DATE = dt.date(2012, 1, 3)
ENV = MarketEnv(date=DATE, spot=100.0, rate=0.02, div_hist=0.01)


def make_quote(**overrides):
    base = dict(
        kind=OptionKind.PUT,
        strike=100.0,
        expiry=DATE + dt.timedelta(days=30),
        ttm_days=30,
        bid=5.0,
        ask=5.2,
        volume=500,
    )
    base.update(overrides)
    return OptionQuote(**base)


HEADER = "date,kind,strike,expiry,bid,ask,volume,spot,rate,div_hist"


def write_csv(path, rows, header=HEADER):
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def row(date="2012-01-03", kind="P", strike="100.0", expiry="2012-02-02",
        bid="5.0", ask="5.2", volume="500", spot="100.0", rate="0.02", div="0.01"):
    return ",".join([date, kind, strike, expiry, bid, ask, volume, spot, rate, div])


def test_quote_mid_and_tau():
    q = make_quote(bid=5.0, ask=5.5, ttm_days=73)
    assert q.mid == pytest.approx(5.25)
    assert q.tau == 73 / DAYS_PER_YEAR


def test_of_kind_and_len():
    chain = DailyChain(ENV, (make_quote(), make_quote(kind=OptionKind.CALL)))
    assert len(chain) == 2
    puts = chain.of_kind(OptionKind.PUT)
    assert len(puts) == 1
    assert puts.quotes[0].kind is OptionKind.PUT


def test_load_single_day_canonical_order(tmp_path):
    path = write_csv(tmp_path / "c.csv", [row(), row(kind="C", strike="105.0")])
    chains = load_chains(path)
    assert len(chains) == 1
    day = chains[0]
    assert day.env == ENV
    assert len(day) == 2
    # Quotes are normalized to (kind, expiry, strike) order on load.
    assert day.quotes[0].kind is OptionKind.CALL
    assert day.quotes[1].kind is OptionKind.PUT
    assert day.quotes[0].ttm_days == 30


def test_round_trip_is_identity(tmp_path, bs_day):
    path = tmp_path / "chains.csv"
    save_chains([bs_day], path)
    assert load_chains(path) == [bs_day]


def test_round_trip_preserves_implied_vol(tmp_path, bs_day):
    quotes = [dataclasses.replace(q, implied_vol=0.21) for q in bs_day.quotes[:5]]
    chain = DailyChain(bs_day.env, tuple(quotes))
    path = tmp_path / "iv.csv"
    save_chains([chain], path, include_iv=True)
    loaded = load_chains(path)[0]
    assert all(q.implied_vol == 0.21 for q in loaded.quotes)


def test_round_trip_of_numpy_scalars(tmp_path):
    env = MarketEnv(date=DATE, spot=np.float64(100.0), rate=np.float64(0.02),
                    div_hist=np.float64(0.01))
    quote = make_quote(strike=np.float64(100.0), bid=np.float64(5.0), ask=np.float64(5.2),
                       volume=np.int64(500), implied_vol=np.float64(0.2))
    path = tmp_path / "chains.csv"
    save_chains([DailyChain(env, (quote,))], path, include_iv=True)
    assert "np." not in path.read_text()
    (loaded,) = load_chains(path)
    assert loaded.env == env
    assert loaded.quotes == (quote,)


def test_multi_day_round_trip(tmp_path, bs_days):
    path = tmp_path / "year.csv"
    save_chains(bs_days, path)
    assert load_chains(path) == list(bs_days)


def test_missing_column_rejected(tmp_path):
    path = write_csv(tmp_path / "bad.csv", [row()], header=HEADER.replace(",spot", ""))
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert exc.value.line == 1
    assert "spot" in str(exc.value)


@pytest.mark.parametrize(
    "bad_row, fragment",
    [
        (row(date="2012/01/03"), "date"),
        (row(kind="X"), "kind"),
        (row(strike="-5"), "strike"),
        (row(strike="abc"), "strike"),
        (row(bid="-0.5"), "bid"),
        (row(bid="6.0"), "ask"),          # ask < bid
        (row(volume="-3"), "volume"),
        (row(volume="1.5"), "volume"),    # not an integer
        (row(expiry="2011-12-30"), "expiry"),  # before trade date
        (row(spot="0"), "spot"),
        (row(rate="inf"), "rate"),
    ],
)
def test_bad_rows_name_the_line(tmp_path, bad_row, fragment):
    path = write_csv(tmp_path / "bad.csv", [row(), bad_row])
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert exc.value.line == 3
    assert fragment in str(exc.value)


def test_inconsistent_environment_rejected(tmp_path):
    path = write_csv(tmp_path / "env.csv", [row(), row(spot="101.0", strike="95.0")])
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert exc.value.line == 3
    assert "spot" in str(exc.value)


@pytest.mark.parametrize("bad_row", [row() + ",0.2", row().rsplit(",", 1)[0]],
                         ids=["one field extra", "one field short"])
def test_a_row_of_the_wrong_width_names_its_line(tmp_path, bad_row):
    path = write_csv(tmp_path / "width.csv", [row(), bad_row])
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert exc.value.line == 3
    assert "wrong number of fields" in str(exc.value)


def test_a_repeated_column_is_rejected_at_the_header(tmp_path):
    path = write_csv(tmp_path / "twice.csv", [row() + ",200"], header=HEADER + ",strike")
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert exc.value.line == 1
    assert "repeated ['strike']" in str(exc.value)


def test_an_empty_file_is_rejected_at_line_1(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert exc.value.line == 1
    assert "empty file" in str(exc.value)


def test_a_byte_order_mark_is_ignored(tmp_path):
    # Excel's "CSV UTF-8" starts the file with the UTF-8 BOM, EF BB BF.
    rows = [row(), row(kind="C", strike="105.0")]
    plain = load_chains(write_csv(tmp_path / "plain.csv", rows))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
    assert load_chains(path) == plain


def test_padded_header_names_load_as_unpadded(tmp_path):
    rows = [row(), row(kind="C", strike="105.0")]
    padded = ", ".join(f" {name} " for name in HEADER.split(","))
    plain = load_chains(write_csv(tmp_path / "plain.csv", rows))
    assert load_chains(write_csv(tmp_path / "padded.csv", rows, header=padded)) == plain


def test_blank_lines_are_skipped_but_counted(tmp_path):
    path = write_csv(tmp_path / "blank.csv", [row(), "", row(strike="105.0"), row(bid="-1")])
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert exc.value.line == 5
    (day,) = load_chains(write_csv(tmp_path / "ok.csv", [row(), "", row(strike="105.0")]))
    assert [q.strike for q in day.quotes] == [100.0, 105.0]


def test_a_blank_implied_vol_loads_as_none(tmp_path):
    path = write_csv(tmp_path / "iv.csv", [row() + ",", row(strike="105.0") + ",0.2"],
                     header=HEADER + ",implied_vol")
    (day,) = load_chains(path)
    assert [q.implied_vol for q in day.quotes] == [None, 0.2]


def test_zero_mid_quotes_survive_load(tmp_path):
    path = write_csv(tmp_path / "zero.csv", [row(bid="0.0", ask="0.0")])
    day = load_chains(path)[0]
    assert day.quotes[0].mid == 0.0


def test_liquidity_filter_boundaries():
    chain = DailyChain(
        ENV,
        (
            make_quote(ttm_days=0, volume=500),
            make_quote(ttm_days=5, volume=99),
            make_quote(ttm_days=1, volume=100),
        ),
    )
    kept = filter_liquidity(chain)
    assert len(kept) == 1
    assert kept.quotes[0].ttm_days == 1 and kept.quotes[0].volume == 100


def test_trim_boundaries():
    quotes = (
        make_quote(bid=0.125, ask=0.125),  # at floor: kept
        make_quote(bid=0.12, ask=0.12),    # below: dropped
        make_quote(strike=101.0),          # at cap: kept
        make_quote(strike=102.0),          # above: dropped
        make_quote(strike=103.0),          # no vol: dropped
    )
    vols = np.array([0.3, 0.3, 0.70, 0.71, np.nan])
    assert trim_mask(DailyChain(ENV, quotes), vols).tolist() == [True, False, True, False, False]
    with pytest.raises(ValueError):
        trim_mask(DailyChain(ENV, quotes), vols[:-1])


def test_filters_idempotent_and_commute(bs_day):
    def trim(chain, vols):
        keep = trim_mask(chain, vols).tolist()
        return DailyChain(chain.env, tuple(q for q, kept in zip(chain.quotes, keep) if kept))

    def vols(chain):
        # A vol that each quote carries with it, some of them above the cap.
        return np.array([0.2 + abs(math.log(q.strike / chain.env.spot)) for q in chain.quotes])

    once = filter_liquidity(bs_day)
    assert filter_liquidity(once) == once
    trimmed = trim(bs_day, vols(bs_day))
    assert 0 < len(trimmed) < len(bs_day)
    assert trim(trimmed, vols(trimmed)) == trimmed
    assert filter_liquidity(trimmed) == trim(once, vols(once))
