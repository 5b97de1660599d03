"""Chain data model, CSV round trips, and the two quote filters."""

import dataclasses
import datetime as dt
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pricelab import market_data
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


IV_HEADER = HEADER + ",implied_vol"

# (rows after the header, the header, the full message of the error). Each
# check's message is pinned whole, and so is the order of the checks: the
# earlier line wins, and within a row the first failing check.
MESSAGE_CASES = {
    "wrong width": ([row(), row() + ",0.2"], HEADER, "line 3: wrong number of fields"),
    "date": ([row(), row(date="2012/01/03")], HEADER,
             "line 3: bad date '2012/01/03', expected YYYY-MM-DD"),
    "expiry": ([row(), row(expiry="soon")], HEADER,
               "line 3: bad expiry 'soon', expected YYYY-MM-DD"),
    "kind": ([row(), row(kind=" X ")], HEADER, "line 3: bad kind 'X', expected C or P"),
    "strike": ([row(), row(strike="abc")], HEADER, "line 3: bad strike 'abc'"),
    "a comma in a number": ([row(), row(bid="5,0")], HEADER, "line 3: wrong number of fields"),
    "bid": ([row(), row(bid="five")], HEADER, "line 3: bad bid 'five'"),
    "ask": ([row(), row(ask="")], HEADER, "line 3: bad ask ''"),
    "volume": ([row(), row(volume="1.5")], HEADER, "line 3: bad volume '1.5'"),
    "spot": ([row(), row(spot="n/a")], HEADER, "line 3: bad spot 'n/a'"),
    "rate": ([row(), row(rate="2%")], HEADER, "line 3: bad rate '2%'"),
    "div_hist": ([row(), row(div="none")], HEADER, "line 3: bad div_hist 'none'"),
    "non-finite strike": ([row(), row(strike="inf")], HEADER, "line 3: non-finite strike 'inf'"),
    "non-finite bid": ([row(), row(bid="nan")], HEADER, "line 3: non-finite bid 'nan'"),
    "non-finite ask": ([row(), row(ask="1e999")], HEADER, "line 3: non-finite ask '1e999'"),
    "non-finite spot": ([row(), row(spot=" -inf")], HEADER, "line 3: non-finite spot ' -inf'"),
    "non-finite rate": ([row(), row(rate="NaN")], HEADER, "line 3: non-finite rate 'NaN'"),
    "non-finite div_hist": ([row(), row(div="Infinity")], HEADER,
                            "line 3: non-finite div_hist 'Infinity'"),
    "strike <= 0": ([row(), row(strike="-5")], HEADER, "line 3: strike must be positive, got -5.0"),
    "strike 0": ([row(), row(strike="0")], HEADER, "line 3: strike must be positive, got 0.0"),
    "spot <= 0": ([row(), row(spot="0")], HEADER, "line 3: spot must be positive, got 0.0"),
    "bid < 0": ([row(), row(bid="-0.5")], HEADER, "line 3: bid must be non-negative, got -0.5"),
    "crossed": ([row(), row(bid="6.0")], HEADER, "line 3: crossed quote: bid 6.0 > ask 5.2"),
    "volume < 0": ([row(), row(volume="-3")], HEADER,
                   "line 3: volume must be non-negative, got -3"),
    "expiry before date": ([row(), row(expiry="2011-12-30")], HEADER,
                           "line 3: expiry 2011-12-30 precedes quote date 2012-01-03"),
    "implied_vol": ([row() + ",", row() + ",abc"], IV_HEADER, "line 3: bad implied_vol 'abc'"),
    "non-finite implied_vol": ([row() + ",0.2", row() + ", nan "], IV_HEADER,
                               "line 3: non-finite implied_vol 'nan'"),
    "environment": ([row(), row(spot="101.0", strike="95.0")], HEADER,
                    "line 3: environment for 2012-01-03 conflicts with line 2: spot 100.0 != 101.0"),
    "environment, two fields": (
        [row(), row(date="2012-01-04", expiry="2012-02-03"), row(rate="0.03", div="0.02")], HEADER,
        "line 4: environment for 2012-01-03 conflicts with line 2: "
        "rate 0.02 != 0.03, div_hist 0.01 != 0.02"),
    # Two faulty rows: the earlier line wins, whatever its check.
    "bad number, then wrong width": ([row(strike="abc"), row() + ",1"], HEADER,
                                     "line 2: bad strike 'abc'"),
    "wrong width, then bad number": ([row() + ",1", row(strike="abc")], HEADER,
                                     "line 2: wrong number of fields"),
    "environment, then bad date": ([row(), row(spot="99.0"), row(date="x")], HEADER,
                                   "line 3: environment for 2012-01-03 conflicts with line 2: "
                                   "spot 100.0 != 99.0"),
    "bad date, then environment": ([row(), row(date="x"), row(spot="99.0")], HEADER,
                                   "line 3: bad date 'x', expected YYYY-MM-DD"),
    "crossed, then non-finite": ([row(bid="9.0"), row(strike="nan")], HEADER,
                                 "line 2: crossed quote: bid 9.0 > ask 5.2"),
    "non-finite, then crossed": ([row(strike="nan"), row(bid="9.0")], HEADER,
                                 "line 2: non-finite strike 'nan'"),
    "a later conflict after a clean day": (
        [row(), row(date="2012-01-04", expiry="2012-02-03", spot="90.0"),
         row(date="2012-01-04", expiry="2012-02-03", spot="91.0")], HEADER,
        "line 4: environment for 2012-01-04 conflicts with line 3: spot 90.0 != 91.0"),
    # Several faults in one row: the first check in the row's order wins.
    "date before kind and strike": ([row(date="bad", kind="X", strike="-1")], HEADER,
                                    "line 2: bad date 'bad', expected YYYY-MM-DD"),
    "kind before strike": ([row(kind="X", strike="abc")], HEADER,
                           "line 2: bad kind 'X', expected C or P"),
    "strike text before volume text": ([row(strike="abc", volume="1.5")], HEADER,
                                       "line 2: bad strike 'abc'"),
    "texts before values": ([row(strike="-1", rate="x")], HEADER, "line 2: bad rate 'x'"),
    "strike before spot": ([row(strike="-1", spot="0")], HEADER,
                           "line 2: strike must be positive, got -1.0"),
    "bid before volume": ([row(bid="-1", volume="-5")], HEADER,
                          "line 2: bid must be non-negative, got -1.0"),
    "volume before expiry": ([row(volume="-1", expiry="2011-01-01")], HEADER,
                             "line 2: volume must be non-negative, got -1"),
    "expiry before implied_vol": ([row(expiry="2011-01-01") + ",x"], IV_HEADER,
                                  "line 2: expiry 2011-01-01 precedes quote date 2012-01-03"),
    "implied_vol before environment": ([row() + ",", row(spot="1.0") + ",x"], IV_HEADER,
                                       "line 3: bad implied_vol 'x'"),
    # Date texts that numpy's datetime64 reads but date.fromisoformat does not.
    "date with an hour": ([row(date="2012-01-03T00")], HEADER,
                          "line 2: bad date '2012-01-03T00', expected YYYY-MM-DD"),
    "date NaT": ([row(date="NaT")], HEADER, "line 2: bad date 'NaT', expected YYYY-MM-DD"),
    "blank date": ([row(date="")], HEADER, "line 2: bad date '', expected YYYY-MM-DD"),
    "expiry NaT": ([row(expiry="NaT")], HEADER, "line 2: bad expiry 'NaT', expected YYYY-MM-DD"),
    "negative volume beyond int64": ([row(volume="-" + "9" * 20)], HEADER,
                                     "line 2: volume must be non-negative, got -" + "9" * 20),
}


def assert_rejected(path, message):
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert str(exc.value) == message
    assert exc.value.line == int(message.split(":")[0].split()[1])


@pytest.mark.parametrize("rows, header, message", MESSAGE_CASES.values(), ids=MESSAGE_CASES)
def test_each_check_pins_its_line_and_message(tmp_path, rows, header, message):
    assert_rejected(write_csv(tmp_path / "bad.csv", rows, header=header), message)


@pytest.fixture(params=[1, 2], ids=lambda n: f"blocks of {n}")
def small_blocks(request, monkeypatch):
    """Parse that many rows at a time, so that rows and days straddle blocks."""
    monkeypatch.setattr(market_data, "_BLOCK_ROWS", request.param)


@pytest.mark.parametrize("rows, header, message", MESSAGE_CASES.values(), ids=MESSAGE_CASES)
def test_blocks_keep_each_line_and_message(tmp_path, rows, header, message, small_blocks):
    assert_rejected(write_csv(tmp_path / "bad.csv", rows, header=header), message)


def test_blocks_load_what_one_block_loads(tmp_path, bs_days, small_blocks):
    path = tmp_path / "year.csv"
    save_chains(bs_days, path)
    assert load_chains(path) == list(bs_days)


# Two days, each with its own environment.
DAYS = (dict(date="2012-01-03", expiry="2012-02-02"),
        dict(date="2012-01-04", expiry="2012-02-03", spot="90.0", rate="0.03"))
# Texts that break a field in some columns and not in others: a word,
# non-finite and non-positive numbers, a fraction, NaT, a compact date, a
# volume beyond int64, a spot off its day's, an expiry before its date, a
# blank, and a comma that adds a field.
CORRUPTIONS = ("abc", "nan", "inf", "-1", "0", "1.5", "NaT", "20120103", str(2**63), "101.0",
               "2011-12-30", "", "5,0")


@settings(max_examples=500, deadline=None)
@given(data=st.data(), with_iv=st.booleans(), block_rows=st.sampled_from((1, 2, 512)))
def test_load_names_the_error_that_the_row_check_names(data, with_iv, block_rows):
    quotes = data.draw(st.lists(st.tuples(st.sampled_from(DAYS), st.sampled_from("CP"),
                                          st.sampled_from(("95.0", "100.0")),
                                          st.sampled_from(("0.2", ""))),
                                min_size=1, max_size=8))
    rows = [row(kind=kind, strike=strike, **day).split(",") + ([vol] if with_iv else [])
            for day, kind, strike, vol in quotes]
    # One or two rows, each with up to four faulty fields. The texts come
    # from a few of the corruptions, so that one row often holds a text
    # that two of its checks reject.
    texts = st.sampled_from(data.draw(st.lists(st.sampled_from(CORRUPTIONS), min_size=1,
                                               max_size=3, unique=True)))
    for _ in range(data.draw(st.integers(1, 2))):
        fields = rows[data.draw(st.integers(0, len(rows) - 1))]
        for _ in range(data.draw(st.integers(1, 4))):
            fields[data.draw(st.sampled_from(range(len(fields))))] = data.draw(texts)
    with tempfile.TemporaryDirectory() as directory:
        path = write_csv(Path(directory) / "chains.csv", [",".join(fields) for fields in rows],
                         header=IV_HEADER if with_iv else HEADER)
        expected = oracles.chain_file_error(path)
        with mock.patch.object(market_data, "_BLOCK_ROWS", block_rows):
            if expected is None:
                load_chains(path)
            else:
                with pytest.raises(ChainParseError) as exc:
                    load_chains(path)
                assert (exc.value.line, str(exc.value)) == (expected.line, str(expected))


def test_a_volume_beyond_int64_names_its_line(tmp_path):
    # The largest int64 volume loads; one more is rejected at its line.
    top = str(2**63 - 1)
    (day,) = load_chains(write_csv(tmp_path / "top.csv", [row(volume=top)]))
    assert day.quotes[0].volume == 2**63 - 1
    path = write_csv(tmp_path / "big.csv", [row(), row(volume=str(2**63))])
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert str(exc.value) == f"line 3: volume must be at most {top}, got {2**63}"


def test_compact_iso_dates_load_as_python_reads_them(tmp_path):
    # date.fromisoformat reads 20120103 as 2012-01-03; numpy's datetime64
    # would read the year 20120103.
    rows = [row(date="20120103", expiry="20120202"), row(strike="105.0")]
    (day,) = load_chains(write_csv(tmp_path / "compact.csv", rows))
    assert day.env.date == DATE
    assert [q.expiry for q in day.quotes] == [DATE + dt.timedelta(days=30)] * 2
    assert [q.ttm_days for q in day.quotes] == [30, 30]


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


def test_a_spreadsheets_empty_rows_are_blank_lines(tmp_path):
    # A spreadsheet export writes bare commas for an empty row in its used range.
    rows = [row(), ",,,,,,,,,", row(strike="105.0"), " , ,", ",,", row(bid="-1")]
    path = write_csv(tmp_path / "sheet.csv", rows)
    with pytest.raises(ChainParseError) as exc:
        load_chains(path)
    assert exc.value.line == 7
    plain = load_chains(write_csv(tmp_path / "plain.csv", [row(), row(strike="105.0")]))
    assert load_chains(write_csv(tmp_path / "ok.csv", rows[:-1] + [",,,,,,,,,"])) == plain


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
