"""Parity pricing, implied dividends, and the day-level audit."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pricelab.black_scholes import bs_price
from pricelab.errors import NoAtmPairs
from pricelab.harness import cross_date_report
from pricelab.market_data import DailyChain, MarketEnv, OptionKind, OptionQuote
from pricelab.synth import synth_chain
from pricelab.parity import (
    ATM_HI,
    ATM_LO,
    DividendCurve,
    Moneyness,
    _atm_pairs,
    classify_moneyness,
    estimate_dividend_curve,
    forward_price,
    implied_dividend,
    itm_parity_audit,
    itm_parity_records,
    parity_price,
)

CALL, PUT = OptionKind.CALL, OptionKind.PUT


def bs_pair(spot, strike, rate, dividend, vol, tau):
    call = bs_price(CALL, spot, strike, rate, dividend, vol, tau)
    put = bs_price(PUT, spot, strike, rate, dividend, vol, tau)
    return call, put


def test_parity_price_matches_model_prices():
    rng = np.random.default_rng(3)
    for _ in range(100):
        spot = float(rng.uniform(50.0, 200.0))
        strike = spot * float(rng.uniform(0.8, 1.2))
        rate = float(rng.uniform(-0.01, 0.08))
        dividend = float(rng.uniform(0.0, 0.06))
        vol = float(rng.uniform(0.1, 0.6))
        tau = float(rng.uniform(0.1, 2.5))
        call, put = bs_pair(spot, strike, rate, dividend, vol, tau)

        from_put = parity_price(CALL, put, spot, strike, rate, dividend, tau)
        assert from_put == pytest.approx(call, abs=1e-10)
        assert from_put >= 0.0
        from_call = parity_price(PUT, call, spot, strike, rate, dividend, tau)
        assert from_call == pytest.approx(put, abs=1e-10)
        assert from_call >= 0.0


def test_parity_price_flags_negative_value():
    # Deep OTM call priced off a stale, far-too-cheap put: the carry
    # term drags the parity value below zero.
    result = parity_price(CALL, 0.5, 80.0, 120.0, 0.02, 0.0, 1.0)
    assert result < 0.0


def test_parity_price_requires_positive_tau():
    with pytest.raises(ValueError):
        parity_price(CALL, 1.0, 100.0, 100.0, 0.02, 0.0, 0.0)


def test_implied_dividend_recovers_yield():
    rng = np.random.default_rng(7)
    for _ in range(50):
        spot = float(rng.uniform(50.0, 200.0))
        strike = spot * float(rng.uniform(0.8, 1.2))
        rate = float(rng.uniform(-0.01, 0.08))
        dividend = float(rng.uniform(0.0, 0.08))
        vol = float(rng.uniform(0.1, 0.6))
        tau = float(rng.uniform(0.1, 2.5))
        call, put = bs_pair(spot, strike, rate, dividend, vol, tau)
        implied = implied_dividend(call, put, spot, strike, rate, tau)
        assert implied == pytest.approx(dividend, abs=1e-11)


def test_implied_dividend_rejects_inconsistent_quotes():
    # Put quoted above the discounted strike makes the log argument
    # non-positive.
    with pytest.raises(ValueError):
        implied_dividend(0.0, 100.0, 100.0, 100.0, 0.02, 1.0)
    with pytest.raises(ValueError):
        implied_dividend(5.0, 5.0, 100.0, 100.0, 0.02, 0.0)


def test_forward_price():
    assert forward_price(100.0, 0.03, 0.01, 1.0) == pytest.approx(100.0 * math.exp(0.02))
    assert forward_price(100.0, 0.03, 0.01, 0.0) == 100.0
    with pytest.raises(ValueError):
        forward_price(100.0, 0.03, 0.01, -0.5)


def test_classify_moneyness_buckets():
    env = MarketEnv(date=date(2012, 1, 3), spot=100.0, rate=0.02, div_hist=0.01)
    tau = 1.0
    fwd = forward_price(env.spot, env.rate, env.div_hist, tau)

    for ratio, call_label, put_label in [
        (0.90, Moneyness.ITM, Moneyness.OTM),
        (0.96, Moneyness.ATM, Moneyness.ATM),
        (1.00, Moneyness.ATM, Moneyness.ATM),
        (1.04, Moneyness.ATM, Moneyness.ATM),
        (1.10, Moneyness.OTM, Moneyness.ITM),
    ]:
        strike = ratio * fwd
        call = classify_moneyness(CALL, strike, env, tau)
        put = classify_moneyness(PUT, strike, env, tau)
        assert call.label is call_label
        assert put.label is put_label
        assert call.value == pytest.approx(math.log(ratio), abs=1e-12)
        assert put.value == call.value

    assert math.exp(ATM_LO) == pytest.approx(0.95)
    assert math.exp(ATM_HI) == pytest.approx(1.05)
    with pytest.raises(ValueError):
        classify_moneyness(CALL, 0.0, env, tau)


def test_dividend_curve_interpolation():
    curve = DividendCurve([0.5, 1.0, 2.0], [0.01, 0.03, 0.02])
    assert curve.value_at(0.75) == pytest.approx(0.02)
    assert curve.value_at(1.5) == pytest.approx(0.025)
    # Constant outside the knots.
    assert curve.value_at(0.0) == pytest.approx(0.01)
    assert curve.value_at(10.0) == pytest.approx(0.02)
    assert curve.value_at(1.0) == pytest.approx(0.03)


def test_dividend_curve_sorts_knots():
    curve = DividendCurve([2.0, 0.5], [0.02, 0.01])
    assert list(curve.taus) == [0.5, 2.0]
    assert curve.value_at(0.5) == pytest.approx(0.01)


@st.composite
def curves_and_queries(draw):
    """A curve of 1 to 8 knots, and queries on each knot, on the floats
    beside it, between knots, beyond both ends, infinite and NaN."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    taus = sorted(draw(st.lists(st.one_of(finite, st.floats(-2.0, 5.0)), min_size=1,
                                max_size=8, unique=True)))
    yields = draw(st.lists(st.one_of(finite, st.floats(-0.1, 0.1)),
                           min_size=len(taus), max_size=len(taus)))
    beside = [math.nextafter(t, side) for t in taus for side in (-math.inf, math.inf)]
    between = draw(st.lists(st.floats(allow_nan=False), max_size=6))
    return taus, yields, taus + beside + between + [-math.inf, math.inf, math.nan, -0.0]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(curves_and_queries())
def test_dividend_curve_interpolates_as_np_interp(curve_and_queries):
    taus, yields, queries = curve_and_queries
    curve = DividendCurve(taus, yields)
    for tau in queries:
        expected = float(np.interp(tau, curve.taus, curve.yields))
        got = curve.value_at(tau)
        assert type(got) is float
        if math.isnan(expected):
            assert math.isnan(got), (tau, expected, got)
        else:
            assert got.hex() == expected.hex(), (tau, expected, got)
        assert curve.value_at(np.float64(tau)) == got or math.isnan(got)


def test_dividend_curve_keeps_np_interps_rules_at_infinite_yields():
    # np.interp retries a NaN from the right knot, then takes the left
    # knot's yield when the two are equal.
    for taus, yields in [([0.5, 1.0], [math.inf, math.inf]), ([0.5, 1.0], [-math.inf, math.inf]),
                         ([0.5, 1.0, 2.0], [0.01, math.inf, 0.02]), ([1.0], [math.nan])]:
        curve = DividendCurve(taus, yields)
        for tau in (0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, math.nan):
            expected = float(np.interp(tau, taus, yields))
            got = curve.value_at(tau)
            assert got == expected or math.isnan(got) and math.isnan(expected)


@pytest.mark.parametrize(
    "taus, yields",
    [([], []), ([1.0], [0.01, 0.02]), ([1.0, 1.0], [0.01, 0.02]), ([math.nan, 1.0], [0.01, 0.02]),
     ([0.5, math.nan, 2.0], [0.01, 0.02, 0.03])],
)
def test_dividend_curve_rejects_bad_knots(taus, yields):
    with pytest.raises(ValueError):
        DividendCurve(taus, yields)


def test_estimate_dividend_curve_recovers_flat_yield(bs_day):
    # Synthetic chain priced with a flat 1.3% yield: every ATM pair
    # implies it exactly, so each knot is the yield itself.
    curve = estimate_dividend_curve(bs_day)
    assert curve.taus.size == 4
    for tau in curve.taus:
        assert curve.value_at(float(tau)) == pytest.approx(0.013, abs=1e-12)


def curve_with_one_atm_put_bumped(bump):
    """The dividend curve of a day with three ATM pairs per maturity after
    one put's quotes are raised by bump, and that put's tau."""
    day = synth_chain("bs", dividend=0.013, strikes=[96.0, 100.0, 104.0])[0]
    quotes = list(day.quotes)
    bumped = None
    for i, q in enumerate(quotes):
        if q.kind is PUT and q.strike == 100.0 and bumped is None:
            bumped = i
            quotes[i] = q.__class__(
                kind=q.kind, strike=q.strike, expiry=q.expiry, ttm_days=q.ttm_days,
                bid=q.bid + bump, ask=q.ask + bump, volume=q.volume,
            )
    assert bumped is not None
    return estimate_dividend_curve(DailyChain(day.env, tuple(quotes))), quotes[bumped].tau


def test_estimate_dividend_curve_median_ignores_one_bad_pair():
    # Three ATM pairs per maturity; corrupting one leaves the median on
    # the two untouched (and identical) estimates.
    curve, tau = curve_with_one_atm_put_bumped(0.5)
    assert curve.value_at(tau) == pytest.approx(0.013, abs=1e-12)


def test_estimate_dividend_curve_skips_a_pair_with_a_non_positive_log_argument():
    # A put 200 too dear makes C - P + K e^{-r tau} negative, so its pair
    # gives no estimate and the other two give the yield.
    curve, tau = curve_with_one_atm_put_bumped(200.0)
    assert curve.value_at(tau) == pytest.approx(0.013, abs=1e-12)


def knot_bits(knots):
    # A NaN's hex names its sign, which np.median does not fix.
    return [(tau.hex(), "nan" if math.isnan(q) else q.hex()) for tau, q in knots]


def test_estimate_dividend_curve_takes_np_medians_bits():
    # Noisy days give each maturity one to four estimates of various
    # spreads. On a day at zero rate and yield with equal call and put
    # mids, the pair struck at the spot has a log argument of exactly 1
    # and the median estimate, -0.0, which np.median gives as +0.0; a NaN
    # mid, which only a hand-built chain can hold, makes its maturity's
    # knot NaN.
    days = synth_chain("bs", n_days=6, dividend=0.013, noise=0.01, seed=11,
                       strikes=[float(k) for k in range(90, 111, 2)])
    env = MarketEnv(date=date(2012, 1, 3), spot=100.0, rate=0.0, div_hist=0.0)
    flat = [OptionQuote(kind, strike, date(2012, 1, 3 + days), days, mid, mid, 1000)
            for days in (1, 2) for strike in (99.0, 100.0, 101.0) for kind in (CALL, PUT)
            for mid in [math.nan if (days, strike, kind) == (2, 101.0, PUT) else 1.5]]
    flat_day = DailyChain(env, tuple(flat))
    for chain in days + [flat_day]:
        curve = estimate_dividend_curve(chain)
        knots = list(zip(curve.taus.tolist(), curve.yields.tolist()))
        assert knot_bits(knots) == knot_bits(oracles.dividend_knots(chain))
    assert knot_bits(knots) == [((1 / 365).hex(), "0x0.0p+0"), ((2 / 365).hex(), "nan")]


def test_estimate_dividend_curve_requires_atm_pairs(bs_day):
    deep = [q for q in bs_day.quotes if q.strike <= 80.0]
    with pytest.raises(NoAtmPairs):
        estimate_dividend_curve(DailyChain(bs_day.env, tuple(deep)))


def test_itm_parity_audit_on_consistent_chain(bs_day):
    curve = estimate_dividend_curve(bs_day)
    report = itm_parity_audit([(bs_day, curve)])
    n_itm = sum(
        1 for q in bs_day.quotes
        if classify_moneyness(q.kind, q.strike, bs_day.env, q.tau).label is Moneyness.ITM
    )
    assert report.label == "PARITY"
    assert report.count == report.n_errors == n_itm > 0
    assert report.extra["unmatched_itm"] == 0.0
    # Stats are percentages; parity repricing of parity-consistent quotes
    # is exact up to rounding.
    assert report.mean < 1e-10
    assert report.max < 1e-9


def test_itm_parity_audit_counts_unmatched(bs_day):
    target = next(
        q for q in bs_day.quotes
        if q.kind is PUT
        and classify_moneyness(PUT, q.strike, bs_day.env, q.tau).label is Moneyness.ITM
    )
    thinned = [
        q for q in bs_day.quotes
        if not (q.kind is CALL and q.strike == target.strike and q.expiry == target.expiry)
    ]
    chain = DailyChain(bs_day.env, tuple(thinned))
    curve = estimate_dividend_curve(chain)
    records, skipped = itm_parity_records(chain, curve)
    full_records, _ = itm_parity_records(bs_day, curve)
    assert skipped == 1
    assert len(records) == len(full_records) - 1
    assert itm_parity_audit([(chain, curve)]).extra["unmatched_itm"] == 1.0
    # Over several days the audit reports every day's records and skips together.
    report = itm_parity_audit([(chain, curve), (bs_day, curve), (chain, curve)])
    assert report.count == 2 * len(records) + len(full_records)
    assert report.extra["unmatched_itm"] == 2.0
    assert itm_parity_audit([]).count == 0


def test_itm_parity_audit_skips_expiring_quotes(bs_day):
    # An ITM put expiring today, with its call: parity needs tau > 0, so
    # the audit passes over the pair without a record or a skip count.
    expiring = tuple(
        OptionQuote(kind, 120.0, bs_day.env.date, 0, mid, mid, 1000)
        for kind, mid in [(PUT, 20.0), (CALL, 0.0)]
    )
    chain = DailyChain(bs_day.env, bs_day.quotes + expiring)
    curve = estimate_dividend_curve(bs_day)
    assert itm_parity_records(chain, curve) == itm_parity_records(bs_day, curve)


def test_itm_parity_audit_skips_zero_mid(bs_day):
    quotes = list(bs_day.quotes)
    for i, q in enumerate(quotes):
        if classify_moneyness(q.kind, q.strike, bs_day.env, q.tau).label is Moneyness.ITM:
            quotes[i] = q.__class__(
                kind=q.kind, strike=q.strike, expiry=q.expiry, ttm_days=q.ttm_days,
                bid=0.0, ask=0.0, volume=q.volume,
            )
            break
    chain = DailyChain(bs_day.env, tuple(quotes))
    curve = estimate_dividend_curve(chain)
    _, skipped = itm_parity_records(chain, curve)
    assert skipped == 1


def test_a_repeated_contract_counts_its_last_quote():
    # An ATM put, an ITM call and its OTM put, each quoted twice at
    # different mids: pairing, the audit and the cross-date report all
    # take the last quote of a contract, in the chain's order.
    env = MarketEnv(date=date(2012, 1, 3), spot=100.0, rate=0.02, div_hist=0.01)
    expiry = date(2012, 2, 2)
    terms = [(CALL, 100.0, 3.0), (PUT, 100.0, 2.0), (PUT, 100.0, 2.5), (CALL, 85.0, 15.5),
             (CALL, 85.0, 15.6), (PUT, 85.0, 0.3), (PUT, 85.0, 0.2)]
    chain = DailyChain(env, [OptionQuote(kind, strike, expiry, 30, mid, mid, 1000)
                             for kind, strike, mid in terms])
    tau = 30 / 365.0
    assert chain.contract_mids() == {CALL: {(tau, 100.0): 3.0, (tau, 85.0): 15.6},
                                     PUT: {(tau, 100.0): 2.5, (tau, 85.0): 0.2}}

    assert _atm_pairs(chain) == {tau: [(100.0, 3.0, 2.5)]}

    curve = DividendCurve([tau], [0.012])
    records, skipped = itm_parity_records(chain, curve)
    assert skipped == 0
    assert [(r.strike, r.true_price) for r in records] == [(85.0, 15.5), (85.0, 15.6)]
    expected = parity_price(CALL, 0.2, 100.0, 85.0, 0.02, 0.012, tau)
    assert [r.est_price for r in records] == [expected, expected]

    # The next day quotes the same contracts in reverse order.
    next_env = MarketEnv(date=date(2012, 1, 4), spot=100.0, rate=0.02, div_hist=0.01)
    next_day = DailyChain(next_env, [OptionQuote(kind, strike, date(2012, 2, 3), 30, mid, mid, 1000)
                                     for kind, strike, mid in reversed(terms)])
    matches = cross_date_report([chain, next_day])
    assert [(m.kind, m.strike, m.price_a) for m in matches] == terms
    assert [m.price_b for m in matches] == [3.0, 2.0, 2.0, 15.5, 15.5, 0.3, 0.3]
