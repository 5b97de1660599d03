"""Pricing formula against a numerical-integration oracle, the vol
inversion against scipy's brentq, and the dividend sensitivity of
fitted vols."""

import datetime as dt
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from oracles import implied_vol_brentq
from pricelab.black_scholes import (
    _brentq_lanes,
    bs_price,
    fill_implied_vols,
    fill_implied_vols_of_days,
    implied_vol,
    implied_vols,
    iv_dividend_sensitivity,
    no_arbitrage_band,
    vega,
)
from pricelab.errors import NoArbitrageViolation, NoConvergence
from pricelab.market_data import (
    DAYS_PER_YEAR,
    DailyChain,
    MarketEnv,
    OptionKind,
    OptionQuote,
)
from pricelab.parity import DividendCurve

CALL, PUT = OptionKind.CALL, OptionKind.PUT


class BsInputs(NamedTuple):
    """One option's terms, in bs_price's argument order: bs_price(*x)."""

    kind: OptionKind
    spot: float
    strike: float
    rate: float
    dividend: float
    vol: float
    tau: float


def integral_price(kind, spot, strike, rate, dividend, vol, tau):
    """Discounted expected payoff under the risk-neutral lognormal law,
    by adaptive quadrature. Independent of the closed form under test."""
    mu = math.log(spot) + (rate - dividend - 0.5 * vol * vol) * tau
    sd = vol * math.sqrt(tau)

    def integrand(z):
        s = math.exp(mu + sd * z)
        payoff = max(s - strike, 0.0) if kind is CALL else max(strike - s, 0.0)
        return payoff * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    # Beyond |z| = 12 the omitted tail is under strike * Phi(-12).
    kink = (math.log(strike) - mu) / sd
    breaks = [z for z in (kink,) if -12.0 < z < 12.0]
    value, estimate = quad(
        integrand, -12.0, 12.0, points=breaks, limit=200, epsabs=1e-12, epsrel=1e-12
    )
    assert estimate < 1e-9
    return math.exp(-rate * tau) * value


def random_inputs(rng, kind=None):
    return BsInputs(
        kind=kind or rng.choice([CALL, PUT]),
        spot=float(rng.uniform(50.0, 200.0)),
        strike=float(rng.uniform(50.0, 200.0)),
        rate=float(rng.uniform(-0.01, 0.08)),
        dividend=float(rng.uniform(0.0, 0.06)),
        vol=float(rng.uniform(0.05, 0.8)),
        tau=float(rng.uniform(0.02, 2.5)),
    )


def test_price_matches_integral_oracle():
    cases = [
        BsInputs(PUT, 100.0, 100.0, 0.02, 0.01, 0.2, 1.0),
        BsInputs(CALL, 100.0, 110.0, 0.25 / 10, 0.0, 0.25, 0.5),
        BsInputs(CALL, 150.0, 90.0, 0.05, 0.03, 0.4, 2.0),
        BsInputs(PUT, 80.0, 120.0, 0.0, 0.02, 0.15, 0.25),
    ]
    for inputs in cases:
        oracle = integral_price(
            inputs.kind, inputs.spot, inputs.strike, inputs.rate,
            inputs.dividend, inputs.vol, inputs.tau,
        )
        assert bs_price(*inputs) == pytest.approx(oracle, abs=1e-9)


def test_frozen_reference_prices():
    assert bs_price(PUT, 100.0, 100.0, 0.02, 0.01, 0.2, 1.0) == pytest.approx(
        7.364289722855496, rel=1e-13
    )
    assert bs_price(CALL, 100.0, 110.0, 0.02, 0.01, 0.25, 0.5) == pytest.approx(
        3.571337412679828, rel=1e-13
    )


def test_put_call_parity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        c = random_inputs(rng, kind=CALL)
        p = BsInputs(PUT, c.spot, c.strike, c.rate, c.dividend, c.vol, c.tau)
        lhs = bs_price(*c) - bs_price(*p)
        rhs = c.spot * math.exp(-c.dividend * c.tau) - c.strike * math.exp(-c.rate * c.tau)
        assert lhs == pytest.approx(rhs, abs=1e-10 * c.spot)


def test_price_increasing_in_vol():
    for kind in (CALL, PUT):
        prices = [
            bs_price(kind, 100.0, 105.0, 0.02, 0.01, v, 0.5)
            for v in np.linspace(0.05, 1.5, 30)
        ]
        assert all(b > a for a, b in zip(prices, prices[1:]))


def test_small_vol_limit_is_discounted_forward_intrinsic():
    call = bs_price(CALL, 100.0, 80.0, 0.03, 0.01, 1e-8, 1.0)
    assert call == pytest.approx(100.0 * math.exp(-0.01) - 80.0 * math.exp(-0.03), rel=1e-12)
    put = bs_price(PUT, 100.0, 80.0, 0.03, 0.01, 1e-8, 1.0)
    assert put == 0.0


@pytest.mark.parametrize("field", ["spot", "strike", "vol", "tau"])
def test_non_positive_inputs_rejected(field):
    values = dict(kind=CALL, spot=100.0, strike=100.0, rate=0.02, dividend=0.01, vol=0.2, tau=1.0)
    values[field] = 0.0
    with pytest.raises(ValueError):
        bs_price(**values)


def test_vega_matches_finite_difference():
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(50):
        inputs = random_inputs(rng)
        up = bs_price(*inputs._replace(vol=inputs.vol + h))
        dn = bs_price(*inputs._replace(vol=inputs.vol - h))
        assert vega(*inputs[1:]) == pytest.approx((up - dn) / (2.0 * h), rel=1e-6, abs=1e-8)


def test_discounted_density_identity():
    # S e^{-q t} phi(d+) = K e^{-r t} phi(d-), the cornerstone of the
    # vega and dividend-sensitivity expressions.
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = random_inputs(rng)
        srt = x.vol * math.sqrt(x.tau)
        d1 = (math.log(x.spot / x.strike) + (x.rate - x.dividend + 0.5 * x.vol**2) * x.tau) / srt
        d2 = d1 - srt
        lhs = x.spot * math.exp(-x.dividend * x.tau) * math.exp(-0.5 * d1 * d1)
        rhs = x.strike * math.exp(-x.rate * x.tau) * math.exp(-0.5 * d2 * d2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_iv_dividend_sensitivity_matches_reprice_and_invert():
    """Oracle: price a call at dividend q, then invert that same price
    under q +- h; the vol shift per unit dividend is the sensitivity.

    Moneyness stays moderate so both inversion legs are well conditioned;
    the collapsed deep tails are exercised by the round-trip tests.
    """
    rng = np.random.default_rng(37)
    h = 1e-6
    for _ in range(30):
        spot = float(rng.uniform(50.0, 200.0))
        x = BsInputs(
            kind=CALL,
            spot=spot,
            strike=spot * float(rng.uniform(0.95, 1.25)),
            rate=float(rng.uniform(-0.01, 0.08)),
            dividend=float(rng.uniform(0.0, 0.06)),
            vol=float(rng.uniform(0.15, 0.8)),
            tau=float(rng.uniform(0.25, 2.5)),
        )
        price = bs_price(*x)
        up = implied_vol(CALL, price, x.spot, x.strike, x.rate, x.dividend + h, x.tau)
        dn = implied_vol(CALL, price, x.spot, x.strike, x.rate, x.dividend - h, x.tau)
        fd = (up - dn) / (2.0 * h)
        assert iv_dividend_sensitivity(*x[1:]) == pytest.approx(fd, rel=1e-5)


def test_band_values():
    lo, hi = no_arbitrage_band(CALL, 100.0, 80.0, 0.03, 0.01, 1.0)
    assert lo == pytest.approx(100.0 * math.exp(-0.01) - 80.0 * math.exp(-0.03))
    assert hi == pytest.approx(100.0 * math.exp(-0.01))
    lo, hi = no_arbitrage_band(PUT, 100.0, 80.0, 0.03, 0.01, 1.0)
    assert lo == 0.0
    assert hi == pytest.approx(80.0 * math.exp(-0.03))


def test_implied_vol_round_trip_randomized():
    # Invert the out-of-the-money kind: its price keeps full relative
    # precision toward zero, where the in-the-money price collapses onto
    # the band edge and loses the vol.
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 100:
        x = random_inputs(rng)
        kind = PUT if x.strike < x.spot else CALL
        x = x._replace(kind=kind)
        price = bs_price(*x)
        lo, hi = no_arbitrage_band(x.kind, x.spot, x.strike, x.rate, x.dividend, x.tau)
        if not (lo < price < hi) or price < 1e-200:
            continue
        recovered = implied_vol(x.kind, price, x.spot, x.strike, x.rate, x.dividend, x.tau)
        assert recovered == pytest.approx(x.vol, abs=1e-9)
        checked += 1


def test_implied_vol_recovers_from_denormal_price():
    # Far out of the money at low vol the price is a denormal float, yet
    # still pins the vol.
    x = BsInputs(PUT, 100.0, 76.67, 0.02, 0.01, 0.05, 0.02)
    price = bs_price(*x)
    assert 0.0 < price < 1e-300
    assert implied_vol(PUT, price, x.spot, x.strike, x.rate, x.dividend, x.tau) == pytest.approx(
        0.05, abs=1e-8
    )


@pytest.mark.parametrize(
    "kind, price",
    [
        (CALL, 0.0),      # at the lower edge (OTM call band starts at 0)
        (CALL, 120.0),    # above any attainable call price
        (PUT, 0.0),
        (PUT, 81.0),      # above the discounted strike
    ],
)
def test_prices_outside_band_rejected(kind, price):
    with pytest.raises(NoArbitrageViolation):
        implied_vol(kind, price, 100.0, 80.0, 0.03, 0.01, 1.0)


def test_price_below_vol_floor_reports_no_root():
    # An at-the-forward call still has positive value at the vol search
    # floor; a target strictly between the band edge and that floor price
    # is inside the band yet has no root in the search interval.
    spot, rate, dividend, tau = 100.0, 0.03, 0.01, 1.0
    strike = spot * math.exp((rate - dividend) * tau)
    floor_price = bs_price(CALL, spot, strike, rate, dividend, 1e-6, tau)
    assert floor_price > 0.0
    with pytest.raises(NoConvergence):
        implied_vol(CALL, 0.25 * floor_price, spot, strike, rate, dividend, tau)


@pytest.mark.parametrize("kind", [CALL, PUT])
@pytest.mark.parametrize("rate, tau", [(0.0, 0.25), (0.02, 1.0), (0.05, 3.0)])
def test_price_at_vol_floor_inverts_to_the_floor(kind, rate, tau):
    # At the money forward (r = q, K = S) the search's price and bs_price
    # agree to the bit at sigma = 1e-6, so the quote is the floor price.
    price = bs_price(kind, 100.0, 100.0, rate, rate, 1e-6, tau)
    assert implied_vol(kind, price, 100.0, 100.0, rate, rate, tau) == 1e-6


def test_fill_implied_vols_recovers_flat_vol(bs_day):
    vols, failed = fill_implied_vols(bs_day, DividendCurve([0.0], [0.013]))
    assert failed == 0
    assert len(vols) == len(bs_day.quotes)
    assert all(v == pytest.approx(0.2, abs=1e-7) for v in vols)


def test_fill_implied_vols_counts_failures(bs_day):
    quotes = list(bs_day.quotes)
    broken = quotes[0].__class__(
        kind=quotes[0].kind, strike=quotes[0].strike, expiry=quotes[0].expiry,
        ttm_days=quotes[0].ttm_days, bid=0.0, ask=0.0, volume=quotes[0].volume,
    )
    chain = DailyChain(bs_day.env, (broken, *quotes[1:]))
    vols, failed = fill_implied_vols(chain, DividendCurve([0.0], [0.013]))
    assert failed == 1
    assert math.isnan(vols[0])
    assert not np.isnan(vols[1:]).any()


def test_fill_implied_vols_accepts_curve(bs_day):
    # Each quote is inverted at the curve's yield at its tau, bit for bit.
    curve = DividendCurve([0.1, 0.5, 1.0], [0.011, 0.016, 0.013])
    vols, _ = fill_implied_vols(bs_day, curve)
    env = bs_day.env
    dividends = [curve.value_at(q.tau) for q in bs_day.quotes]
    assert len(set(dividends)) > 2
    expected = implied_vols(bs_day.kinds, bs_day.mids, env.spot, bs_day.strikes, env.rate,
                            dividends, bs_day.taus)
    assert vols.tobytes() == expected.tobytes()


def _otm_grid(rate, dividend=0.02, spot=100.0):
    """Out-of-the-money-forward quotes over K/S 0.5 to 2, vol 0.02 to 3 and
    tau one day to five years, priced by bs_price: (kind, price, strike,
    tau, vol)."""
    cases = []
    for m in np.geomspace(0.5, 2.0, 13):
        strike = spot * float(m)
        for tau in np.geomspace(1.0 / 365.0, 5.0, 9):
            tau = float(tau)
            kind = CALL if strike >= spot * math.exp((rate - dividend) * tau) else PUT
            for vol in np.geomspace(0.02, 3.0, 10):
                price = bs_price(kind, spot, strike, rate, dividend, float(vol), tau)
                cases.append((kind, price, strike, tau, float(vol)))
    return cases


@pytest.mark.parametrize("rate", [-0.01, 0.0, 0.03, 0.08])
def test_implied_vols_match_brentq_oracle_on_grid(rate):
    spot, dividend = 100.0, 0.02
    cases = _otm_grid(rate, dividend, spot)
    kinds, prices, strikes, taus, _ = zip(*cases)
    vols = implied_vols(kinds, prices, spot, strikes, rate, [dividend] * len(cases), taus)
    compared = 0
    for i, ((kind, price, strike, tau, _), vol) in enumerate(zip(cases, vols)):
        try:
            expected = implied_vol_brentq(kind, price, spot, strike, rate, dividend, tau)
        except (NoArbitrageViolation, NoConvergence):
            assert math.isnan(vol)
            continue
        if i % 5 == 0:
            # The scalar inversion is the one-element array pass.
            assert vol == implied_vol(kind, price, spot, strike, rate, dividend, tau)
        if price < 1e-300:
            continue
        # Below 1e-100 the call or put price is a difference of two normal
        # tails, each good to about 1e-13 relative, that cancel to a few
        # parts in 1e4; there the oracle itself is only within 1.8e-12 of
        # the vol that priced the quote.
        tol = 1e-12 if price >= 1e-100 else 4e-12
        assert vol == pytest.approx(expected, rel=tol, abs=0.0)
        compared += 1
    assert compared > 900


def test_brentq_lanes_takes_scipys_steps():
    # Given the same function values, every lane must stop where scipy's
    # brentq stops, bit for bit: roots left and right of the bracket's
    # middle, near its ends, and both interpolation kinds. In the second
    # call each bracket is centred on its root exactly, so |f| is the same
    # at both ends and no lane interpolates on the first step.
    def f(x, lanes):
        c, d = lanes
        return np.sinh(x - c) * d + (x - c) ** 3

    rng = np.random.default_rng(3)
    n = 400
    centres = np.array([-3.0, -0.75, 0.5, 1.25, 6.0])
    for lanes, xb in [
        (np.array([rng.uniform(-4.5, 7.5, n), rng.uniform(0.01, 5.0, n)]), rng.uniform(7.6, 9.0, n)),
        (np.array([centres, rng.uniform(0.01, 5.0, centres.size)]), 2.0 * centres + 5.0),
    ]:
        xa = np.full(xb.size, -5.0)
        roots, f_roots = _brentq_lanes(f, lanes, xa, xb, f(xa, lanes), f(xb, lanes))
        for i in range(xb.size):
            def g(x, i=i):
                return float(f(np.array([x]), lanes[:, i : i + 1])[0])
            expected = brentq(g, -5.0, float(xb[i]), xtol=1e-14, rtol=8.9e-16)
            assert roots[i] == expected
            assert f_roots[i] == g(expected)


def test_fill_implied_vols_evaluates_the_curve_once_per_tau(bs_day):
    seen = []

    class SeenCurve(DividendCurve):
        def value_at(self, tau):
            seen.append(tau)
            return super().value_at(tau)

    vols, failed = fill_implied_vols(bs_day, SeenCurve([0.0], [0.013]))
    assert sorted(seen) == sorted({q.tau for q in bs_day.quotes})
    flat_vols, flat_failed = fill_implied_vols(bs_day, DividendCurve([0.0], [0.013]))
    assert (vols.tolist(), failed) == (flat_vols.tolist(), flat_failed)


_DAY = dt.date(2024, 1, 2)


@st.composite
def adversarial_chains(draw):
    """A day of quotes at the edges of the inversion: zero bid and ask,
    mids on either band edge, prices below the sigma-floor price, zero
    time to expiry, deep in the money, denormal, fair and high-vol
    prices. A mid exactly at the floor price is left out: the search
    prices with scipy's ndtr, not bs_price's erfc, so there the two can
    decide differently."""
    spot = draw(st.floats(50.0, 150.0))
    rate = draw(st.floats(-0.01, 0.08))
    dividend = draw(st.floats(0.0, 0.05))
    quotes = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from([CALL, PUT]))
        ttm_days = draw(st.sampled_from([0, 1, 7, 30, 91, 365, 1825]))
        tau = ttm_days / DAYS_PER_YEAR
        case = draw(st.sampled_from([
            "zero", "low_edge", "high_edge", "below_floor", "deep_itm", "denormal", "fair",
            "high_vol",
        ]))
        strike = spot * draw(st.floats(0.5, 2.0))
        if case == "zero":
            price = 0.0
        elif case in ("low_edge", "high_edge"):
            price = no_arbitrage_band(kind, spot, strike, rate, dividend, tau)[case == "high_edge"]
        elif case == "denormal":
            price = draw(st.floats(5e-324, 2e-308))
        elif tau == 0.0:
            price = draw(st.floats(0.0, spot))
        elif case == "below_floor":
            strike = spot * math.exp((rate - dividend) * tau)
            floor = bs_price(kind, spot, strike, rate, dividend, 1e-6, tau)
            price = floor * draw(st.floats(0.01, 0.99))
        else:
            if case == "deep_itm":
                strike = spot * draw(st.floats(0.3, 0.6) if kind is CALL else st.floats(1.7, 3.0))
            vols = {"deep_itm": (0.01, 0.15), "fair": (0.02, 2.0), "high_vol": (2.0, 150.0)}[case]
            vol = draw(st.floats(*vols))
            price = bs_price(kind, spot, strike, rate, dividend, vol, tau)
        quotes.append(OptionQuote(kind, strike, _DAY + dt.timedelta(days=ttm_days), ttm_days,
                                  price, price, 500))
    return DailyChain(MarketEnv(_DAY, spot, rate, dividend), tuple(quotes)), dividend


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(adversarial_chains())
def test_fill_implied_vols_fails_exactly_where_the_oracle_raises(problem):
    chain, dividend = problem
    env = chain.env
    vols, failed = fill_implied_vols(chain, DividendCurve([0.0], [dividend]))
    assert len(vols) == len(chain.quotes)
    raised = 0
    for q, vol in zip(chain.quotes, vols.tolist()):
        args = (q.kind, q.mid, env.spot, q.strike, env.rate, dividend, q.tau)
        try:
            implied_vol_brentq(*args)
            oracle_error = None
        except (NoArbitrageViolation, NoConvergence, ValueError) as exc:
            oracle_error = type(exc)
        try:
            scalar = implied_vol(*args)
            scalar_error = None
        except (NoArbitrageViolation, NoConvergence, ValueError) as exc:
            scalar, scalar_error = None, type(exc)
        assert scalar_error is oracle_error
        assert math.isnan(vol) == (oracle_error is not None)
        raised += oracle_error is not None
        if not math.isnan(vol):
            assert scalar == vol
            repriced = bs_price(q.kind, env.spot, q.strike, env.rate, dividend, vol, q.tau)
            assert abs(repriced - q.mid) <= 1e-10 * max(1.0, q.mid)
    assert failed == raised


# Where a drawn quote's mid lies against its no-arbitrage band.
_MID_PLACES = ("model", "model", "model", "lower edge", "upper edge", "below", "above", "nan")


@st.composite
def quoted_days(draw):
    """2 to 4 days of calls and puts, with their own spots, rates and
    dividend curves, quoting mids at, inside and outside the band, a NaN
    mid, quotes expiring today, and one day with no quotes at all."""
    days = []
    for n in range(draw(st.integers(2, 4))):
        spot = draw(st.sampled_from((80.0, 100.0, 123.4)))
        rate = draw(st.sampled_from((-0.01, 0.0, 0.02, 0.05)))
        curve = DividendCurve([0.1, 0.6], draw(st.lists(st.sampled_from((0.0, 0.01, 0.035)),
                                                        min_size=2, max_size=2)))
        env = MarketEnv(_DAY + dt.timedelta(days=n), spot, rate, 0.01)
        quotes = []
        for _ in range(draw(st.integers(1, 10))):
            kind = draw(st.sampled_from((CALL, PUT)))
            strike = spot * draw(st.sampled_from((0.7, 0.95, 1.0, 1.1, 1.4)))
            ttm_days = draw(st.sampled_from((0, 7, 91, 365)))
            tau = ttm_days / DAYS_PER_YEAR
            place = draw(st.sampled_from(_MID_PLACES))
            if ttm_days == 0 or place == "nan":
                mid = math.nan if place == "nan" else 1.0
            else:
                dividend = curve.value_at(tau)
                lo, hi = no_arbitrage_band(kind, spot, strike, rate, dividend, tau)
                vol = draw(st.sampled_from((0.05, 0.25, 0.9)))
                mid = {"model": bs_price(kind, spot, strike, rate, dividend, vol, tau),
                       "lower edge": lo, "upper edge": hi, "below": lo - 0.01,
                       "above": hi * 1.01}[place]
            quotes.append(OptionQuote(kind, strike, env.date + dt.timedelta(days=ttm_days),
                                      ttm_days, mid, mid, 500))
        days.append((DailyChain(env, tuple(quotes)), curve))
    empty = (DailyChain(MarketEnv(_DAY, 100.0, 0.02, 0.01)), DividendCurve([0.0], [0.01]))
    days.insert(draw(st.integers(0, len(days))), empty)
    return days


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(quoted_days())
def test_one_pass_over_many_days_gives_each_day_its_own_vols(days):
    together = fill_implied_vols_of_days(days)
    assert len(together) == len(days)
    for (chain, curve), vols in zip(days, together):
        alone, failed = fill_implied_vols(chain, curve)
        assert vols.tobytes() == alone.tobytes()
        assert failed == int(np.isnan(vols).sum())
        # Per-quote spot and rate arrays invert as the scalar form does.
        env, n = chain.env, len(chain)
        dividends = [curve.value_at(tau) if tau > 0.0 else 0.0 for tau in chain.taus.tolist()]
        scalar = implied_vols(chain.kinds, chain.mids, env.spot, chain.strikes, env.rate,
                              dividends, chain.taus)
        lanes = implied_vols(chain.kinds, chain.mids, np.full(n, env.spot), chain.strikes,
                             np.full(n, env.rate), dividends, chain.taus)
        assert scalar.tobytes() == lanes.tobytes() == alone.tobytes()
