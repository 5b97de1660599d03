"""Gamma-clock pricing: quadrature against brute-force integration,
Monte Carlo agreement, domain rules, and calibration."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist

import pricelab.variance_gamma as vg
from oracles import (gamma_expectation, vg_calibration_objective, vg_conditional_price,
                     vg_maturity_prices, vg_mc_price)
from oracles import vg_legs as _legs
from pricelab import simplex
from pricelab.errors import CalibrationFailure, DomainViolation
from pricelab.market_data import OptionKind
from pricelab.variance_gamma import (
    _LOG_CLOCK_MIN,
    _LOG_CLOCK_STEP,
    _NDTR_SATURATED,
    _TAIL_EXPONENT,
    _TAU_MAX,
    VgParams,
    _integrand,
    _node_count,
    _Options,
    _saturated_prefix,
    has_finite_variance,
    vg_calibrate,
    vg_eta,
    vg_price_mc,
    vg_price_quadrature,
)

CALL, PUT = OptionKind.CALL, OptionKind.PUT


def riemann_price(kind, spot, strike, rate, dividend, tau, params, n=400_001):
    """Trapezoid integration of the conditional price against the clock
    density on a dense grid. Only for tau >= 1, where the density is
    bounded at zero."""
    assert tau >= 1.0
    law = gamma_dist(a=tau, scale=1.0 / params.alpha)
    grid = np.linspace(1e-12, float(law.ppf(1.0 - 1e-14)), n)
    a = math.log(spot / strike) + (rate - dividend + params.eta) * tau
    leg_spot = spot * math.exp((-dividend + params.eta) * tau)
    leg_strike = strike * math.exp(-rate * tau)
    scale = params.sigma * np.sqrt(grid)
    d_plus = (a + (params.theta + params.sigma**2) * grid) / scale
    d_minus = (a + params.theta * grid) / scale
    lift = np.exp((params.theta + 0.5 * params.sigma**2) * grid)
    if kind is CALL:
        conditional = leg_spot * lift * ndtr(d_plus) - leg_strike * ndtr(d_minus)
    else:
        conditional = leg_strike * ndtr(-d_minus) - leg_spot * lift * ndtr(-d_plus)
    return float(np.trapezoid(conditional * law.pdf(grid), grid))


def test_eta_value_and_domain():
    assert vg_eta(0.1, 0.2, 2.0) == pytest.approx(math.log1p(-(0.1 + 0.02) / 2.0), rel=1e-15)
    with pytest.raises(DomainViolation):
        vg_eta(0.1, 0.0, 2.0)
    with pytest.raises(DomainViolation):
        vg_eta(0.1, 0.2, 0.0)
    with pytest.raises(DomainViolation):
        vg_eta(2.0, 0.5, 2.0)  # theta + sigma^2/2 >= alpha


def test_params_carry_eta():
    params = VgParams(-0.1, 0.25, 3.0)
    assert params.eta == pytest.approx(vg_eta(-0.1, 0.25, 3.0))
    with pytest.raises(DomainViolation):
        VgParams(5.0, 1.0, 2.0)


def test_finite_variance_boundary():
    assert has_finite_variance(VgParams(0.0, 0.3, 3.0))
    assert not has_finite_variance(VgParams(0.2, 0.5, 0.6))  # 0.65 >= 0.6
    assert not has_finite_variance(VgParams(0.0, 1.0, 1.0))  # equality


@pytest.mark.parametrize("shape, rate", [(0.5, 2.0), (1.0, 1.5), (2.5, 0.7)])
def test_gamma_expectation_moments(shape, rate):
    assert gamma_expectation(lambda g: 1.0, shape, rate) == pytest.approx(1.0, rel=1e-9)
    assert gamma_expectation(lambda g: g, shape, rate) == pytest.approx(shape / rate, rel=1e-8)
    assert gamma_expectation(lambda g: g * g, shape, rate) == pytest.approx(
        shape * (shape + 1.0) / rate**2, rel=1e-8
    )


@pytest.mark.parametrize("shape, rate, w", [(0.5, 2.0, 0.7), (0.5, 2.0, -3.0), (2.0, 1.0, 0.5)])
def test_gamma_expectation_mgf(shape, rate, w):
    expected = (1.0 - w / rate) ** (-shape)
    assert gamma_expectation(None, shape, rate, log_f=lambda g: w * g) == pytest.approx(
        expected, rel=1e-8
    )


def test_gamma_expectation_contracts():
    with pytest.raises(ValueError):
        gamma_expectation(None, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_expectation(lambda g: g, 1.0, 1.0, log_f=lambda g: g)
    with pytest.raises(ValueError):
        gamma_expectation(lambda g: g, 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_expectation(lambda g: g, 1.0, -1.0)


@pytest.mark.parametrize(
    "kind, strike, tau, params",
    [
        (CALL, 100.0, 1.0, VgParams(-0.1, 0.25, 3.0)),
        (PUT, 100.0, 1.0, VgParams(-0.1, 0.25, 3.0)),
        (CALL, 115.0, 1.5, VgParams(0.05, 0.3, 2.0)),
        (PUT, 85.0, 2.0, VgParams(0.0, 0.2, 5.0)),
    ],
)
def test_quadrature_matches_riemann_oracle(kind, strike, tau, params):
    quad_price = vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, tau, params)
    oracle = riemann_price(kind, 100.0, strike, 0.02, 0.01, tau, params)
    assert quad_price == pytest.approx(oracle, rel=1e-7)


# Prices of the adaptive Gamma-clock quadrature that the log-clock
# trapezoid replaced (scipy quad after a power substitution, error
# estimate within 1e-8 relative), at spot 100, rate 0.02, dividend 0.01.
# (0.4545, 0.3, 0.5) has theta + sigma^2/2 = 0.999 alpha: its calls grow
# with the clock almost as fast as the Gamma tail decays, so a grid cut
# where the density alone has decayed underprices them.
@pytest.mark.parametrize(
    "kind, strike, days, triple, pinned",
    [
        (CALL, 100.0, 4, (0.0, 0.3, 3.0), 0.1406904112807552),
        (PUT, 90.0, 30, (-0.1, 0.25, 2.0), 0.24199464306973142),
        (CALL, 120.0, 365, (0.4545, 0.3, 0.5), 98.26575289226946),
        (PUT, 95.0, 91, (0.4545, 0.3, 0.5), 70.16665231701418),
        (PUT, 110.0, 1095, (-0.3, 0.15, 0.5), 35.18053454376166),
        (CALL, 130.0, 182, (0.1, 0.5, 1.0), 8.125412451530327),
    ],
)
def test_quadrature_matches_pinned_adaptive_prices(kind, strike, days, triple, pinned):
    price = vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, days / 365.0, VgParams(*triple))
    assert price == pytest.approx(pinned, rel=1e-10)


# Pinned bits, in hex, of the quadrature price and of the Monte Carlo
# price and standard error (2,000 paths, seed = days), at spot 100, rate
# 0.02, dividend 0.01. Pricing a maturity's strikes as one array must not
# move any of them.
@pytest.mark.parametrize(
    "kind, strike, days, triple, quad_hex, mc_hex, stderr_hex",
    [
        (CALL, 100.0, 1, (0.0, 0.3, 3.0),
         "0x1.23e14dfea4457p-5", "0x1.d8e873b522891p-6", "0x1.15faad939d4bcp-7"),
        (PUT, 90.0, 30, (-0.1, 0.25, 2.0),
         "0x1.ef9ae32e557cdp-3", "0x1.03045d284a870p-2", "0x1.6cfa5c2bdfc41p-6"),
        (PUT, 110.0, 1095, (-0.3, 0.15, 0.5),
         "0x1.1971bc184a1b1p+5", "0x1.16f912533112bp+5", "0x1.762b02157bab4p-1"),
        (CALL, 130.0, 182, (0.1, 0.5, 1.0),
         "0x1.040360f93abf7p+3", "0x1.0577d2526df8ap+3", "0x1.1a05376632881p-1"),
        (PUT, 95.0, 91, (-0.052, 0.209, 1.83),
         "0x1.eb2a35033620fp-1", "0x1.c6dbf22bc90f0p-1", "0x1.411f565f60343p-5"),
    ],
)
def test_prices_keep_their_pinned_bits(kind, strike, days, triple, quad_hex, mc_hex,
                                       stderr_hex):
    params, tau = VgParams(*triple), days / 365.0
    price = vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, tau, params)
    assert price.hex() == quad_hex
    mc = vg_price_mc(kind, 100.0, strike, 0.02, 0.01, tau, params, n=2000, seed=days)
    assert (mc.price.hex(), mc.stderr.hex()) == (mc_hex, stderr_hex)


@pytest.mark.parametrize("kind", [CALL, PUT])
@pytest.mark.parametrize("days, triple", [(2, (0.0, 0.3, 3.0)), (91, (-0.1, 0.25, 2.0)),
                                          (730, (-0.3, 0.15, 0.5))])
def test_maturity_prices_match_a_scalar_loop_bit_for_bit(kind, days, triple):
    # The strike at the forward has log-forwardness 0: its d's never
    # saturate, so the array calls ndtr on every clock column, far left of
    # where a deep out-of-the-money strike alone would start calling it.
    # Options of three other maturities, 1 day to 3 years, share the array
    # in an order that interleaves the maturities; without the strike at
    # the forward, the array skips ndtr on a prefix that a lone option
    # may find longer. Thrice over, they fill more than one block of rows.
    params, tau = VgParams(*triple), days / 365.0
    at_forward = 100.0 * math.exp((0.02 - 0.01 + params.eta) * tau)
    assert abs(_legs(kind, 100.0, at_forward, 0.02, 0.01, tau, params)[0]) < 1e-15
    strikes = [20.0, 60.0, 85.0, 92.5, 100.0, at_forward, 104.0, 117.5, 150.0, 400.0]
    others = [(60.0, 1 / 365), (100.0, 3.0), (140.0, 30 / 365), (98.0, 1 / 365), (300.0, 3.0)]
    options = [(strike, tau) for strike in strikes]
    options[1:1], options[6:6] = others[:3], others[3:]
    away = [option for option in options if option[0] != at_forward]
    for chosen in (options, away, 3 * away):
        maturities = list(dict.fromkeys(t for _, t in chosen))
        rows = [maturities.index(t) for _, t in chosen]
        grouped = _Options(kind, 100.0, [k for k, _ in chosen], 0.02, 0.01, maturities, rows,
                           params.alpha).prices(params)
        for (strike, t), price in zip(chosen, grouped):
            assert price.hex() == vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, t,
                                                      params).hex()


def test_ndtr_is_exactly_zero_or_one_beyond_the_saturation_bound():
    # The integrand takes ndtr's value from the sign of d on the clock
    # columns where every |d| is at least the bound (the saturated prefix),
    # which keeps the prices' bits only while scipy's ndtr is exactly 1.0
    # and +0.0 there. At -37.6 it is still a subnormal, so no lower round
    # bound would do.
    bound = _NDTR_SATURATED
    points = np.array([bound, np.nextafter(bound, np.inf), 40.0, 1e3, 1e300, np.inf])
    assert np.all(ndtr(points) == 1.0)
    assert np.all(ndtr(-points) == 0.0)
    assert not np.any(np.signbit(ndtr(-points)))
    assert ndtr(-37.6) != 0.0


def _monte_carlo_integrand(kind, legs, params, clocks):
    """The integrand at each clock as vg_price_mc takes it, given vg_legs
    of one strike: _integrand with a cut of 0 on the clocks in the order
    drawn, and the zero-clock limit at a clock of exactly 0."""
    a, leg_spot, leg_strike, limit = legs
    positive = clocks > 0.0
    g = np.where(positive, clocks, 1.0)
    growth = params.theta + 0.5 * params.sigma * params.sigma
    spot_lift = leg_spot * np.exp(growth * g)[None, :]
    values = np.empty(spot_lift.shape)
    _integrand(kind, np.array([[a]]), spot_lift, np.array([[leg_strike]]), params, g, 0, values)
    return np.where(positive, values[0], limit)


@pytest.mark.parametrize("kind", [CALL, PUT])
def test_integrand_keeps_its_bits_on_clocks_in_any_order(kind):
    # Monte Carlo's unsorted clocks, exact zeros, a NaN log-forwardness, and
    # a column where d+ = 40 but d- = 0 (a = 800, clock 800/0.045): with
    # ndtr on every clock the values must be the oracle's, whatever the
    # rows and columns.
    params = VgParams(-0.045, 0.3, 1.0)
    rng = np.random.default_rng(29)
    clocks = np.exp(rng.uniform(-70.0, 16.0, 400))
    clocks[::37] = 0.0
    clocks[5] = 800.0 / 0.045
    rows = np.column_stack([rng.uniform(-900.0, 900.0, 6), rng.uniform(0.0, 200.0, (6, 2)),
                            rng.uniform(0.0, 50.0, 6)])
    rows[1, 0], rows[2, 0], rows[3, 0] = 800.0, 0.0, np.nan
    with np.errstate(invalid="ignore", over="ignore"):
        for legs in map(tuple, rows):
            values = _monte_carlo_integrand(kind, legs, params, clocks)
            oracle = vg_conditional_price(kind, legs, params, clocks)
            assert np.array_equal(values.view(np.int64), oracle.view(np.int64))


# Log-forwardness rows: at the forward, at the edges of the float range,
# deep out of the money either way, and not a number. 1e-320 and 5.4e-322
# (110 of the least subnormal) are subnormal: with sigma sqrt(g) near
# 1/40 of the latter, its rounding alone can take |d| below 38.
_EDGE_FORWARDNESS = (0.0, 1e-300, -1e-300, 1e-320, -1e-320, 5.4e-322, -5.4e-322, 1e-8, -1e-8,
                     900.0, -900.0, math.nan, math.inf, -math.inf)


@st.composite
def _laws(draw):
    """An admissible (theta, sigma, alpha): sigma from 1e-300 to 10, and
    theta 0 (the symmetric law), anywhere below alpha - sigma^2/2, or
    within 1e-3 of it."""
    alpha = 10.0 ** draw(st.floats(-3.0, 3.0))
    sigma = 10.0 ** draw(st.floats(-300.0, 1.0))
    if draw(st.booleans()):
        theta = alpha - 0.5 * sigma * sigma - 10.0 ** draw(st.floats(-12.0, -3.0))
    else:
        theta = draw(st.one_of(st.just(0.0), st.floats(-50.0, alpha - 0.5 * sigma * sigma)))
    try:
        return VgParams(theta, sigma, alpha)
    except DomainViolation:
        return VgParams(-0.5 * sigma * sigma, sigma, alpha)


def _about_the_root(params, reach):
    """Sorted clocks packed about the root of c g + 38 sigma sqrt(g) = reach,
    where |d| of the row of least |a| can first fall below 38 (None if the
    root is 0 or not finite)."""
    theta, sigma = params.theta, params.sigma
    c, b = max(abs(theta + sigma * sigma), abs(theta)), _NDTR_SATURATED * sigma
    root = 2.0 * reach / (b + math.hypot(b, 2.0 * math.sqrt(c) * math.sqrt(reach)))
    root *= root
    if not 0.0 < root < math.inf:
        return None
    near = root * (1.0 + np.array([-0.2, -0.1, -0.05, -1e-2, -1e-6, -1e-10, -1e-13, 1e-13,
                                   1e-10, 1e-6]))
    down, up = [root], [root]
    for _ in range(8):
        down.append(math.nextafter(down[-1], 0.0))
        up.append(math.nextafter(up[-1], math.inf))
    return np.sort(np.concatenate([near, down, up]))


@st.composite
def _prefix_cases(draw):
    """(params, a, clocks). a is a column of log-forwardness rows, or one
    float. The clocks are the quadrature's sorted grid, sorted clocks about
    the root, or unsorted: seeded Gamma draws, or drawn values with exact
    zeros and subnormals. The package gives the bound only the grid, but
    it holds on any clocks."""
    params = draw(_laws())
    forwardness = st.one_of(st.sampled_from(_EDGE_FORWARDNESS), st.floats(-1e3, 1e3))
    rows = draw(st.lists(forwardness, min_size=1, max_size=6))
    a = rows[0] if len(rows) == 1 and draw(st.booleans()) else np.array(rows)[:, None]
    shape = draw(st.sampled_from(("grid", "root", "root", "gamma", "drawn")))
    reach = float(np.min(np.abs(a)))
    clocks = _about_the_root(params, reach) if shape == "root" and reach > 0.0 else None
    if shape == "gamma":
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        clocks = rng.gamma(10.0 ** draw(st.floats(-3.0, 1.0)), 1.0 / params.alpha, 300)
    elif shape == "drawn":
        values = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310, 1e-300]),
                           st.floats(0.0, 1e6))
        clocks = np.array(draw(st.lists(values, min_size=1, max_size=80)))
    elif clocks is None:
        growth = params.theta + 0.5 * params.sigma * params.sigma
        x_max = math.log(_TAIL_EXPONENT / (params.alpha - max(growth, 0.0)))
        clocks = np.exp(np.arange(_LOG_CLOCK_MIN, x_max, _LOG_CLOCK_STEP))
    return params, a, clocks


def _root_case(triple, a):
    params = VgParams(*triple)
    return params, np.array([[a]]), _about_the_root(params, a)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=_prefix_cases())
# A sigma so small that c g all but cancels a before the root: only the
# widened c keeps the rounding of d's numerator out of the prefix. And a
# subnormal a, whose root has a subnormal sigma sqrt(g): the sigma floor.
@example(case=_root_case((-3.613693690103395, 2.5684731041672143e-28, 1.0), 5.447209314859791))
@example(case=_root_case((0.0, 1e-200, 1.0), 5.4e-322))
def test_the_saturated_prefix_only_holds_columns_where_ndtr_is_zero_or_one(case):
    params, a, clocks = case
    g = np.where(clocks > 0.0, clocks, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cut = _saturated_prefix(a, params, g)
    assert 0 <= cut <= g.size
    # A zero or NaN row leaves no prefix, and so do rows all infinite;
    # an infinite row among finite ones saturates on every column.
    if np.any(np.isnan(a) | (a == 0.0)) or np.all(np.isinf(a)):
        assert cut == 0
    sigma, prefix = params.sigma, g[:cut]
    scale = sigma * np.sqrt(prefix)
    with np.errstate(all="ignore"):
        for d in ((a + (params.theta + sigma * sigma) * prefix) / scale,
                  (a + params.theta * prefix) / scale):
            assert np.all(np.abs(d) >= _NDTR_SATURATED)
            assert np.all(np.sign(d) == np.sign(a))


@pytest.mark.parametrize("triple", [(0.0, 0.3 / math.sqrt(3.0), 1.0), (-0.052, 0.209, 1.83),
                                    (0.4545, 0.3, 0.5)])
@pytest.mark.parametrize("days", [7, 91, 365])
def test_the_bound_finds_all_but_two_columns_of_the_saturated_prefix(triple, days):
    # On the quadrature grid, puts from 70 to 130: the columns before the
    # first where some |d+-| is below the bound, less at most two.
    params, tau = VgParams(*triple), days / 365.0
    a = np.array([[_legs(PUT, 100.0, k, 0.015, 0.01, tau, params)[0]]
                  for k in np.linspace(70.0, 130.0, 18)])
    growth = params.theta + 0.5 * params.sigma * params.sigma
    x_max = math.log(_TAIL_EXPONENT / (params.alpha - max(growth, 0.0)))
    g = np.exp(np.arange(_LOG_CLOCK_MIN, x_max, _LOG_CLOCK_STEP))
    scale = params.sigma * np.sqrt(g)
    d_plus = (a + (params.theta + params.sigma**2) * g) / scale
    d_minus = (a + params.theta * g) / scale
    saturated = ((np.abs(d_plus) >= _NDTR_SATURATED)
                 & (np.abs(d_minus) >= _NDTR_SATURATED)).all(axis=0)
    first_open = int(np.argmin(saturated))
    assert first_open - 2 <= _saturated_prefix(a, params, g) <= first_open


@pytest.mark.parametrize("kind", [CALL, PUT])
def test_an_infinite_leg_takes_ndtr_on_every_clock(kind):
    # A spot of 1e308 carried at a dividend of -50% overflows the spot leg.
    # On the saturated prefix the integrand is then 0 times an infinite leg,
    # NaN, and not the exact 0 that the sign of a gives for finite legs.
    # Monte Carlo, which calls ndtr on every clock, gives the oracle's NaNs.
    params = VgParams(0.0, 0.3, 3.0)
    clocks = np.exp(np.linspace(-70.0, 5.0, 300))
    with np.errstate(all="ignore"):
        grouped = _Options(kind, 1e308, [100.0, 1e300], 0.02, -0.5, (2.0,), [0, 0],
                           params.alpha).prices(params)
        oracle = vg_maturity_prices(kind, 1e308, [100.0, 1e300], 0.02, -0.5, 2.0, params)
        for legs in ((5.0, math.inf, 1.0, 0.0), (-5.0, 1.0, math.inf, math.inf)):
            values = _monte_carlo_integrand(kind, legs, params, clocks)
            expected = vg_conditional_price(kind, legs, params, clocks)
            assert np.array_equal(values, expected, equal_nan=True)
    assert [p.hex() for p in grouped] == [p.hex() for p in oracle]


@pytest.mark.parametrize("kind", [CALL, PUT])
@pytest.mark.parametrize("rate, dividend, triple", [(0.0, 0.0, (0.0, 0.3, 3.0)),
                                                    (0.02, 0.5, (0.5, 0.3, 2.0)),
                                                    (0.0, 0.0, (-0.1, 0.2, 2.0))])
def test_a_maturity_past_the_density_range_is_refused(kind, rate, dividend, triple):
    # Up to _TAU_MAX the Gamma log-density stays in the float range and a
    # price comes back with no floating-point warning (the test run makes
    # one an error) or as an ArithmeticError; beyond it the option is
    # refused before any array is built.
    params = VgParams(*triple)
    try:
        vg_price_quadrature(kind, 100.0, 100.0, rate, dividend, _TAU_MAX, params)
    except ArithmeticError:
        pass
    with pytest.raises(OverflowError, match="float range"):
        vg_price_quadrature(kind, 100.0, 100.0, rate, dividend,
                            math.nextafter(_TAU_MAX, math.inf), params)


@pytest.mark.parametrize("kind", [CALL, PUT])
def test_a_tiny_sigma_keeps_the_oracles_bits_without_a_warning(kind):
    # Below _SIGMA_FLOOR, sigma sqrt(g) can be subnormal and d+- overflow to
    # the infinity of its sign, whose ndtr is the exact 0 or 1. The test run
    # makes a floating-point warning an error; the oracles run without one.
    params, tau, strikes = VgParams(0.0, 1e-300, 2.0), 0.25, (90.0, 110.0)
    with np.errstate(all="ignore"):
        oracle = vg_maturity_prices(kind, 100.0, strikes, 0.02, 0.01, tau, params)
        oracle_mc = [vg_mc_price(kind, 100.0, k, 0.02, 0.01, tau, params, 200, 5) for k in strikes]
    for strike, price, (mc_price, mc_stderr) in zip(strikes, oracle, oracle_mc):
        assert vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, tau, params).hex() == price.hex()
        mc = vg_price_mc(kind, 100.0, strike, 0.02, 0.01, tau, params, n=200, seed=5)
        assert (mc.price.hex(), mc.stderr.hex()) == (mc_price.hex(), mc_stderr.hex())


@pytest.mark.parametrize("alpha", [1e34, 1e300])
def test_an_alpha_past_the_grid_prices_at_the_zero_clock_limit(alpha):
    # The clock's mass lies below the grid's first node: the grid is empty.
    params = VgParams(-0.1, 0.2, alpha)
    assert _node_count(math.log(_TAIL_EXPONENT / alpha)) == 0
    for kind in (CALL, PUT):
        price = vg_price_quadrature(kind, 100.0, 95.0, 0.02, 0.01, 0.5, params)
        assert price == _legs(kind, 100.0, 95.0, 0.02, 0.01, 0.5, params)[3]


_GRID_STOP_MAX = math.log(_TAIL_EXPONENT / math.ulp(0.5)) + 1.0  # past any growth below 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(growth=st.one_of(st.floats(-5.0, 1.0, exclude_max=True),
                        st.floats(1.0 - 1e-12, 1.0, exclude_max=True)))
@example(growth=math.nextafter(1.0, 0.0))
@example(growth=0.0)
def test_a_clock_grid_is_a_prefix_of_every_longer_one(growth):
    # A fit builds its grid once and grows it when a step's stop asks for
    # more nodes; shorter grids are its prefix views. That keeps prices'
    # bits only while arange fills node i whatever the stop.
    x_max = math.log(_TAIL_EXPONENT / (1.0 - max(growth, 0.0)))
    grid = np.arange(_LOG_CLOCK_MIN, x_max, _LOG_CLOCK_STEP)
    assert _node_count(x_max) == grid.size
    longest = np.arange(_LOG_CLOCK_MIN, _GRID_STOP_MAX, _LOG_CLOCK_STEP)
    assert np.array_equal(grid.view(np.int64), longest[:grid.size].view(np.int64))


# Days from 1 to 1,095 and strikes from deep out of the money to either
# side of the spot: 1,440 options over the two kinds.
_BITS_DAYS = (1, 2, 4, 7, 30, 91, 182, 365, 730, 1095)
_BITS_STRIKES = (50.0, 80.0, 95.0, 99.99, 100.0, 100.01, 105.0, 120.0, 200.0)


@pytest.mark.parametrize("kind", [CALL, PUT])
@pytest.mark.parametrize(
    "triple",
    [(0.0, 0.3, 3.0), (-0.1, 0.25, 2.0), (0.4545, 0.3, 0.5), (-0.3, 0.15, 0.5),
     (0.1, 0.5, 1.0), (-0.052, 0.209, 1.83), (0.0, 0.3 / math.sqrt(3.0), 1.0), (0.2, 0.05, 4.0)],
)
def test_prices_keep_the_bits_of_ndtr_on_every_clock(kind, triple):
    params = VgParams(*triple)
    for days in _BITS_DAYS:
        tau = days / 365.0
        grouped = _Options(kind, 100.0, _BITS_STRIKES, 0.02, 0.01, (tau,),
                           [0] * len(_BITS_STRIKES), params.alpha).prices(params)
        oracle = vg_maturity_prices(kind, 100.0, _BITS_STRIKES, 0.02, 0.01, tau, params)
        assert [p.hex() for p in grouped] == [p.hex() for p in oracle]
        if days == 1:
            # Monte Carlo draws clocks of exactly 0 here, which take the
            # integrand's zero-clock limit.
            assert np.any(np.random.default_rng(days).gamma(tau, 1.0 / params.alpha, 200) == 0.0)
        for strike in _BITS_STRIKES:
            lone = vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, tau, params)
            assert lone.hex() == float(vg_maturity_prices(kind, 100.0, (strike,), 0.02, 0.01,
                                                          tau, params)[0]).hex()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                mc = vg_price_mc(kind, 100.0, strike, 0.02, 0.01, tau, params, n=200, seed=days)
            expected = vg_mc_price(kind, 100.0, strike, 0.02, 0.01, tau, params, 200, days)
            assert (mc.price.hex(), mc.stderr.hex()) == tuple(v.hex() for v in expected)


@pytest.mark.parametrize("days", [1, 2, 3])
@pytest.mark.parametrize("kind, strike", [(CALL, 100.0), (CALL, 120.0), (PUT, 90.0)])
def test_short_maturities_match_monte_carlo(days, kind, strike):
    # Below a year the clock density is singular at zero; at 1-3 days
    # most of its mass sits below a clock of e^-70.
    params = VgParams(0.0, 0.3, 3.0)
    tau = days / 365.0
    price = vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, tau, params)
    mc = vg_price_mc(kind, 100.0, strike, 0.02, 0.01, tau, params, n=400_000, seed=days)
    assert abs(mc.price - price) <= 4.0 * mc.stderr


def test_put_call_parity_all_clock_shapes():
    # e^{eta T} cancels the clock's moment generating function exactly,
    # so parity holds with the plain carry legs at every maturity,
    # including the short ones where the clock density is singular.
    rng = np.random.default_rng(13)
    spot, rate, dividend = 100.0, 0.02, 0.01
    for tau in (0.1, 0.5, 1.0, 2.0):
        for _ in range(5):
            sigma = float(rng.uniform(0.1, 0.5))
            alpha = float(rng.uniform(1.0, 6.0))
            theta = float(rng.uniform(-0.4, min(0.4, alpha - 0.5 * sigma**2 - 0.1)))
            params = VgParams(theta, sigma, alpha)
            strike = spot * float(rng.uniform(0.85, 1.2))
            call = vg_price_quadrature(CALL, spot, strike, rate, dividend, tau, params)
            put = vg_price_quadrature(PUT, spot, strike, rate, dividend, tau, params)
            carry = spot * math.exp(-dividend * tau) - strike * math.exp(-rate * tau)
            assert call - put == pytest.approx(carry, abs=1e-7)


def test_parameter_scaling_leaves_prices_unchanged():
    # (theta, sigma^2, alpha) -> (c theta, c sigma^2, c alpha) rescales
    # the clock by 1/c and the conditional variance by c: the law of the
    # log-price, hence every price, is unchanged.
    base = VgParams(-0.15, 0.3, 2.5)
    for c in (0.5, 2.0, 10.0):
        scaled = VgParams(c * base.theta, base.sigma * math.sqrt(c), c * base.alpha)
        for kind, strike, tau in [(CALL, 105.0, 0.5), (PUT, 95.0, 1.25)]:
            assert vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, tau, scaled) == (
                pytest.approx(
                    vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, tau, base),
                    rel=1e-7,
                )
            )


def test_vanishing_sigma_collapses_to_carry():
    params = VgParams(0.0, 1e-8, 2.0)
    call = vg_price_quadrature(CALL, 100.0, 80.0, 0.02, 0.01, 1.0, params)
    assert call == pytest.approx(100.0 * math.exp(-0.01) - 80.0 * math.exp(-0.02), rel=1e-9)
    put = vg_price_quadrature(PUT, 100.0, 80.0, 0.02, 0.01, 1.0, params)
    assert put == pytest.approx(0.0, abs=1e-9)


def test_price_input_contracts():
    params = VgParams(0.0, 0.3, 3.0)
    for price in (vg_price_quadrature, vg_price_mc):
        with pytest.raises(ValueError):
            price(CALL, 0.0, 100.0, 0.02, 0.01, 1.0, params)
        with pytest.raises(ValueError):
            price(CALL, 100.0, -5.0, 0.02, 0.01, 1.0, params)
        with pytest.raises(ValueError):
            price(CALL, 100.0, 100.0, 0.02, 0.01, 0.0, params)


def test_mc_reproducible_and_seed_sensitive():
    params = VgParams(-0.1, 0.25, 3.0)
    first = vg_price_mc(CALL, 100.0, 105.0, 0.02, 0.01, 0.5, params, n=5000, seed=7)
    second = vg_price_mc(CALL, 100.0, 105.0, 0.02, 0.01, 0.5, params, n=5000, seed=7)
    assert first == second
    other = vg_price_mc(CALL, 100.0, 105.0, 0.02, 0.01, 0.5, params, n=5000, seed=8)
    assert other.price != first.price
    with pytest.raises(ValueError):
        vg_price_mc(CALL, 100.0, 105.0, 0.02, 0.01, 0.5, params, n=1)


@pytest.mark.parametrize(
    "kind, strike, tau, seed",
    [(CALL, 100.0, 0.5, 0), (CALL, 110.0, 0.5, 1), (PUT, 95.0, 1.0, 2), (PUT, 100.0, 0.25, 3)],
)
def test_mc_agrees_with_quadrature(kind, strike, tau, seed):
    params = VgParams(-0.1, 0.25, 3.0)
    reference = vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, tau, params)
    mc = vg_price_mc(kind, 100.0, strike, 0.02, 0.01, tau, params, n=20_000, seed=seed)
    assert abs(mc.price - reference) <= 3.5 * mc.stderr


def test_mc_warns_on_infinite_variance():
    params = VgParams(0.2, 0.5, 0.6)
    assert not has_finite_variance(params)
    with pytest.warns(RuntimeWarning):
        vg_price_mc(CALL, 100.0, 100.0, 0.02, 0.01, 0.5, params, n=100)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vg_price_mc(CALL, 100.0, 100.0, 0.02, 0.01, 0.5, VgParams(-0.1, 0.25, 3.0), n=100)


def test_calibration_reprices_single_quote():
    truth = VgParams(-0.1, 0.25, 3.0)
    strike, tau = 105.0, 0.5
    price = vg_price_quadrature(CALL, 100.0, strike, 0.02, 0.01, tau, truth)
    fitted, objective = vg_calibrate([(strike, tau, price)], CALL, 100.0, 0.02, 0.01)
    assert objective <= 1e-10
    refit = vg_price_quadrature(CALL, 100.0, strike, 0.02, 0.01, tau, fitted)
    assert refit == pytest.approx(price, rel=1e-5)


@pytest.mark.parametrize(
    "triple",
    [(-0.1, 0.2, 2.0), (-0.052, 0.209, 1.83), (-0.2, 0.25, 1.0), (0.1, 0.3, 2.0),
     (-0.3, 0.15, 0.5), (0.4, 0.3, 0.5), (0.0, 0.3, 3.0)],
)
def test_calibration_recovers_the_identified_ratios(triple):
    # Prices fix only theta/alpha and sigma^2/alpha, so those must come back
    # even though the triple itself is not identified; the fit keeps the
    # start's alpha.
    truth = VgParams(*triple)
    quotes = [(strike, days / 365.0,
               vg_price_quadrature(PUT, 100.0, strike, 0.02, 0.01, days / 365.0, truth))
              for days in (30, 91, 182) for strike in (85.0, 90.0, 95.0, 100.0, 105.0)]
    fitted, objective = vg_calibrate(quotes, PUT, 100.0, 0.02, 0.01)
    assert objective <= 1e-10
    assert fitted.alpha == 2.0
    assert fitted.theta / fitted.alpha == pytest.approx(truth.theta / truth.alpha, abs=1e-4)
    assert fitted.sigma**2 / fitted.alpha == pytest.approx(truth.sigma**2 / truth.alpha,
                                                           abs=1e-4)


def test_calibration_input_contracts():
    with pytest.raises(ValueError):
        vg_calibrate([], CALL, 100.0, 0.02, 0.01)
    with pytest.raises(ValueError):
        vg_calibrate([(100.0, 0.5, 0.0)], CALL, 100.0, 0.02, 0.01)


def test_calibration_failure_when_every_start_stalls(monkeypatch):
    import pricelab.variance_gamma as vg

    def stalled(*args, **kwargs):
        return SimpleNamespace(status=2, message="out of budget")

    monkeypatch.setattr(vg, "nelder_mead", stalled)
    with pytest.raises(CalibrationFailure, match="out of budget"):
        vg_calibrate([(100.0, 0.5, 5.0)], CALL, 100.0, 0.02, 0.01)


def test_a_stalled_calibration_raises_no_floating_point_warning():
    # A call quoted at 6.9e-245 overflows its squared relative error, and
    # the simplex then holds several +inf scores, whose spread is inf - inf.
    # Both are the search's own signals, not warnings for the user.
    quotes = [(105.0, 1 / 365, 0.014261546743565168), (1000.0, 7 / 365, 6.917851566866738e-245),
              (90.0, 91 / 365, 33.37227925360416), (95.0, 1.0, 0.08579653822103706)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CalibrationFailure, match="calibration stalled"):
            vg_calibrate(quotes, CALL, 100.0, 0.02, 0.5)


def _quotes(kind, triple, strikes, days):
    truth = VgParams(*triple)
    return kind, [(strike, d / 365.0,
                   vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, d / 365.0, truth))
                  for d in days for strike in strikes]


_FIVE_MATURITIES = (7, 30, 91, 182, 730)
_ORACLE_QUOTE_SETS = {
    "puts-1-maturity": _quotes(PUT, (-0.1, 0.2, 2.0), (90.0, 95.0, 100.0, 105.0), (91,)),
    "calls-3-maturities": _quotes(CALL, (0.1, 0.3, 2.0), (95.0, 100.0, 110.0), (30, 91, 365)),
    # Maturities interleaved, so no maturity's quotes are contiguous.
    "puts-5-maturities": (PUT, [q for pair in zip(
        _quotes(PUT, (-0.2, 0.25, 1.0), (85.0, 95.0, 105.0), _FIVE_MATURITIES)[1],
        _quotes(PUT, (-0.2, 0.25, 1.0), (90.0, 100.0, 110.0), _FIVE_MATURITIES[::-1])[1])
        for q in pair]),
    "calls-repeated-quote": (CALL, _quotes(CALL, (0.0, 0.3, 3.0), (100.0, 105.0), (30, 91))[1]
                             + _quotes(CALL, (0.0, 0.3, 3.0), (105.0,), (30,))[1]),
    "calls-5-maturities": _quotes(CALL, (-0.052, 0.209, 1.83), (100.0, 120.0), (1, 7, 30, 91, 365)),
    # theta + sigma^2/2 = 0.999 alpha: the search runs out of iterations.
    "puts-15-stall": _quotes(PUT, (0.4545, 0.3, 0.5), (85.0, 90.0, 95.0, 100.0, 105.0),
                             (30, 91, 182)),
}


@pytest.mark.parametrize("name", list(_ORACLE_QUOTE_SETS))
def test_calibration_takes_the_steps_of_the_per_maturity_objective(name, monkeypatch):
    # Every objective value the search sees, and the search's end, must be
    # the per-maturity objective's, bit for bit.
    kind, quotes = _ORACLE_QUOTE_SETS[name]
    searches, scores = [], []

    def recording(objective, x0, **options):
        def scored(u, v):
            scores.append(((u, v), objective(u, v)))
            return scores[-1][1]

        searches.append((x0, options))
        return simplex.nelder_mead(scored, x0, **options)

    monkeypatch.setattr(vg, "nelder_mead", recording)
    meta = {}
    try:
        fitted, objective = vg_calibrate(quotes, kind, 100.0, 0.02, 0.01, meta=meta)
    except CalibrationFailure:
        fitted = objective = None
    [(x0, options)] = searches
    oracle = vg_calibration_objective(quotes, kind, 100.0, 0.02, 0.01)
    with np.errstate(over="ignore"):
        assert [score.hex() for _, score in scores] == [oracle(*x).hex() for x, _ in scores]
        expected = simplex.nelder_mead(oracle, x0, **options)
    assert meta == {"evaluations": expected.nfev, "converged": expected.status == 0}
    if name == "puts-15-stall":
        assert fitted is None and expected.status == 2
        return
    alpha = 2.0
    theta, sigma = expected.x
    assert objective.hex() == expected.fun.hex()
    assert (fitted.theta.hex(), fitted.sigma.hex(), fitted.alpha) == (
        (alpha * theta).hex(), (math.sqrt(alpha) * sigma).hex(), alpha)


@pytest.mark.parametrize("name", ["puts-15-stall", "calls-5-maturities"])
def test_a_fit_prices_its_steps_alike_in_any_order(name, monkeypatch):
    # A fit builds its options' and grid's terms once and reuses them on
    # every step, growing the grid when a step needs more nodes (on the
    # stall's path, 8 times in its first 70 steps). Replayed forwards and
    # then reversed on one fit, the search's path keeps the per-maturity
    # objective's bits.
    kind, quotes = _ORACLE_QUOTE_SETS[name]
    path, scores = [], []

    def recording(objective, x0, **options):
        def scored(u, v):
            path.append((u, v))
            return objective(u, v)

        return simplex.nelder_mead(scored, x0, **options)

    def replaying(objective, x0, **options):
        scores.extend(objective(*x).hex() for x in path + path[::-1])
        return SimpleNamespace(status=0, nfev=2 * len(path), x=x0, fun=0.0)

    monkeypatch.setattr(vg, "nelder_mead", recording)
    with np.errstate(over="ignore"):
        try:
            vg_calibrate(quotes, kind, 100.0, 0.02, 0.01)
        except CalibrationFailure:
            pass
        oracle = vg_calibration_objective(quotes, kind, 100.0, 0.02, 0.01)
        expected = [oracle(*x).hex() for x in path]
        monkeypatch.setattr(vg, "nelder_mead", replaying)
        vg_calibrate(quotes, kind, 100.0, 0.02, 0.01)
    assert len(set(path)) > 100
    assert scores == expected + expected[::-1]
