"""Gamma-clock pricing: quadrature against brute-force integration,
Monte Carlo agreement, domain rules, and calibration."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist

from oracles import gamma_expectation
from pricelab.errors import CalibrationFailure, DomainViolation
from pricelab.market_data import OptionKind
from pricelab.variance_gamma import (
    VgParams,
    _maturity_prices,
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
    params, tau = VgParams(*triple), days / 365.0
    strikes = [60.0, 85.0, 92.5, 100.0, 104.0, 117.5, 150.0]
    grouped = _maturity_prices(kind, 100.0, strikes, 0.02, 0.01, tau, params)
    for strike, price in zip(strikes, grouped):
        assert price == vg_price_quadrature(kind, 100.0, strike, 0.02, 0.01, tau, params)


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
    assert first.n == 5000 and first.seed == 7
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
    with pytest.raises(ValueError):
        vg_calibrate([(100.0, 0.5, 5.0)], CALL, 100.0, 0.02, 0.01, init=(5.0, 1.0, 2.0))


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
