"""The estimator zoo behind the fit/predict surface: hull semantics,
repricing consistency, and failure signalling."""

import math
from datetime import timedelta

import pytest

from pricelab.black_scholes import bs_price
from pricelab.errors import DegenerateDispersion, InsufficientData
from pricelab.estimators import (
    HULL_LABELS,
    EstimatorLabel,
    Prediction,
    PredictStatus,
    PricingEstimator,
    fit,
    predict,
)
from pricelab.market_data import OptionKind, OptionQuote
from pricelab.parity import DividendCurve, estimate_dividend_curve
from pricelab.variance_gamma import VgParams, vg_price_quadrature

CALL, PUT = OptionKind.CALL, OptionKind.PUT
L = EstimatorLabel


def calls_of(chain):
    return [q for q in chain.quotes if q.kind is CALL]


def test_hull_label_set():
    assert HULL_LABELS == {L.LI, L.BS, L.LIB}


def test_li_exact_at_training_quotes(bs_day):
    est = fit(L.LI, CALL, bs_day.quotes, bs_day.env)
    for q in calls_of(bs_day)[:: 7]:
        result = predict(est, q.strike, q.tau)
        assert result.status is PredictStatus.PRICED
        assert not result.extrapolated
        assert result.price == pytest.approx(q.mid, abs=1e-10)


def test_li_outside_hull(bs_day):
    est = fit(L.LI, CALL, bs_day.quotes, bs_day.env)
    result = predict(est, 200.0, 0.5)
    assert result.status is PredictStatus.OUTSIDE_HULL
    assert result.price is None
    # Shorter than the shortest training maturity is also out of domain.
    assert predict(est, 100.0, 1e-4).status is PredictStatus.OUTSIDE_HULL


def test_lib_extends_hull_to_expiry(bs_day):
    li = fit(L.LI, CALL, bs_day.quotes, bs_day.env)
    lib = fit(L.LIB, CALL, bs_day.quotes, bs_day.env)
    assert lib.meta["n_fictitious"] == 30
    short_query = (100.0, 1e-3)
    assert predict(li, *short_query).status is PredictStatus.OUTSIDE_HULL
    result = predict(lib, *short_query)
    assert result.status is PredictStatus.PRICED
    # A day out from expiry the call is worth nearly its intrinsic.
    near_expiry = predict(lib, 80.0, 1e-3)
    assert near_expiry.price == pytest.approx(20.0, abs=0.5)


def test_bs_label_reprices_flat_vol_world(bs_day):
    # Training vols are all 0.2, the interpolated vol surface is the
    # constant 0.2, so in-hull predictions must equal the generating
    # model's price.
    curve = estimate_dividend_curve(bs_day)
    est = fit(L.BS, CALL, bs_day.quotes, bs_day.env, curve=curve)
    assert est.meta["dropped_noninvertible"] == 0
    for strike, tau in [(97.0, 0.3), (104.0, 0.6), (100.0, 30 / 365.0)]:
        result = predict(est, strike, tau)
        assert result.status is PredictStatus.PRICED
        expected = bs_price(CALL, 100.0, strike, 0.02, curve.value_at(tau), 0.2, tau)
        assert result.price == pytest.approx(expected, rel=1e-9)


def test_bs_label_self_consistent_under_wrong_dividend(bs_day):
    # Inverting and repricing with the same (wrong) dividend cancels at
    # the training points.
    wrong = DividendCurve([1.0], [0.05])
    est = fit(L.BS, CALL, bs_day.quotes, bs_day.env, curve=wrong)
    for q in calls_of(bs_day)[:: 9]:
        assert predict(est, q.strike, q.tau).price == pytest.approx(q.mid, rel=1e-8)


def test_nw_labels_price_outside_hull(bs_day):
    # Cross-validation on noise-free data shrinks the bandwidths toward
    # nearest-neighbor, so "just outside the hull" must be measured in
    # bandwidth units for the query to stay above the underflow floor.
    taus = sorted({q.tau for q in calls_of(bs_day)})
    for label in (L.NW, L.NWCV):
        est = fit(label, CALL, bs_day.quotes, bs_day.env)
        eps1, eps2 = est.meta["bandwidths"]
        assert eps1 > 0.0 and eps2 > 0.0
        inside = predict(est, 100.0, taus[2])
        assert inside.status is PredictStatus.PRICED
        assert not inside.extrapolated
        outside = predict(est, 130.0 + eps1, taus[2])
        assert outside.status is PredictStatus.PRICED
        assert outside.extrapolated
        lo = min(q.mid for q in calls_of(bs_day))
        hi = max(q.mid for q in calls_of(bs_day))
        assert lo <= inside.price <= hi


def test_each_search_records_how_it_ended_in_the_fit_meta(bs_day, vg_day, simplex_searches):
    for label in (L.NWCV, L.BSNWCV):
        est = fit(label, CALL, bs_day.quotes, bs_day.env)
        *_, result = simplex_searches[-1]
        assert (est.meta["cv_evaluations"], est.meta["cv_converged"]) == (result.nfev, True)
    est = fit(L.VG, PUT, vg_day.quotes, vg_day.env)
    *_, result = simplex_searches[-1]
    assert (est.meta["evaluations"], est.meta["converged"]) == (result.nfev, True)
    assert len(simplex_searches) == 3


def test_nw_far_query_fails_cleanly(bs_day):
    est = fit(L.NW, CALL, bs_day.quotes, bs_day.env)
    result = predict(est, 1e9, 0.5)
    assert result.status is PredictStatus.FAILED
    assert result.price is None


def test_bsnw_reprices_flat_vol_world(bs_day):
    # Kernel smoothing of a constant vol is the constant, everywhere; the
    # repriced result must match the generating model even outside the
    # training hull (with the extrapolation flag up).
    # Tolerance reflects the vol inversions: each training vol is 0.2 up
    # to the root-finder's residual, and the error scales with vega.
    for label in (L.BSNW, L.BSNWCV):
        est = fit(label, CALL, bs_day.quotes, bs_day.env)
        for strike, tau, extrapolated in [(101.0, 0.4, False), (140.0, 0.1, True)]:
            result = predict(est, strike, tau)
            assert result.status is PredictStatus.PRICED
            assert result.extrapolated is extrapolated
            expected = bs_price(CALL, 100.0, strike, 0.02, 0.013, 0.2, tau)
            assert result.price == pytest.approx(expected, rel=1e-7, abs=1e-7)


def test_vg_label_recovers_generating_params(bs_day):
    truth = VgParams(0.0, 0.3, 3.0)
    env = bs_day.env
    tau = 182 / 365.0
    expiry = env.date + timedelta(days=182)
    quotes = []
    for strike in (92.0, 98.0, 104.0, 110.0):
        price = vg_price_quadrature(CALL, env.spot, strike, env.rate, 0.013, tau, truth)
        quotes.append(
            OptionQuote(
                kind=CALL, strike=strike, expiry=expiry, ttm_days=182,
                bid=price, ask=price, volume=500,
            )
        )
    est = fit(L.VG, CALL, quotes, env)
    assert est.meta["objective"] <= 1e-8
    for q in quotes:
        assert predict(est, q.strike, q.tau).price == pytest.approx(q.mid, rel=1e-4)
    # Single-maturity training: the hull is the segment of strikes at
    # that maturity.
    beyond = predict(est, 100.0, tau + 0.2)
    assert beyond.status is PredictStatus.PRICED
    assert beyond.extrapolated
    assert not predict(est, 100.0, tau).extrapolated


def test_kernel_labels_flag_queries_off_a_collinear_training_segment(bs_day):
    # Training quotes on one line that is not axis-aligned: strikes 90..110
    # at 30..90 days. Their hull is that segment, not its bounding box.
    env = bs_day.env
    quotes = []
    for strike, days in zip((90.0, 95.0, 100.0, 105.0, 110.0), (30, 45, 60, 75, 90)):
        price = bs_price(CALL, env.spot, strike, env.rate, 0.013, 0.2, days / 365.0)
        quotes.append(
            OptionQuote(kind=CALL, strike=strike, expiry=env.date + timedelta(days=days),
                        ttm_days=days, bid=price, ask=price, volume=500)
        )
    # NWCV is left out: its cross-validated bandwidths shrink until the
    # off-segment query's kernel weights underflow.
    for label in (L.NW, L.BSNW, L.BSNWCV):
        est = fit(label, CALL, quotes, env)
        on_segment = predict(est, 100.0, 60 / 365.0)
        assert on_segment.status is PredictStatus.PRICED
        assert not on_segment.extrapolated
        off_segment = predict(est, 90.0, 90 / 365.0)
        assert off_segment.status is PredictStatus.PRICED
        assert off_segment.extrapolated


def test_predict_turns_arithmetic_errors_into_failures(bs_day):
    def divide_by_zero(strike, tau):
        return strike / 0.0

    est = PricingEstimator(L.VG, divide_by_zero, lambda k, t: True)
    assert predict(est, 100.0, 0.5).status is PredictStatus.FAILED


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_predict_turns_a_non_finite_price_into_a_failure(value):
    est = PricingEstimator(L.NW, lambda k, t: value, lambda k, t: True)
    assert predict(est, 100.0, 0.5) == Prediction(price=None, status=PredictStatus.FAILED)


def test_insufficient_data(bs_day):
    few = calls_of(bs_day)[:2]
    for label in (L.LI, L.LIB, L.BS, L.NWCV, L.VG):
        with pytest.raises(InsufficientData):
            fit(label, CALL, few, bs_day.env)
    with pytest.raises(InsufficientData):
        fit(L.NW, CALL, [], bs_day.env)


def test_fit_filters_kind(bs_day):
    puts = [q for q in bs_day.quotes if q.kind is PUT]
    with pytest.raises(InsufficientData):
        fit(L.LI, CALL, puts, bs_day.env)


def test_nw_minimal_fits(bs_day):
    calls = calls_of(bs_day)
    pair = [
        next(q for q in calls if q.strike == 70.0 and q.ttm_days == 30),
        next(q for q in calls if q.strike == 130.0 and q.ttm_days == 365),
    ]
    # Two quotes spread in both coordinates carry a bandwidth rule.
    est = fit(L.NW, CALL, pair, bs_day.env)
    assert est.meta["n_train"] == 2
    assert predict(est, 100.0, 0.5).status is PredictStatus.PRICED
    # One quote passes the count check but has no dispersion to rule on.
    with pytest.raises(DegenerateDispersion):
        fit(L.NW, CALL, pair[:1], bs_day.env)
    # One maturity has no tau spread; the error names the label and the coordinate.
    one_maturity = [q for q in calls if q.ttm_days == 30]
    with pytest.raises(DegenerateDispersion, match="^NW: tau has zero spread$"):
        fit(L.NW, CALL, one_maturity, bs_day.env)


def test_bs_drops_uninvertible_quotes(bs_day):
    quotes = list(calls_of(bs_day))
    broken = quotes[0].__class__(
        kind=CALL, strike=quotes[0].strike, expiry=quotes[0].expiry,
        ttm_days=quotes[0].ttm_days, bid=0.0, ask=0.0, volume=10,
    )
    est = fit(L.BS, CALL, [broken, *quotes[1:]], bs_day.env)
    assert est.meta["dropped_noninvertible"] == 1


def test_predict_query_contracts(bs_day):
    est = fit(L.LI, CALL, bs_day.quotes, bs_day.env)
    with pytest.raises(ValueError):
        predict(est, 100.0, 0.0)
    with pytest.raises(ValueError):
        predict(est, -1.0, 0.5)


def test_unknown_label_rejected(bs_day):
    with pytest.raises(ValueError):
        fit("nonsense", CALL, bs_day.quotes, bs_day.env)
