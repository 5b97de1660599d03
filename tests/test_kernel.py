"""Kernel regression: weighted-mean oracle, bandwidth rules, and the
cross-validation selector."""

import math
import warnings

import numpy as np
import pytest

from pricelab.errors import DegenerateDispersion, NumericalUnderflow
from pricelab.kernel import (
    Bandwidths,
    NwModel,
    cv_objective_at,
    loo_cv_bandwidths,
    nw_estimate,
    silverman_bandwidths,
)


def naive_estimate(model, strike, tau):
    """Direct-summation oracle: no log-space tricks."""
    total, weighted = 0.0, 0.0
    for k, t, v in zip(model.strikes, model.taus, model.values):
        w = math.exp(
            -0.5 * (((strike - k) / model.bandwidths.eps1) ** 2
                    + ((tau - t) / model.bandwidths.eps2) ** 2)
        )
        total += w
        weighted += w * v
    return max(weighted / total, 0.0)


def sample_model(rng, n=40, eps=(5.0, 0.3)):
    strikes = rng.uniform(80.0, 120.0, n)
    taus = rng.uniform(0.05, 1.5, n)
    values = rng.uniform(0.5, 20.0, n)
    return NwModel(strikes, taus, values, Bandwidths(*eps))


def test_bandwidths_must_be_positive():
    with pytest.raises(ValueError):
        Bandwidths(0.0, 1.0)
    with pytest.raises(ValueError):
        Bandwidths(1.0, -2.0)


def test_model_validation():
    with pytest.raises(ValueError):
        NwModel(np.zeros(3), np.zeros(2), np.zeros(3), Bandwidths(1.0, 1.0))
    with pytest.raises(ValueError):
        NwModel(np.zeros(0), np.zeros(0), np.zeros(0), Bandwidths(1.0, 1.0))


def test_estimate_matches_direct_summation():
    rng = np.random.default_rng(17)
    model = sample_model(rng)
    for _ in range(50):
        strike = float(rng.uniform(70.0, 130.0))
        tau = float(rng.uniform(0.01, 2.0))
        assert nw_estimate(model, strike, tau) == pytest.approx(
            naive_estimate(model, strike, tau), rel=1e-12
        )


def test_estimate_is_convex_combination():
    rng = np.random.default_rng(29)
    model = sample_model(rng)
    lo, hi = model.values.min(), model.values.max()
    for _ in range(50):
        value = nw_estimate(model, float(rng.uniform(0.0, 300.0)), float(rng.uniform(0.0, 3.0)))
        assert lo - 1e-12 <= value <= hi + 1e-12


def test_estimate_localizes_with_small_bandwidths():
    model = NwModel(
        np.array([90.0, 100.0, 110.0]),
        np.array([0.5, 0.5, 0.5]),
        np.array([3.0, 7.0, 11.0]),
        Bandwidths(0.5, 0.5),
    )
    assert nw_estimate(model, 100.0, 0.5) == pytest.approx(7.0, abs=1e-12)
    assert nw_estimate(model, 110.0, 0.5) == pytest.approx(11.0, abs=1e-12)


def test_estimate_reproduces_constants():
    rng = np.random.default_rng(31)
    model = NwModel(
        rng.uniform(80.0, 120.0, 20),
        rng.uniform(0.1, 1.0, 20),
        np.full(20, 4.25),
        Bandwidths(2.0, 0.1),
    )
    for _ in range(20):
        strike, tau = float(rng.uniform(60.0, 140.0)), float(rng.uniform(0.05, 2.0))
        assert nw_estimate(model, strike, tau) == pytest.approx(4.25, rel=1e-12)


def test_estimate_clamps_negative():
    model = NwModel(
        np.array([90.0, 110.0]), np.array([0.5, 0.5]), np.array([-1.0, -2.0]),
        Bandwidths(5.0, 0.5),
    )
    assert nw_estimate(model, 100.0, 0.5) == 0.0


def test_estimate_underflow_far_from_data():
    model = NwModel(
        np.array([100.0, 101.0]), np.array([0.5, 0.6]), np.array([1.0, 2.0]),
        Bandwidths(1.0, 0.1),
    )
    with pytest.raises(NumericalUnderflow):
        nw_estimate(model, 1e6, 0.5)


def test_silverman_exact_value():
    # 16 points at -a and 16 at +a with a = sqrt(31/32): the n-1 sample
    # deviation is exactly 1 and the IQR term is larger, so the rule
    # gives 0.9 * 1 * 32^(-1/5) = 0.45. Second coordinate is the first
    # scaled by 3.
    a = math.sqrt(31.0 / 32.0)
    col = np.array([-a] * 16 + [a] * 16)
    points = np.column_stack([col, 3.0 * col])
    bw = silverman_bandwidths(points)
    assert bw.eps1 == pytest.approx(0.45, abs=1e-14)
    assert bw.eps2 == pytest.approx(1.35, abs=1e-13)


def test_silverman_iqr_binds_under_outliers():
    col = np.array([-0.1] * 15 + [0.1] * 15 + [-100.0, 100.0])
    points = np.column_stack([col, col])
    n = len(col)
    iqr = np.percentile(col, 75.0) - np.percentile(col, 25.0)
    expected = 0.9 * (iqr / 1.34) * n ** (-0.2)
    bw = silverman_bandwidths(points)
    assert bw.eps1 == pytest.approx(expected, rel=1e-12)
    assert bw.eps1 < 0.9 * float(np.std(col, ddof=1)) * n ** (-0.2)


def test_silverman_degenerate_inputs():
    constant = np.column_stack([np.ones(10), np.arange(10.0)])
    with pytest.raises(DegenerateDispersion):
        silverman_bandwidths(constant)
    # IQR can vanish while the deviation does not.
    spiky = np.column_stack(
        [np.concatenate([np.zeros(30), [-50.0, 50.0]]), np.arange(32.0)]
    )
    with pytest.raises(DegenerateDispersion):
        silverman_bandwidths(spiky)
    with pytest.raises(DegenerateDispersion):
        silverman_bandwidths(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        silverman_bandwidths(np.zeros((4, 3)))


def cv_points(rng, n=24):
    strikes = rng.uniform(80.0, 120.0, n)
    taus = rng.uniform(0.1, 1.0, n)
    points = np.column_stack([strikes, taus])
    values = 5.0 + 0.002 * (strikes - 100.0) ** 2 + 3.0 * taus
    return points, values


def test_cv_objective_matches_naive_loops():
    rng = np.random.default_rng(43)
    points, values = cv_points(rng, n=12)
    values[3] = 0.0  # excluded from the sum, still a neighbor
    bw = Bandwidths(4.0, 0.2)

    total = 0.0
    for i in range(len(values)):
        if values[i] == 0.0:
            continue
        num, den = 0.0, 0.0
        for j in range(len(values)):
            if j == i:
                continue
            w = math.exp(
                -0.5 * (((points[i, 0] - points[j, 0]) / bw.eps1) ** 2
                        + ((points[i, 1] - points[j, 1]) / bw.eps2) ** 2)
            )
            num += w * values[j]
            den += w
        prediction = max(num / den, 0.0)
        total += (1.0 - prediction / values[i]) ** 2

    assert cv_objective_at(points, values, bw) == pytest.approx(total, rel=1e-12)


def test_cv_bandwidths_deterministic():
    rng = np.random.default_rng(47)
    points, values = cv_points(rng)
    first = loo_cv_bandwidths(points, values)
    second = loo_cv_bandwidths(points.copy(), values.copy())
    assert first == second


def test_cv_never_worse_than_silverman():
    rng = np.random.default_rng(53)
    for _ in range(5):
        points, values = cv_points(rng)
        seed = silverman_bandwidths(points)
        chosen = loo_cv_bandwidths(points, values)
        assert cv_objective_at(points, values, chosen) <= cv_objective_at(
            points, values, seed
        ) + 1e-15


def test_cv_constant_values():
    # Every bandwidth predicts a constant up to rounding crumbs, so the
    # selector has nothing real to optimize; it must still come back
    # deterministic and essentially perfect.
    rng = np.random.default_rng(59)
    points, _ = cv_points(rng)
    values = np.full(len(points), 2.5)
    chosen = loo_cv_bandwidths(points, values)
    assert chosen == loo_cv_bandwidths(points, values)
    assert cv_objective_at(points, values, chosen) < 1e-25
    assert cv_objective_at(points, values, chosen) <= cv_objective_at(
        points, values, silverman_bandwidths(points)
    )


def test_cv_input_contracts():
    rng = np.random.default_rng(61)
    points, values = cv_points(rng)
    with pytest.raises(ValueError):
        loo_cv_bandwidths(points[:2], values[:2])
    with pytest.raises(ValueError):
        loo_cv_bandwidths(points, values[:-1])
    with pytest.raises(ValueError):
        loo_cv_bandwidths(points, np.zeros(len(values)))


def test_cv_objective_overflow_on_a_tiny_value_is_inf_without_a_warning():
    # The 1e-300 value's ratio is about 1e300, so its square is past the
    # float range: the objective is +inf, and no RuntimeWarning escapes.
    # Every candidate bandwidth scores +inf, so the search reports that.
    points = np.array([(90.0, 0.1), (95.0, 0.1), (100.0, 0.1), (105.0, 0.2), (110.0, 0.2)])
    values = np.array([1e-300, 2.0, 3.0, 4.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cv_objective_at(points, values, Bandwidths(5.0, 0.1)) == math.inf
        with pytest.raises(NumericalUnderflow):
            loo_cv_bandwidths(points, values)
