"""Kernel regression: weighted-mean oracle, bandwidth rules, and the
cross-validation selector."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pricelab.errors import DegenerateDispersion, NumericalUnderflow
from pricelab.kernel import (
    Bandwidths,
    NwModel,
    _cv_objective,
    _exp,
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


# --- bit-for-bit agreement with the straightforward forms (tests/oracles.py)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_exp_underflows_to_zero_at_or_below_minus_746():
    # _exp rests on this alone: exp(-746) ~ 1e-324 is below half the
    # smallest subnormal, so np.exp returns exactly 0.0 from there down.
    below = np.concatenate([
        -746.0 - 1e-13 * np.arange(200.0),
        np.linspace(-746.0, -1e4, 2001),
        [np.nextafter(-746.0, -np.inf), -1e300, -np.inf],
    ])
    assert np.all(np.exp(below) == 0.0)
    assert math.exp(-746.0) == 0.0


def exp_arguments():
    edges = [0.0, -0.0, -np.inf, -745.1332191019412, -746.0, -708.0, -700.0]
    near = [np.nextafter(e, side) for e in edges[3:] for side in (-np.inf, np.inf)]
    ulps = [e - k * 1e-13 for e in edges[3:] for k in range(-50, 51)]
    return np.concatenate([
        np.linspace(-800.0, 0.0, 400_001),
        edges, near, ulps,
        np.linspace(-746.0, -700.0, 20_001),  # the band _exp hands to np.exp
        np.random.default_rng(71).uniform(-760.0, -690.0, 20_000),
    ])


def test_exp_matches_numpy_bit_for_bit():
    x = exp_arguments()
    expected = np.exp(x)
    assert np.any((expected > 0.0) & (expected < np.finfo(float).tiny))
    assert np.array_equal(bits(_exp(x.copy())), bits(expected))
    # Two-dimensional and reordered inputs take the same paths.
    shuffled = np.random.default_rng(73).permutation(x)[:400_000].reshape(800, 500)
    assert np.array_equal(bits(_exp(shuffled.copy())), bits(np.exp(shuffled)))
    for single in (-750.0, -720.0, -1.0, -np.inf):
        assert np.array_equal(bits(_exp(np.array([single]))), bits(np.exp([single])))


def oracle_outcome(model, strike, tau):
    try:
        return oracles.nw_estimate(model, strike, tau).hex()
    except NumericalUnderflow:
        return "underflow"


def near_floor_queries(rng, model, count):
    """Queries beyond the largest strike, around the strike at which the
    oracle's weight sum crosses the 1e-300 floor, on both sides of it."""
    tau = float(rng.uniform(model.taus.min(), model.taus.max()))
    priced, underflowed = model.strikes.max(), model.strikes.max() + 100.0 * model.bandwidths.eps1
    while True:  # bisect down to adjacent floats
        middle = 0.5 * (priced + underflowed)
        if middle in (priced, underflowed):
            break
        if oracle_outcome(model, middle, tau) == "underflow":
            underflowed = middle
        else:
            priced = middle
    step = underflowed - priced
    offsets = np.concatenate([[-1.0, 0.0, 1.0, 2.0], step * 10.0 ** rng.uniform(0.0, 9.0, count)
                              * rng.choice([-1.0, 1.0], count)])
    return [(float(priced + offset), tau) for offset in offsets]


def test_nw_estimate_matches_oracle_near_the_underflow_floor():
    rng = np.random.default_rng(79)
    outcomes = []
    for _ in range(60):
        n = int(rng.integers(1, 250))
        model = NwModel(
            rng.uniform(60.0, 140.0, n),
            rng.choice([9.0, 16.0, 37.0, 65.0, 100.0, 191.0, 373.0, 737.0], n) / 365.0,
            rng.uniform(0.0, 30.0, n),
            Bandwidths(float(rng.uniform(0.05, 10.0)), float(rng.uniform(0.005, 1.0))),
        )
        for strike, tau in near_floor_queries(rng, model, 30):
            expected = oracle_outcome(model, strike, tau)
            if expected == "underflow":
                with pytest.raises(NumericalUnderflow):
                    nw_estimate(model, strike, tau)
            else:
                assert nw_estimate(model, strike, tau).hex() == expected
            outcomes.append(expected == "underflow")
    assert 0.3 < np.mean(outcomes) < 0.7


def test_nw_estimate_matches_oracle_everywhere():
    rng = np.random.default_rng(83)
    for _ in range(20):
        model = sample_model(rng, n=int(rng.integers(1, 300)),
                             eps=(float(rng.uniform(0.1, 20.0)), float(rng.uniform(0.01, 2.0))))
        for _ in range(100):
            strike, tau = float(rng.uniform(0.0, 250.0)), float(rng.uniform(0.0, 4.0))
            try:
                expected = oracles.nw_estimate(model, strike, tau)
            except NumericalUnderflow:
                with pytest.raises(NumericalUnderflow):
                    nw_estimate(model, strike, tau)
            else:
                assert nw_estimate(model, strike, tau).hex() == expected.hex()


def oracle_cv(points, values, eps1, eps2):
    d1 = points[:, 0][:, None] - points[:, 0][None, :]
    d2 = points[:, 1][:, None] - points[:, 1][None, :]
    return oracles._cv_objective(d1, d2, values, values != 0.0, eps1, eps2)


@st.composite
def cv_problems(draw):
    n = draw(st.integers(3, 40))
    distinct = draw(st.integers(1, n))
    strikes = draw(st.lists(st.floats(50.0, 150.0), min_size=distinct, max_size=distinct))
    taus = draw(st.lists(st.floats(1.0 / 365.0, 3.0), min_size=distinct, max_size=distinct))
    # Repeat some points, so that samples coincide.
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    points = np.array([(strikes[i], taus[i]) for i in picks])
    values = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
                                    min_size=n, max_size=n)))
    try:
        seed = silverman_bandwidths(points)
        scale = (seed.eps1, seed.eps2)
    except DegenerateDispersion:
        scale = (1.0, 0.1)
    factors = [10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(2)]
    return points, values, scale[0] * factors[0], scale[1] * factors[1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cv_problems())
def test_cv_objective_matches_oracle(problem):
    points, values, eps1, eps2 = problem
    expected = oracle_cv(points, values, eps1, eps2)
    assert _cv_objective(points, values)(eps1, eps2).hex() == expected.hex()
    assert cv_objective_at(points, values, Bandwidths(eps1, eps2)).hex() == expected.hex()


def test_cv_objective_reuses_its_build_across_bandwidths():
    # One built objective evaluated at many bandwidths, in an order that
    # moves between underflowing and well-conditioned candidates.
    rng = np.random.default_rng(89)
    points, values = cv_points(rng, n=60)
    values[[4, 17]] = 0.0
    objective = _cv_objective(points, values)
    seed = silverman_bandwidths(points)
    for f1, f2 in 10.0 ** rng.uniform(-3.0, 3.0, (300, 2)):
        eps1, eps2 = seed.eps1 * f1, seed.eps2 * f2
        assert objective(eps1, eps2).hex() == oracle_cv(points, values, eps1, eps2).hex()
