"""Kernel regression: weighted-mean oracle, bandwidth rules, and the
cross-validation selector."""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import pricelab.kernel as kernel
from oracles import cv_objective_at
from pricelab.errors import DegenerateDispersion, NumericalUnderflow
from pricelab.harness import ProtocolConfig, run_protocol
from pricelab.kernel import (
    _CV_FACTORS,
    Bandwidths,
    NwModel,
    _cv_objective,
    _exp,
    loo_cv_bandwidths,
    nw_estimate,
    silverman_bandwidths,
)
from pricelab.market_data import OptionKind
from pricelab.synth import synth_chain


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


def test_silverman_takes_the_iqr_where_the_deviation_overflows():
    # The squared deviations pass the float range, so the deviation reads
    # +inf, without a warning, and the IQR term binds.
    column = np.array([1.0, 2.0, 4.0, 8.0, 16.0]) * 1e155
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bw = silverman_bandwidths(np.column_stack([column, np.arange(5.0)]))
    q25, q75 = np.percentile(column, [25.0, 75.0])
    assert bw.eps1 == 0.9 * (float(q75 - q25) / 1.34) * 5 ** (-0.2)


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


# Six points on two tau levels, for bandwidths so small that a term of the
# weights passes the float range. The suite turns a RuntimeWarning into an
# error, so each test below also checks that none escapes.
TWO_LEVELS = np.array([(k, t) for t in (0.1, 0.3) for k in (90.0, 100.0, 110.0)])
TWO_LEVEL_VALUES = np.array([5.0, 8.0, 12.0, 6.0, 9.0, 13.0])


@pytest.mark.parametrize("eps1, eps2", [(5.0, 1e-300), (1e-300, 0.1), (5e-324, 0.1)])
def test_cv_objective_at_a_tiny_bandwidth_weighs_only_the_nearest_samples(eps1, eps2):
    # (d / eps)**2 overflows to +inf: those weights are 0. A tiny eps2 leaves
    # each row its own tau level, a tiny eps1 its own strike on the other.
    with np.errstate(all="ignore"):
        expected = oracle_cv(TWO_LEVELS, TWO_LEVEL_VALUES, eps1, eps2)
    assert math.isfinite(expected)
    got = cv_objective_at(TWO_LEVELS, TWO_LEVEL_VALUES, Bandwidths(eps1, eps2))
    assert got.hex() == expected.hex()


def test_cv_objective_at_a_zero_tau_bandwidth_is_inf():
    # Nelder-Mead in log space can reach eps2 = 0.0: d2 / 0 is +inf or NaN.
    assert _cv_objective(TWO_LEVELS, TWO_LEVEL_VALUES)(5.0, 0.0) == math.inf


def test_nw_estimate_at_a_tiny_tau_bandwidth_weighs_only_its_own_level():
    model = NwModel(TWO_LEVELS[:, 0], TWO_LEVELS[:, 1], TWO_LEVEL_VALUES, Bandwidths(5.0, 1e-283))
    with np.errstate(all="ignore"):
        expected = oracles.nw_estimate(model, 95.0, 0.1)
    assert nw_estimate(model, 95.0, 0.1).hex() == expected.hex()
    # Between the levels every weight is 0.
    with pytest.raises(NumericalUnderflow):
        nw_estimate(model, 95.0, 0.2)


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


class NumpyCalls:
    """Stands in for the kernel module's numpy and records which of its
    functions the module looks up."""

    def __init__(self):
        self.names = []

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(np, name)


def test_exp_hands_normal_arguments_to_np_exp_whole(monkeypatch):
    calls = NumpyCalls()
    monkeypatch.setattr(kernel, "np", calls)
    normal = np.concatenate([np.linspace(-699.99, 0.0, 10_001), [np.nextafter(-700.0, 0.0), -0.0]])
    rng = np.random.default_rng(89)
    # Exactly -700.0 is not above _EXP_NORMAL: the array takes the banded path.
    for x, whole in [(normal, True), (rng.permutation(normal)[:10_000].reshape(100, 100), True),
                     (np.append(normal, -700.0), False), (np.array([-700.0]), False)]:
        calls.names.clear()
        result = _exp(x.copy())
        assert np.array_equal(bits(result), bits(np.exp(x)))
        assert (calls.names == ["exp"]) == whole
        assert ("flatnonzero" in calls.names) != whole


def estimate_outcome(model, strike, tau):
    try:
        return nw_estimate(model, strike, tau).hex()
    except NumericalUnderflow:
        return "underflow"


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


def test_nw_estimate_where_two_finite_squares_sum_past_the_float_range():
    # 1.2e154 bandwidths off in both coordinates: each square is about
    # 1.44e308, within the float range, and their sum is +inf.
    offset = 1.2e154
    assert math.isfinite(offset * offset) and offset * offset + offset * offset == math.inf
    eps = Bandwidths(2.0, 0.25)
    far_strike, far_tau = 100.0 + offset * eps.eps1, 0.5 + offset * eps.eps2
    cases = [
        (NwModel([100.0, 104.0], [0.5, 0.75], [3.0, 4.0], eps), far_strike, far_tau),
        (NwModel([100.0, far_strike], [0.5, far_tau], [3.0, 4.0], eps), 100.0, 0.5),
        (NwModel([100.0, far_strike], [0.5, far_tau], [3.0, 4.0], eps), far_strike, far_tau),
    ]
    outcomes = []
    for model, strike, tau in cases:
        with np.errstate(all="ignore"):
            expected = oracle_outcome(model, strike, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_outcome(model, strike, tau) == expected
        outcomes.append(expected)
    assert outcomes == ["underflow", (3.0).hex(), (4.0).hex()]


def test_nw_model_keeps_its_value_semantics():
    model = sample_model(np.random.default_rng(97), n=30)
    assert repr(model) == (f"NwModel(strikes={model.strikes!r}, taus={model.taus!r}, "
                           f"values={model.values!r}, bandwidths={model.bandwidths!r})")
    # The caches take no part in ==: the rebuilt ones are other arrays.
    same = dataclasses.replace(model)
    assert same == model and same._points is not model._points
    wider = dataclasses.replace(model, bandwidths=Bandwidths(9.0, 0.7))
    assert wider != model
    # == compares the samples by value: equal arrays, not the same ones.
    copied = NwModel(model.strikes.copy(), model.taus.copy(), model.values.copy(),
                     model.bandwidths)
    assert copied == model and model == copied and not copied != model
    moved = model.values.copy()
    moved[-1] += 1.0
    assert NwModel(model.strikes, model.taus, moved, model.bandwidths) != model
    assert NwModel(model.strikes[:-1], model.taus[:-1], model.values[:-1],
                   model.bandwidths) != model
    assert model != (model.strikes, model.taus, model.values, model.bandwidths)
    fresh = NwModel(model.strikes, model.taus, model.values, Bandwidths(9.0, 0.7))
    copy = pickle.loads(pickle.dumps(model))
    queries = [(95.0, 0.3), (110.0, 1.2), (160.0, 0.5), (1e6, 0.5)]
    for built, reference in [(same, model), (wider, fresh), (copy, model)]:
        assert np.array_equal(built._points, np.stack([reference.strikes, reference.taus]))
        assert built._scale.tolist() == [[reference.bandwidths.eps1], [reference.bandwidths.eps2]]
        assert built._log_norm == reference._log_norm
        for strike, tau in queries:
            assert estimate_outcome(built, strike, tau) == estimate_outcome(reference, strike, tau)
        for cache in (built._points, built._scale):
            with pytest.raises(ValueError, match="read-only"):
                cache[0, 0] = 1.0
    assert [estimate_outcome(model, *query) == "underflow" for query in queries] == [
        False, False, False, True]


def oracle_cv(points, values, eps1, eps2):
    d1 = points[:, 0][:, None] - points[:, 0][None, :]
    d2 = points[:, 1][:, None] - points[:, 1][None, :]
    return oracles._cv_objective(d1, d2, values, values != 0.0, eps1, eps2)


@st.composite
def cv_problems(draw):
    """Points on drawn strikes and a few taus, in drawn order or sorted by
    tau as a chain lists them, some repeated or every one distinct; two
    value vectors with one zero pattern; and bandwidths around the seed."""
    n = draw(st.integers(3, 40))
    distinct = draw(st.integers(1, n))
    strikes = draw(st.lists(st.floats(50.0, 150.0), min_size=distinct, max_size=distinct))
    levels = draw(st.lists(st.floats(1.0 / 365.0, 3.0), min_size=1, max_size=distinct))
    if len(levels) == distinct:
        taus = levels  # no two distinct points share a tau
    else:
        taus = [levels[i] for i in draw(st.lists(st.integers(0, len(levels) - 1),
                                                 min_size=distinct, max_size=distinct))]
    if distinct == n and draw(st.booleans()):
        picks = draw(st.permutations(range(n)))  # every point distinct
    else:  # repeat some points, so that samples coincide
        picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    points = np.array([(strikes[i], taus[i]) for i in picks])
    if draw(st.booleans()):
        points = points[np.argsort(points[:, 1], kind="stable")]
    values = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
                                    min_size=n, max_size=n)))
    other = np.array(draw(st.lists(st.floats(1e-3, 50.0), min_size=n, max_size=n)))
    other[values == 0.0] = 0.0
    try:
        seed = silverman_bandwidths(points)
        scale = (seed.eps1, seed.eps2)
    except DegenerateDispersion:
        scale = (1.0, 0.1)
    factors = [10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(2)]
    return points, values, other, scale[0] * factors[0], scale[1] * factors[1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cv_problems())
def test_cv_objective_matches_oracle(problem):
    points, values, other, eps1, eps2 = problem
    expected = oracle_cv(points, values, eps1, eps2)
    assert _cv_objective(points, values)(eps1, eps2).hex() == expected.hex()
    assert cv_objective_at(points, values, Bandwidths(eps1, eps2)).hex() == expected.hex()
    # Another vector with the same zeros gets its own oracle's bits.
    assert (_cv_objective(points, other)(eps1, eps2).hex()
            == oracle_cv(points, other, eps1, eps2).hex())


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


def test_cv_objective_matches_oracle_near_the_underflow_floor():
    # Shrinking both bandwidths by one factor sends some row's weight sum
    # below the 1e-300 floor. Around the factor where the oracle turns
    # +inf, the objective's one floor test, after the row sums, must not
    # fire a candidate early, nor miss one.
    rng = np.random.default_rng(109)
    outcomes = []
    for _ in range(30):
        n = int(rng.integers(3, 40))
        points = np.column_stack([rng.choice(np.arange(60.0, 141.0, 2.5), n),
                                  rng.choice([7.0, 30.0, 91.0, 365.0], n) / 365.0])
        values = rng.uniform(0.5, 20.0, n)
        values[rng.uniform(size=n) < 0.2] = 0.0
        if not values.any() or len(np.unique(points, axis=0)) < 2:
            continue
        scale = (float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.01, 0.3)))
        objective = _cv_objective(points, values)

        def oracle_at(f):
            return oracle_cv(points, values, f * scale[0], f * scale[1])

        finite, underflowed = 1.0, 1e-12
        if not (np.isfinite(oracle_at(finite)) and oracle_at(underflowed) == math.inf):
            continue
        while True:  # bisect down to adjacent floats
            middle = 0.5 * (finite + underflowed)
            if middle in (finite, underflowed):
                break
            if oracle_at(middle) == math.inf:
                underflowed = middle
            else:
                finite = middle
        step = finite - underflowed
        for f in np.concatenate([[underflowed, finite], finite + step * np.arange(-3.0, 4.0),
                                 finite * 10.0 ** rng.uniform(-0.3, 0.3, 20)]):
            expected = oracle_at(f)
            assert objective(f * scale[0], f * scale[1]).hex() == expected.hex()
            outcomes.append(expected == math.inf)
    assert len(outcomes) > 500 and 0.3 < np.mean(outcomes) < 0.7


def price_and_vol_points(rng, n, n_taus, order):
    """n points on a strike grid and n_taus expiries, in chain order (by
    tau), shuffled, or with every tau distinct; with a price-like and a
    vol-like value vector, both zero at the same two points."""
    strikes = rng.choice(np.arange(60.0, 141.0, 2.5), n)
    if order == "distinct taus":
        taus = rng.permutation(np.arange(1, n + 1) / 50.0)
    else:
        taus = rng.choice(np.arange(1, n_taus + 1) / 12.0, n)
    points = np.column_stack([strikes, taus])
    if order == "by tau":
        points = points[np.argsort(points[:, 1], kind="stable")]
    prices = np.maximum(points[:, 0] - 95.0, 0.0) + 2.0 * points[:, 1] + rng.uniform(0.0, 0.5, n)
    vols = 0.2 + 0.001 * (points[:, 0] - 100.0) ** 2 / (1.0 + points[:, 1]) + rng.uniform(0.0, 0.02, n)
    zero = rng.choice(n, 2, replace=False)
    prices[zero] = vols[zero] = 0.0
    return points, prices, vols


@pytest.mark.parametrize("order", ["by tau", "shuffled", "distinct taus"])
def test_each_vector_gets_the_bandwidths_of_a_brute_force_grid_search(monkeypatch, order):
    # Prices and vols on one point set, each searched on its own: the
    # screened grid stage hands Nelder-Mead the start that the brute-force
    # grid would, so the search ends on the same bandwidths.
    rng = np.random.default_rng({"by tau": 97, "shuffled": 101, "distinct taus": 103}[order])
    for n in (12, 30, 45):
        points, prices, vols = price_and_vol_points(rng, n, 4, order)
        points[1] = points[0]  # a duplicate point
        for values in (prices, vols):
            screened = loo_cv_bandwidths(points, values)
            with monkeypatch.context() as patch:
                patch.setattr(kernel, "_cv_grid",
                              lambda points, values, objective: oracles.cv_grid(points, values))
                brute = loo_cv_bandwidths(points, values)
            assert (screened.eps1.hex(), screened.eps2.hex()) == (brute.eps1.hex(), brute.eps2.hex())


@pytest.mark.parametrize("order", ["by tau", "shuffled"])
def test_a_search_whose_simplex_passes_the_float_range_keeps_finite_bandwidths(order):
    # Strikes x 1e300 put the grid's best eps1 near 1e301, so Nelder-Mead
    # steps past log(1.8e308); such a vertex scores +inf.
    for seed in range(4):
        points, prices, vols = price_and_vol_points(np.random.default_rng(seed), 30, 4, order)
        points[:, 0] *= 1e300
        for values in (prices, vols):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, score = cv_grid(points, values)
                chosen = loo_cv_bandwidths(points, values)
                assert math.isfinite(chosen.eps1) and math.isfinite(chosen.eps2)
                assert _cv_objective(points, values)(chosen.eps1, chosen.eps2) <= score


def cv_grid(points, values):
    """The search's grid stage, kernel._cv_grid, on the inputs that
    loo_cv_bandwidths checks, scored by their exact objective: (best,
    score)."""
    points, values = kernel._cv_inputs(points, values)
    return kernel._cv_grid(points, values, kernel._cv_objective(points, values))


def grid_bits(grid):
    best, score = grid
    return None if best is None else tuple(float(eps).hex() for eps in best), score.hex()


def assert_grids_match_the_oracle(points, vectors):
    """The screened grid against the brute-force grid, one vector at a
    time: the same (best, score) bit for bit, or the same exception.
    Returns the grids, None where both raised."""
    grids = []
    for values in vectors:
        try:
            expected = oracles.cv_grid(points, values)
        except (DegenerateDispersion, ValueError) as error:
            with pytest.raises(type(error)):
                cv_grid(points, values)
            grids.append(None)
            continue
        got = cv_grid(points, values)
        assert got == expected
        assert grid_bits(got) == grid_bits(expected)
        # Python floats, so that Bandwidths built from them hold no numpy scalar.
        assert all(type(eps) is float for eps in got[0] or ())
        grids.append(got)
    return grids


@st.composite
def grid_problems(draw):
    """price_and_vol_points in each order, on 1 to 12 taus, with one or both
    vectors; sometimes with a repeated point, one vector constant to 1e-12
    and nowhere zero, values of either sign, a tiny value whose ratio
    overflows, a kept point so far from the rest that its row underflows at
    every candidate, the points scaled up so far that the Gaussian
    normalization sends some candidates below the 1e-300 floor, or scaled
    down so far that the smallest candidates' eps1 * eps2 underflows to 0
    (the normalization is then summed from logs)."""
    order = draw(st.sampled_from(["by tau", "shuffled", "distinct taus"]))
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points, prices, vols = price_and_vol_points(rng, n, draw(st.integers(1, 12)), order)
    if draw(st.booleans()):
        points[1] = points[0]
    vectors = draw(st.sampled_from([[prices], [vols], [prices, vols], [vols, prices]]))
    kept = np.flatnonzero(prices)
    oddity = draw(st.sampled_from(
        ["none"] * 6 + ["flat values", "negative values", "tiny value", "far point"]))
    if oddity == "negative values":
        vectors[0] = np.where(vectors[0] != 0.0, vectors[0] - vectors[0].mean() - 1e-3, 0.0)
    elif oddity == "flat values":
        # Every candidate predicts the values to about 1e-13: the screen
        # cannot order such scores, and the exact objective must.
        vectors = [0.2 + 1e-13 * rng.uniform(size=n)]
    elif oddity == "tiny value":
        vectors[0] = vectors[0].copy()
        vectors[0][kept[0]] = 1e-300
    elif oddity == "far point":
        points[kept[-1], 0] = 1e7
        return points, vectors
    # Up to where the largest candidates' eps1 * eps2 stays within the
    # float range, or down to where the smallest candidates' leaves it.
    exponent = draw(st.one_of(st.just(0.0), st.floats(140.0, 150.0), st.floats(-162.0, -150.0)))
    return points * 10.0 ** exponent, vectors


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid_problems())
def test_cv_grids_match_the_brute_force_grid(problem):
    assert_grids_match_the_oracle(*problem)


def test_cv_grids_match_the_brute_force_grid_on_near_ties():
    # Values equal to 1e-13 relative, or noise of either sign: the widest
    # candidates all predict about the mean, and many scores lie closer
    # together than the screen resolves. Its order among them is not the
    # exact objective's, and the exact objective must score them all.
    rng = np.random.default_rng(131)
    for order in ("by tau", "shuffled", "distinct taus"):
        for n in (12, 30, 45):
            points, _, _ = price_and_vol_points(rng, n, 4, order)
            assert_grids_match_the_oracle(points, [0.2 + 1e-13 * rng.uniform(size=n)])
            assert_grids_match_the_oracle(points, [rng.standard_normal(n)])


def test_cv_grids_match_the_brute_force_grid_where_every_candidate_underflows():
    # A kept point far beyond the others' strikes has no weight at any
    # candidate, so every candidate underflows.
    rng = np.random.default_rng(113)
    points, prices, vols = price_and_vol_points(rng, 20, 4, "shuffled")
    far = points.copy()
    far[np.flatnonzero(prices)[0], 0] = 1e7
    grids = assert_grids_match_the_oracle(far, [prices, vols])
    assert [best for best, _ in grids] == [None, None]
    # A tiny value's ratio overflows at every candidate: its vector finds no
    # best, while the other vector is scored as usual.
    tiny = prices.copy()
    tiny[np.flatnonzero(tiny)[0]] = 1e-300
    grids = assert_grids_match_the_oracle(points, [tiny, vols])
    assert grids[0][0] is None and grids[1][0] is not None
    # Scaled down by 1e-160, the smallest candidates' eps1 * eps2 is 0.0;
    # their Gaussian normalization is then summed from logs, and each
    # underflows or is scored like any other.
    grids = assert_grids_match_the_oracle(points * 1e-160, [prices, vols])
    assert all(best is not None for best, _ in grids)


@pytest.mark.parametrize("scale", [(1e151, 1e152), (1e-160, 1e-160)])
def test_a_gaussian_normalization_outside_the_float_range_is_summed_from_logs(scale):
    # Strikes x 1e151 and taus x 1e152 send the widest candidates' eps1 *
    # eps2 past the float range; both x 1e-160 send the narrowest ones' to
    # 0. Neither warns or raises: the normalization's log is summed from
    # the factors' logs, as the oracle sums it on its own.
    rng = np.random.default_rng(113)
    points, prices, vols = price_and_vol_points(rng, 20, 4, "shuffled")
    scaled = points * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grids = assert_grids_match_the_oracle(scaled, [prices, vols])
        seed = silverman_bandwidths(scaled)
        for eps1, eps2 in [(seed.eps1, seed.eps2),
                           (seed.eps1 * 1e3, seed.eps2 * 1e3), (seed.eps1 * 1e-3, seed.eps2 * 1e-3)]:
            model = NwModel(scaled[:, 0], scaled[:, 1], prices, Bandwidths(eps1, eps2))
            for strike, tau in scaled[:3]:
                try:
                    expected = oracles.nw_estimate(model, strike, tau)
                except NumericalUnderflow:
                    with pytest.raises(NumericalUnderflow):
                        nw_estimate(model, strike, tau)
                else:
                    assert nw_estimate(model, strike, tau).hex() == expected.hex()
    if scale[0] > 1.0:
        # 1 / (2 pi eps1 eps2) < 1e-300 bounds the weight sums below the
        # floor at every candidate.
        assert [best for best, _ in grids] == [None, None]
    else:
        assert all(best is not None for best, _ in grids)


def test_cv_grids_match_the_brute_force_grid_near_the_underflow_floor():
    # Moving one kept point away from the rest shrinks its row's weight sum
    # at every candidate, as shrinking both bandwidths would. Around the
    # distance at which that row sends the brute-force grid's best
    # candidate below the 1e-300 floor, the screen must neither rule the
    # candidate out early nor keep it late.
    rng = np.random.default_rng(127)
    for case in range(12):
        order = ("by tau", "shuffled", "distinct taus")[case % 3]
        points, prices, vols = price_and_vol_points(rng, int(rng.integers(8, 40)), 5, order)
        vectors = [prices, vols]
        row = np.flatnonzero(prices)[-1]
        edge = points[:, 0].max()

        def moved(distance):
            out = points.copy()
            out[row, 0] = edge + distance
            return out

        def cell(distance):
            seed = silverman_bandwidths(moved(distance))
            return seed.eps1 * _CV_FACTORS, seed.eps2 * _CV_FACTORS

        start = 5.0
        best, _ = oracles.cv_grid(moved(start), prices)
        eps1s, eps2s = cell(start)
        i1, i2 = int(np.flatnonzero(eps1s == best[0])[0]), int(np.flatnonzero(eps2s == best[1])[0])

        def best_cell_underflows(distance):
            eps1s, eps2s = cell(distance)
            return _cv_objective(moved(distance), prices)(eps1s[i1], eps2s[i2]) == math.inf

        finite, underflowed = start, 1e7
        assert not best_cell_underflows(finite) and best_cell_underflows(underflowed)
        while True:  # bisect down to adjacent floats
            middle = 0.5 * (finite + underflowed)
            if middle in (finite, underflowed):
                break
            if best_cell_underflows(middle):
                underflowed = middle
            else:
                finite = middle
        step = underflowed - finite
        for distance in (finite - step, finite, underflowed, underflowed + step):
            assert_grids_match_the_oracle(moved(distance), vectors)


def test_the_grid_scores_a_few_candidates_exactly(monkeypatch):
    # The screen leaves only a handful of the 225 candidates to the exact
    # objective on a chain's prices, so that a change cannot fall back to
    # brute force unseen. (This chain's vols are one constant: every
    # candidate predicts it to rounding, so the screen tells none apart and
    # a vol grid scores all of them exactly.)
    calls = []

    def counting(points, values):
        objective = _cv_objective(points, values)

        def counted(eps1, eps2):
            calls[-1] += 1
            return objective(eps1, eps2)
        return counted

    monkeypatch.setattr(kernel, "_cv_objective", counting)
    for chain in synth_chain("bs", n_days=2):
        puts = chain.select((chain.kinds == OptionKind.PUT) & (chain.taus > 0.0))
        calls.append(0)
        cv_grid(np.column_stack([puts.strikes, puts.taus]), puts.mids)
    assert all(1 <= count <= 20 for count in calls), calls


def test_a_search_builds_one_exact_objective_for_its_grid_and_its_simplex(monkeypatch):
    built = []

    def counting(points, values):
        built.append(len(values))
        return _cv_objective(points, values)

    monkeypatch.setattr(kernel, "_cv_objective", counting)
    puts = synth_chain("bs", noise=0.005)[0].of_kind(OptionKind.PUT)
    puts = puts.select(puts.taus > 0.0)
    loo_cv_bandwidths(np.column_stack([puts.strikes, puts.taus]), puts.mids)
    assert built == [len(puts.mids)]


def test_the_bandwidths_the_searches_visit_get_the_oracles_bits(monkeypatch):
    # Every bandwidth pair that NWCV's and BSNWCV's searches score on an
    # untrimmed noisy chain, Nelder-Mead's steps included; and per search
    # eps1 = 0, eps2 = 0, a subnormal eps1 and eps2, an eps1 * eps2 below
    # the smallest subnormal and the seed shrunk by 10^-1 .. 10^-8, where
    # rows with a finite largest weight fall below the 1e-300 floor. The
    # exact objective gives each the independent oracle's bits.
    searches = []

    def recording(points, values):
        objective = _cv_objective(points, values)
        visits = []
        searches.append((points, values, visits))

        def recorded(eps1, eps2):
            visits.append((eps1, eps2))
            return objective(eps1, eps2)
        return recorded

    monkeypatch.setattr(kernel, "_cv_objective", recording)
    run_protocol(synth_chain("bs", n_days=2, noise=0.005),
                 ProtocolConfig(labels=("NWCV", "BSNWCV"), trim=False))
    monkeypatch.undo()
    assert sum(len(visits) for _, _, visits in searches) > 200
    underflowed = 0
    for points, values, visits in searches:
        objective = _cv_objective(points, values)
        seed = silverman_bandwidths(points)
        shrunk = [(seed.eps1 * 10.0 ** -k, seed.eps2 * 10.0 ** -k) for k in range(1, 9)]
        edges = [(0.0, seed.eps2), (5e-320, seed.eps2), (seed.eps1, 0.0), (seed.eps1, 5e-320),
                 (1e-170, 1e-170)]
        for eps1, eps2 in visits + shrunk + edges:
            with np.errstate(all="ignore"):
                expected = oracle_cv(points, values, eps1, eps2)
            assert objective(eps1, eps2).hex() == expected.hex()
            underflowed += expected == math.inf
    assert underflowed > 2 * len(searches)
