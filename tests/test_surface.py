"""Interpolation in normalized coordinates: triangulated surface,
collinear fallback, normalization, and the zero-maturity augmentation.

Raw-point cases build NormalizedGeometry(x, y, 1.0).surface(v, 1.0):
spot 1 and value scale 1 divide exactly, so the values are those of
the interpolant over the points (x, y) themselves, bit for bit."""

from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ScipyLinearInterpolator, raw_normalized_domain
from oracles import merge_duplicates as merge_duplicates_oracle
from pricelab.errors import DegenerateGeometry
from pricelab.harness import ProtocolConfig, run_protocol
from pricelab.market_data import OptionKind, OptionQuote
from pricelab.reporting import ErrorStatus
from pricelab.surface import (
    OUTSIDE_HULL,
    NormalizedGeometry,
    _group_means,
    _Line,
    _merge_groups,
    augment_zero_maturity,
    normalized_li_values,
)
from pricelab.synth import synth_chain

CALL, PUT = OptionKind.CALL, OptionKind.PUT
DAY0 = date(2012, 1, 3)


def make_quote(kind, strike, ttm_days, mid):
    return OptionQuote(
        kind=kind,
        strike=strike,
        expiry=DAY0 + timedelta(days=ttm_days),
        ttm_days=ttm_days,
        bid=mid,
        ask=mid,
        volume=1000,
    )


def price_surface(quotes, spot):
    """The normalized price surface that LI fits to the quotes."""
    strikes = [q.strike for q in quotes]
    taus = [q.tau for q in quotes]
    mids = [q.mid for q in quotes]
    return normalized_li_values(strikes, taus, mids, spot, value_scale=spot)


def unit_surface(points, values):
    """The surface over the points of an (n, 2) array as they are."""
    return NormalizedGeometry(points[:, 0], points[:, 1], 1.0).surface(values, 1.0)


def merge_duplicates(points, values):
    """The merged points and values, as NormalizedGeometry merges them."""
    order, starts = _merge_groups(points)
    return points[order[starts]], _group_means(values, order, starts)


def affine_sample(rng, n=25, a=0.3, b=1.7, c=-0.9):
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    values = a + b * points[:, 0] + c * points[:, 1]
    return points, values, (a, b, c)


def test_geometry_and_surface_validate_their_inputs():
    grid = ([90.0, 100.0, 110.0], [0.1, 0.5, 0.1])
    with pytest.raises(ValueError):
        NormalizedGeometry([90.0, 100.0, 110.0], [0.1, 0.5], 100.0)
    with pytest.raises(ValueError):
        NormalizedGeometry([90.0, np.nan, 110.0], grid[1], 100.0)
    with pytest.raises(ValueError):
        NormalizedGeometry(grid[0], [0.1, np.inf, 0.1], 100.0)
    with pytest.raises(ValueError):
        NormalizedGeometry(*grid, spot=0.0)
    geometry = NormalizedGeometry(*grid, 100.0)
    with pytest.raises(ValueError):
        geometry.surface([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        geometry.surface([1.0, np.inf, 2.0], 1.0)
    with pytest.raises(ValueError):
        geometry.surface([1.0, np.nan, 2.0], 1.0)


def test_merge_duplicates_averages_coincident_points():
    points, values = merge_duplicates(
        np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]),
        np.array([1.0, 5.0, 3.0]),
    )
    assert points.shape == (2, 2)
    by_point = {tuple(p): v for p, v in zip(points, values)}
    assert by_point[(1.0, 1.0)] == pytest.approx(2.0)
    assert by_point[(2.0, 2.0)] == pytest.approx(5.0)


def test_merge_duplicates_keeps_distinct_points():
    points, _ = merge_duplicates(np.array([[0.0, 0.0], [0.0, 1e-6]]), np.array([1.0, 2.0]))
    assert points.shape == (2, 2)


def test_builders_reject_an_empty_sample_as_degenerate():
    empty = np.empty(0)
    builders = [
        lambda: normalized_li_values(empty, empty, empty, 100.0, 100.0),
        lambda: NormalizedGeometry(empty, empty, 100.0),
    ]
    for build in builders:
        with pytest.raises(DegenerateGeometry):
            build()


@pytest.mark.parametrize("points, values", [
    # Exact duplicates, three of them with a mean that rounds.
    ([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [0.5, 3.0], [1.0, 1.0], [2.0, 2.0]],
     [0.1, 5.0, 0.2, 7.0, 0.7, 1.0 / 3.0]),
    # 0.9e-12 apart: the second joins the first's group, the third is more
    # than tol from the group's first point and starts a group of its own.
    ([[1.0, 1.0], [1.0 + 0.9e-12, 1.0], [1.0 + 1.8e-12, 1.0], [2.0, 0.0]],
     [0.3, 0.6, 0.9, 1.0]),
    ([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.25]], [4.0, 3.0, 2.0, 1.0]),
])
def test_merge_duplicates_matches_the_pairwise_form_bit_for_bit(points, values):
    points, values = np.array(points), np.array(values)
    merged, expected = merge_duplicates(points, values), merge_duplicates_oracle(points, values)
    assert merged[0].tobytes() == expected[0].tobytes()
    assert merged[1].tobytes() == expected[1].tobytes()


def benchmark_like_points(rng, zero_row=False):
    """(strike/spot, tau) of a chain: a 2.5% strike grid, each expiry listing
    the strikes within three standard deviations of the money; with
    zero_row, LIB's 30 fictitious expiring strikes across the range."""
    spot = 100.0 * rng.uniform(0.97, 1.03)
    grid = np.arange(60.0, 140.01, 2.5)
    rows = []
    for days in (9, 16, 37, 65, 100, 191, 373, 737):
        tau = days / 365.0
        band = 3.0 * 0.25 * np.sqrt(tau)
        near = grid[np.abs(np.log(grid / spot)) <= band]
        rows += [(k / spot, tau) for k in near]
    if zero_row:
        lo, hi = min(k for k, _ in rows), max(k for k, _ in rows)
        rows += [(k, 0.0) for k in np.linspace(lo, hi, 30)]
    return np.array(rows)


def hull_probe_queries(tri, rng):
    """Vertices, edge midpoints, points along hull edges and 1e-12 beyond
    them, far-away, non-finite and random queries."""
    points = tri.points
    edges = {tuple(sorted((s[i], s[j]))) for s in tri.simplices for i, j in ((0, 1), (1, 2), (0, 2))}
    queries = list(points)
    queries += [(points[i] + points[j]) / 2 for i, j in edges]
    for i, j in tri.convex_hull:
        a, b = points[i], points[j]
        normal = np.array([b[1] - a[1], a[0] - b[0]])
        normal /= np.hypot(*normal)
        if normal @ (a - points.mean(axis=0)) < 0:
            normal = -normal
        for t in (0.25, 0.5, 0.7):
            on_edge = a + t * (b - a)
            queries += [on_edge, on_edge + 1e-12 * normal]
    lo, hi = points.min(axis=0), points.max(axis=0)
    queries += [lo - 10.0, hi + 10.0, (lo[0] - 5.0, hi[1]), (1e300, -1e300)]
    for bad in (np.nan, np.inf, -np.inf):
        queries += [(bad, lo[1]), (lo[0], bad), (bad, bad)]
    queries += list(rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), size=(500, 2)))
    return queries


def rounding_could_flip(tri, query):
    """True when rounding could flip scipy's in/out decision on the query:
    no triangle that scipy does not mark degenerate surely contains it, and
    not all surely exclude it, where sure means that every barycentric
    coordinate clears the limits [-100 eps, 1 + 100 eps] by its rounding
    bound (16 ulp of the sum of the magnitudes of its terms). On a thin
    triangle that bound is far above 100 eps."""
    query = np.asarray(query, dtype=float)
    if not np.isfinite(query).all():
        return False
    transform = tri.transform[~np.isnan(tri.transform[:, 0, 0])]
    terms = transform[:, :2, :] * (query - transform[:, 2])[:, None, :]
    c01, size01 = terms.sum(axis=2), abs(terms).sum(axis=2)
    coords = np.column_stack([c01, 1.0 - c01.sum(axis=1)])
    band = 16 * np.finfo(float).eps * np.column_stack([size01, 1.0 + size01.sum(axis=1)])
    eps = 100 * np.finfo(float).eps
    surely_in = ((coords >= -eps + band) & (coords <= 1.0 + eps - band)).all(axis=1)
    surely_out = ((coords < -eps - band) | (coords > 1.0 + eps + band)).any(axis=1)
    return not surely_in.any() and not surely_out.all()


def exact_value(interp, merged, query):
    """The interpolant of the merged (points, values) at the query in exact
    rational arithmetic, on the triangle where the interpolant located it."""
    points, values = merged
    triangle = interp._shape.find(*query)[0]
    vertices = interp._shape.simplices[triangle]
    (x0, y0), (x1, y1), (rx, ry) = [map(Fraction, p) for p in points[vertices]]
    dx, dy = Fraction(query[0]) - rx, Fraction(query[1]) - ry
    det = (x0 - rx) * (y1 - ry) - (x1 - rx) * (y0 - ry)
    c0 = ((y1 - ry) * dx - (x1 - rx) * dy) / det
    c1 = ((x0 - rx) * dy - (y0 - ry) * dx) / det
    v0, v1, v2 = map(Fraction, values[vertices])
    return float(c0 * v0 + c1 * v1 + (1 - c0 - c1) * v2)


@pytest.mark.parametrize("case", ["random", "grid", "grid-lib"])
def test_point_location_agrees_with_scipy(case):
    rng = np.random.default_rng(["random", "grid", "grid-lib"].index(case))
    if case == "random":
        points = rng.uniform(0.0, 1.0, size=(40, 2))
    else:
        points = benchmark_like_points(rng, zero_row=case == "grid-lib")
    values = rng.uniform(0.01, 0.5, size=len(points))
    interp, oracle = unit_surface(points, values), ScipyLinearInterpolator(points, values)
    merged = merge_duplicates(points, values)
    tri = scipy.spatial.Delaunay(merged[0])
    inside = NormalizedGeometry(points[:, 0], points[:, 1], spot=1.0).in_domain
    scale = np.abs(values).max()
    queries = hull_probe_queries(tri, rng)
    n_inside = n_unsure = 0
    for query in queries:
        query = tuple(float(v) for v in query)
        expected, value = oracle.evaluate(query), interp.value_at(*query)
        assert interp.in_domain(*query) == inside(*query) == (value is not OUTSIDE_HULL)
        if rounding_could_flip(tri, query):
            n_unsure += 1
        else:
            assert (value is OUTSIDE_HULL) == (expected is OUTSIDE_HULL), query
        if value is not OUTSIDE_HULL and expected is not OUTSIDE_HULL:
            n_inside += 1
            assert abs(value - exact_value(interp, merged, query)) <= 1e-13 * scale, query
            # scipy's LAPACK transforms carry more rounding on thin triangles.
            assert value == pytest.approx(expected, rel=1e-13, abs=1e-12 * scale), query
    assert n_inside > len(points)
    assert n_unsure <= 0.05 * len(queries)


def test_point_location_closes_a_degenerate_sliver_as_scipy_does():
    # B sits 1e-13 inside the hull edge AC, so the triangle ABC is too thin
    # for a transform (scipy marks it NaN); points on AC lie 5e-14 outside
    # ABD and BCD, beyond the plain slack but within the broad one.
    points = np.array([[0.0, 0.0], [0.5, 1e-13], [1.0, 0.0], [0.5, 1.0]])
    values = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.isnan(scipy.spatial.Delaunay(points).transform[:, 0, 0]).sum() == 1
    interp, oracle = unit_surface(points, values), ScipyLinearInterpolator(points, values)
    for query, inside in [((0.25, 0.0), True), ((0.75, 0.0), True), ((0.5, 1e-13), True),
                          ((0.5, 0.0), False), ((0.25, -1e-9), False)]:
        assert interp.in_domain(*query) is oracle.contains(query) is inside, query
        if inside:
            assert interp.value_at(*query) == pytest.approx(oracle.evaluate(query), rel=1e-13)


def test_no_estimator_reads_scipys_lapack_transform(monkeypatch):
    # scipy computes Delaunay.transform with one LAPACK dgetrs per triangle,
    # which leaves OpenBLAS's threads spinning; the package locates points
    # without it.
    def refuse(self):
        raise AssertionError("Delaunay.transform was read")

    monkeypatch.setattr(scipy.spatial.Delaunay, "transform", property(refuse))
    chains = synth_chain("bs", n_days=2, dividend=0.01)
    config = ProtocolConfig(trim=True, labels=("LI", "LIB", "BS", "NW", "BSNW"))
    records = run_protocol(chains, config).errors
    assert records
    assert all(r.status is not ErrorStatus.FAILED for r in records)
    inside = NormalizedGeometry([90.0, 110.0, 100.0], [0.1, 0.1, 0.5], spot=100.0).in_domain
    assert inside(100.0, 0.2) and not inside(100.0, 0.6)


def test_interpolator_exact_at_samples():
    rng = np.random.default_rng(2)
    points, values, _ = affine_sample(rng)
    interp = unit_surface(points, values)
    for point, value in zip(points, values):
        assert interp.value_at(*point) == pytest.approx(value, abs=1e-12)
        assert interp.in_domain(*point)


def test_interpolator_reproduces_affine_functions():
    # Barycentric-linear interpolation is exact for affine data, so any
    # convex combination of samples must return the affine value.
    rng = np.random.default_rng(9)
    points, values, (a, b, c) = affine_sample(rng)
    interp = unit_surface(points, values)
    for _ in range(200):
        weights = rng.dirichlet(np.ones(len(values)))
        query = weights @ points
        expected = a + b * query[0] + c * query[1]
        assert interp.value_at(*query) == pytest.approx(expected, abs=1e-10)


def test_interpolator_rejects_outside_hull():
    interp = unit_surface(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0, 1.0]))
    assert interp.value_at(0.9, 0.9) is OUTSIDE_HULL
    assert not interp.in_domain(0.9, 0.9)
    assert interp.value_at(-0.1, 0.5) is OUTSIDE_HULL
    # Boundary counts as inside: a vertex and an edge midpoint.
    assert interp.in_domain(0.0, 0.0)
    assert interp.value_at(0.5, 0.5) == pytest.approx(1.0)
    # scipy's slack of 100 eps, on the bounding box as on the coordinates.
    assert interp.in_domain(-1e-14, 0.5) and interp.in_domain(0.5, -1e-14)
    assert not interp.in_domain(-3e-14, 0.5)


def test_build_surface_falls_back_to_line():
    points = np.array([[0.8, 0.5], [1.0, 0.5], [1.2, 0.5]])
    values = 2.0 * points[:, 0] + 1.0
    surface = unit_surface(points, values)
    assert isinstance(surface._shape, _Line)
    assert surface.value_at(0.9, 0.5) == pytest.approx(2.8)
    assert surface.value_at(0.8, 0.5) == pytest.approx(2.6)
    assert surface.value_at(1.3, 0.5) is OUTSIDE_HULL
    assert surface.value_at(1.0, 0.6) is OUTSIDE_HULL
    assert not surface.in_domain(1.0, 0.6)


def test_line_interpolator_averages_coincident_points():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    surface = unit_surface(points, np.array([2.0, 4.0, 6.0]))
    assert surface.value_at(0.0, 0.0) == pytest.approx(3.0)
    assert surface.value_at(0.5, 0.0) == pytest.approx(4.5)


def test_line_interpolator_rejects_single_point():
    with pytest.raises(DegenerateGeometry):
        unit_surface(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


def test_normalized_price_surface_scales_with_quotes():
    quotes = [
        make_quote(CALL, strike, days, mid)
        for strike, days, mid in [
            (90.0, 30, 11.0), (100.0, 30, 4.0), (110.0, 30, 1.0),
            (90.0, 120, 13.0), (100.0, 120, 6.5), (110.0, 120, 3.0),
        ]
    ]
    surface = price_surface(quotes, 100.0)
    scale = 7.0
    scaled = [
        make_quote(CALL, q.strike * scale, q.ttm_days, q.mid * scale) for q in quotes
    ]
    scaled_surface = price_surface(scaled, 100.0 * scale)

    for strike, tau in [(95.0, 30 / 365.0), (105.0, 0.2), (100.0, 0.3)]:
        base = surface.value_at(strike, tau)
        assert base is not OUTSIDE_HULL
        assert scaled_surface.value_at(strike * scale, tau) == pytest.approx(
            scale * base, rel=1e-12
        )
    assert surface.value_at(100.0, 30 / 365.0) == pytest.approx(4.0, abs=1e-12)
    assert surface.value_at(80.0, 0.2) is OUTSIDE_HULL
    assert not surface.in_domain(80.0, 0.2)


def test_normalized_values_keep_vol_scale():
    strikes = [90.0, 100.0, 110.0, 90.0, 110.0]
    taus = [0.1, 0.2, 0.1, 0.3, 0.3]
    vols = [0.25, 0.2, 0.22, 0.24, 0.21]
    surface = normalized_li_values(strikes, taus, vols, spot=100.0, value_scale=1.0)
    assert surface.value_at(100.0, 0.2) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError):
        normalized_li_values(strikes, taus, vols, spot=0.0, value_scale=1.0)


def test_normalized_domain_matches_surface_domain():
    rng = np.random.default_rng(4)
    strikes = rng.uniform(80.0, 120.0, 30)
    taus = rng.uniform(0.05, 1.0, 30)
    surface = normalized_li_values(strikes, taus, np.ones(30), spot=100.0, value_scale=1.0)
    inside = NormalizedGeometry(strikes, taus, spot=100.0).in_domain
    queries = zip(rng.uniform(70.0, 130.0, 400), rng.uniform(0.0, 1.1, 400))
    flags = [(inside(k, t), surface.in_domain(k, t)) for k, t in queries]
    assert all(a == b for a, b in flags)
    assert {a for a, _ in flags} == {True, False}


EXPIRY_DAYS = (7, 14, 30, 61, 91, 182, 365)


@st.composite
def hull_problems(draw):
    """Points at (strike, tau) on a chain's grid, where duplicates, rows on
    one expiry and cocircular quads are common, some sets collinear
    throughout; and queries on the hull's edges, at its points and at
    random."""
    n = draw(st.integers(2, 30))
    steps = draw(st.lists(st.integers(0, 24), min_size=n, max_size=n))
    days = draw(st.lists(st.sampled_from(EXPIRY_DAYS), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["scatter", "one expiry", "one strike", "diagonal"]))
    if shape == "one expiry":
        days = [days[0]] * n
    elif shape == "one strike":
        steps = [steps[0]] * n
    elif shape == "diagonal":
        days = [7 * (1 + k) for k in steps]
    spot = draw(st.sampled_from([100.0, 97.3]))
    points = np.array([((70.0 + 2.5 * k) / spot, d / 365.0) for k, d in zip(steps, days)])
    distinct = np.unique(points, axis=0)
    try:
        corners = distinct[scipy.spatial.ConvexHull(distinct).vertices]
    except (scipy.spatial.QhullError, ValueError):  # collinear, or too few points
        corners = distinct[[0, -1]]
    queries = list(points)
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        queries += [a + t * (b - a) for t in (0.25, 0.5, 0.7)]
    lo, hi = points.min(axis=0), points.max(axis=0)
    fractions = draw(st.lists(st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)), max_size=20))
    queries += [lo + np.array(f) * (hi - lo) for f in fractions]
    strikes, taus = points[:, 0] * spot, points[:, 1]
    return strikes, taus, spot, [(x * spot, y) for x, y in queries]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hull_problems())
def test_the_merged_hull_test_agrees_with_the_raw_point_one(problem):
    strikes, taus, spot, queries = problem
    try:
        expected = raw_normalized_domain(strikes, taus, spot)
    except DegenerateGeometry:
        with pytest.raises(DegenerateGeometry):
            NormalizedGeometry(strikes, taus, spot)
        return
    inside = NormalizedGeometry(strikes, taus, spot).in_domain
    for strike, tau in queries:
        assert inside(strike, tau) == expected(strike, tau), (strike, tau)


def test_normalized_domain_of_collinear_points_is_their_segment():
    strikes = [90.0, 95.0, 100.0, 105.0, 110.0]
    taus = [d / 365.0 for d in (30, 45, 60, 75, 90)]
    inside = NormalizedGeometry(strikes, taus, spot=100.0).in_domain
    assert inside(100.0, 60 / 365.0)
    assert inside(95.0, 45 / 365.0)
    # Inside the bounding box, off the segment.
    assert not inside(90.0, 90 / 365.0)
    assert not inside(115.0, 105 / 365.0)
    with pytest.raises(DegenerateGeometry):
        NormalizedGeometry([100.0, 100.0], [0.5, 0.5], spot=100.0)


def test_line_interpolator_returns_every_sample_including_the_ends():
    # Projecting an end sample onto the fitted line can land a rounding
    # error outside the sample parameters; the slack along the line
    # keeps both ends in the domain.
    points = np.array([[m, d / 365.0] for m, d in
                       zip((0.9, 0.95, 1.0, 1.05, 1.1), (30, 45, 60, 75, 90))])
    values = np.array([0.11, 0.07, 0.04, 0.02, 0.01])
    surface = unit_surface(points, values)
    assert isinstance(surface._shape, _Line)
    for point, value in zip(points, values):
        assert surface.value_at(*point) == pytest.approx(value, rel=1e-12)


def test_augment_zero_maturity_pins_payoff():
    quotes = [
        make_quote(PUT, strike, days, mid)
        for strike, days, mid in [(90.0, 60, 2.0), (100.0, 60, 5.0), (110.0, 60, 12.0)]
    ]
    strikes, payoffs = augment_zero_maturity(PUT, spot=100.0, strike_range=(90.0, 110.0))
    assert strikes.tolist() == pytest.approx(list(np.linspace(90.0, 110.0, 30)))
    assert payoffs.tolist() == [max(k - 100.0, 0.0) for k in strikes.tolist()]

    # Appended at tau = 0, the row pins the surface to the payoff at expiry.
    surface = normalized_li_values(
        [q.strike for q in quotes] + strikes.tolist(),
        [q.tau for q in quotes] + [0.0] * len(strikes),
        [q.mid for q in quotes] + payoffs.tolist(),
        100.0, value_scale=100.0,
    )
    assert surface.in_domain(100.0, 0.0)
    assert surface.value_at(110.0, 0.0) == pytest.approx(10.0, abs=1e-9)
    assert surface.value_at(95.0, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_augment_zero_maturity_options():
    strikes, payoffs = augment_zero_maturity(CALL, spot=100.0, strike_range=(50.0, 150.0))
    assert strikes.tolist() == np.linspace(50.0, 150.0, 30).tolist()
    assert strikes[0] == 50.0 and strikes[-1] == 150.0
    assert payoffs.tolist() == [max(100.0 - k, 0.0) for k in strikes.tolist()]
    assert payoffs[0] == 50.0 and payoffs[-1] == 0.0

    with pytest.raises(ValueError):
        augment_zero_maturity(CALL, spot=100.0, strike_range=(-1.0, 50.0))
    with pytest.raises(ValueError):
        augment_zero_maturity(CALL, spot=100.0, strike_range=(150.0, 50.0))
