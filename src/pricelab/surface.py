"""Piecewise-linear interpolation of scattered option data.

The price surface is fit in normalized coordinates: samples live at
(strike/spot, tau) with values price/spot, a Delaunay triangulation of
the samples carries a barycentric-linear interpolant, and predictions
are spot times the interpolated value. Queries outside the convex hull
of the samples get the OUTSIDE_HULL marker rather than an extrapolated
number: outside the hull the interpolant is simply not defined.

When the samples are collinear (a single-maturity day, say) the
triangulation degenerates and build_surface falls back to 1-D
piecewise-linear interpolation along the line's parameter.
normalized_domain gives the same domain test without fitting values, for
estimators that price everywhere but flag queries outside it.

augment_zero_maturity appends fictitious expiring options whose prices
are their intrinsic payoffs, widening the hull down to tau = 0 so
short-dated queries stop falling outside it.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import LinearNDInterpolator
from scipy.spatial import Delaunay, QhullError

from .errors import DegenerateGeometry
from .market_data import OptionKind, OptionQuote

# Points closer than this (in both coordinates) are merged, values averaged.
_DUPLICATE_TOL = 1e-12
# Perpendicular slack for membership on a collinear sample line.
_LINE_TOL = 1e-9


class OutsideHull:
    """Singleton marker for a query outside the interpolation domain."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OUTSIDE_HULL"


OUTSIDE_HULL = OutsideHull()


@dataclass(frozen=True)
class ScatterSample:
    """Scattered observations: points of shape (n, 2), values of shape (n,)."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {points.shape}")
        if values.shape != (points.shape[0],):
            raise ValueError("one value per point required")
        if not (np.isfinite(points).all() and np.isfinite(values).all()):
            raise ValueError("points and values must be finite")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)


def merge_duplicates(sample: ScatterSample, tol: float = _DUPLICATE_TOL) -> ScatterSample:
    """Collapse coincident points (within tol per coordinate) to their mean value."""
    points, values = sample.points, sample.values
    order = np.lexsort((points[:, 1], points[:, 0]))
    points, values = points[order], values[order]
    groups = [0]
    for i in range(1, len(points)):
        anchor = groups[-1]
        if np.all(np.abs(points[i] - points[anchor]) <= tol):
            groups.append(anchor)
        else:
            groups.append(i)
    groups = np.asarray(groups)
    anchors = np.unique(groups)
    merged_points = points[anchors]
    merged_values = np.array([values[groups == a].mean() for a in anchors])
    return ScatterSample(merged_points, merged_values)


def _triangulate(points: np.ndarray) -> Delaunay:
    """Delaunay triangulation of the points. Raises DegenerateGeometry when
    they are fewer than three or collinear."""
    if len(points) < 3:
        raise DegenerateGeometry(f"{len(points)} distinct points cannot span a triangulation")
    try:
        tri = Delaunay(points)
    except QhullError as exc:
        raise DegenerateGeometry(f"triangulation failed: {exc}") from None
    if tri.simplices.size == 0:
        raise DegenerateGeometry("triangulation produced no triangles")
    return tri


class LinearInterpolator:
    """Barycentric-linear interpolant over a Delaunay triangulation.

    Exact at the sample points, affine on each triangle, and defined on
    the closed convex hull of the samples. Raises DegenerateGeometry when
    the points are collinear or fewer than three.
    """

    def __init__(self, sample: ScatterSample):
        sample = merge_duplicates(sample)
        self._tri = _triangulate(sample.points)
        self._interp = LinearNDInterpolator(self._tri, sample.values)

    def contains(self, point) -> bool:
        """Closed-hull membership: boundary points count as inside."""
        return bool(self._tri.find_simplex(np.asarray(point, dtype=float)) >= 0)

    def evaluate(self, point):
        query = np.asarray(point, dtype=float).reshape(1, 2)
        value = float(self._interp(query)[0])
        if math.isnan(value):
            return OUTSIDE_HULL
        return value


class Linear1DInterpolator:
    """Fallback for collinear samples: interpolate along the line's parameter.

    The line is the least-squares direction through the points; queries
    off the line or beyond the parameter range, each by more than a small
    slack, are outside the domain.
    """

    def __init__(self, sample: ScatterSample):
        sample = merge_duplicates(sample)
        points, values = sample.points, sample.values
        if len(values) < 2:
            raise DegenerateGeometry("a line fit needs at least two distinct points")
        center = points.mean(axis=0)
        _, _, vt = np.linalg.svd(points - center, full_matrices=False)
        direction = vt[0]
        params = (points - center) @ direction
        order = np.argsort(params)
        self._params, self._values = params[order], values[order]
        span = float(self._params[-1] - self._params[0])
        if span <= 0.0:
            raise DegenerateGeometry("all points coincide; no line to interpolate along")
        self._center = center
        self._direction = direction
        self._tol = _LINE_TOL * max(1.0, span)

    def contains(self, point) -> bool:
        point = np.asarray(point, dtype=float)
        offset = point - self._center
        along = float(offset @ self._direction)
        perp = offset - along * self._direction
        if float(np.hypot(perp[0], perp[1])) > self._tol:
            return False
        return self._params[0] - self._tol <= along <= self._params[-1] + self._tol

    def evaluate(self, point):
        if not self.contains(point):
            return OUTSIDE_HULL
        along = float((np.asarray(point, dtype=float) - self._center) @ self._direction)
        return float(np.interp(along, self._params, self._values))


def build_surface(sample: ScatterSample):
    """LinearInterpolator, falling back to Linear1DInterpolator when the
    points are collinear."""
    try:
        return LinearInterpolator(sample)
    except DegenerateGeometry:
        return Linear1DInterpolator(sample)


class NormalizedSurface:
    """Interpolant in (strike/spot, tau) whose outputs are rescaled by spot.

    value_scale is spot for price surfaces (values stored as price/spot)
    and 1 for vol surfaces (vols are already dimensionless).
    """

    def __init__(self, interp, spot: float, value_scale: float):
        self._interp = interp
        self.spot = spot
        self.value_scale = value_scale

    def _normalize(self, strike: float, tau: float):
        return (strike / self.spot, tau)

    def in_domain(self, strike: float, tau: float) -> bool:
        return self._interp.contains(self._normalize(strike, tau))

    def value_at(self, strike: float, tau: float):
        raw = self._interp.evaluate(self._normalize(strike, tau))
        if raw is OUTSIDE_HULL:
            return OUTSIDE_HULL
        return self.value_scale * raw


def normalized_li_values(strikes, taus, values, spot: float, value_scale: float) -> NormalizedSurface:
    strikes = np.asarray(strikes, dtype=float)
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if spot <= 0.0:
        raise ValueError(f"spot must be positive, got {spot}")
    points = np.column_stack([strikes / spot, taus])
    sample = ScatterSample(points, values / value_scale)
    return NormalizedSurface(build_surface(sample), spot, value_scale)


def normalized_domain(strikes, taus, spot: float) -> Callable[[float, float], bool]:
    """The in_domain test of normalized_li_values over these points, built
    without a value interpolant when the points span a triangulation."""
    points = np.column_stack([np.asarray(strikes, dtype=float) / spot, taus])
    try:
        tri = _triangulate(points)
    except DegenerateGeometry:
        # Collinear points: the segment of the 1-D fallback; its values are never read.
        line = Linear1DInterpolator(ScatterSample(points, np.zeros(len(points))))
        return lambda strike, tau: line.contains((strike / spot, tau))
    return lambda strike, tau: bool(tri.find_simplex((strike / spot, tau)) >= 0)


def augment_zero_maturity(
    quotes,
    kind: OptionKind,
    spot: float,
    n: int = 30,
    strike_range: tuple[float, float] | None = None,
    expiry: dt.date | None = None,
) -> list[OptionQuote]:
    """Append n fictitious expiring options to the quote list.

    The fictitious strikes are equally spaced (endpoints included) over
    strike_range, defaulting to the min/max strike of the given quotes;
    pass the full day's range when the quotes are a training subset.
    Each fictitious option has tau = 0 and price equal to its intrinsic
    payoff, pinning the surface to the payoff at expiry.
    """
    selected = [q for q in quotes if q.kind == kind]
    if not selected:
        raise ValueError("no quotes of the requested kind")
    if n < 2:
        raise ValueError(f"need at least two fictitious strikes, got {n}")
    if strike_range is None:
        strikes = [q.strike for q in selected]
        strike_range = (min(strikes), max(strikes))
    lo, hi = strike_range
    if not (0.0 < lo <= hi):
        raise ValueError(f"bad strike range {strike_range}")
    if expiry is None:
        expiry = min(q.expiry for q in selected)

    augmented = list(selected)
    for strike in np.linspace(lo, hi, n):
        strike = float(strike)
        if kind is OptionKind.CALL:
            payoff = max(spot - strike, 0.0)
        else:
            payoff = max(strike - spot, 0.0)
        augmented.append(
            OptionQuote(
                kind=kind,
                strike=strike,
                expiry=expiry,
                ttm_days=0,
                bid=payoff,
                ask=payoff,
                volume=0,
            )
        )
    return augmented
