"""Piecewise-linear interpolation of scattered option data.

The price surface is fit in normalized coordinates: samples live at
(strike/spot, tau) with values price/spot, a Delaunay triangulation of
the samples carries a barycentric-linear interpolant, and predictions
are spot times the interpolated value. Queries outside the convex hull
of the samples get the OUTSIDE_HULL marker rather than an extrapolated
number: outside the hull the interpolant is simply not defined.

Point location is done here rather than by scipy. scipy's Delaunay
computes its barycentric transforms lazily with one LAPACK dgetrs per
triangle, and each of those calls wakes OpenBLAS's thread pool, whose
idle threads then spin for tens of milliseconds: a serial run burned
about twice its wall time in CPU, and day workers in a process pool
fought those threads for the cores. So only the qhull build, which
calls no BLAS, comes from scipy; each triangle's transform is the 2x2
inverse in closed form, and a bucket grid over the samples' bounding
box narrows each query to a few candidate triangles.

When the samples are collinear (a single-maturity day, say) the
triangulation degenerates and build_surface falls back to 1-D
piecewise-linear interpolation along the line's parameter.
normalized_domain gives the same domain test without fitting values, for
estimators that price everywhere but flag queries outside it.

augment_zero_maturity gives a row of fictitious expiring options priced
at their intrinsic payoffs; appended at tau = 0, it widens the hull down
to expiry so short-dated queries stop falling outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .errors import DegenerateGeometry
from .market_data import OptionKind

# Points closer than this (in both coordinates) are merged, values averaged.
_DUPLICATE_TOL = 1e-12
# Perpendicular slack for membership on a collinear sample line.
_LINE_TOL = 1e-9
# scipy's point-location constants: the slack on barycentric coordinates
# and on the bounding box, the slack towards a degenerate neighbour, and
# the reciprocal condition number below which a triangle is degenerate.
_BARY_EPS = 100 * np.finfo(float).eps
_BARY_EPS_BROAD = math.sqrt(np.finfo(float).eps)
_RCOND_LIMIT = 1000 * np.finfo(float).eps
# Widening of each triangle's bounding box, as a share of the samples' box,
# when it is assigned to grid cells. A point inside a triangle by either
# slack lies within 2 _BARY_EPS_BROAD times the triangle's extent of its
# bounding box, inside this widening.
_GRID_SLACK = 1e-7


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
    """Collapse coincident points (within tol per coordinate) to their mean value.

    Points are taken in lexicographic order; a point joins the current
    group when it lies within tol of the group's first point. A sample
    without points comes back as it is.
    """
    if not len(sample.values):
        return sample
    order = np.lexsort((sample.points[:, 1], sample.points[:, 0]))
    points, values = sample.points[order], sample.values[order]
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()
    starts = [0]
    ax, ay = xs[0], ys[0]
    for i in range(1, len(xs)):
        if not (abs(xs[i] - ax) <= tol and abs(ys[i] - ay) <= tol):
            starts.append(i)
            ax, ay = xs[i], ys[i]
    merged = values[starts]
    for j, (a, b) in enumerate(zip(starts, starts[1:] + [len(xs)])):
        if b - a > 1:
            merged[j] = values[a:b].mean()
    return ScatterSample(points[starts], merged)


class _Triangles:
    """Closed-hull point location over a Delaunay triangulation of points,
    by scipy's rules.

    Each triangle carries its barycentric transform in scipy's layout: the
    inverse of T = [p0 - r, p1 - r] (columns, r the last vertex) and r,
    so c_i = Tinv_i0 (x - r_x) + Tinv_i1 (y - r_y) and c2 = 1 - c0 - c1.
    A query is inside a triangle when every coordinate lies within
    [-_BARY_EPS, 1 + _BARY_EPS], and it is located in the first such
    triangle in triangulation order. A triangle whose T has a reciprocal
    condition number below _RCOND_LIMIT is degenerate, as scipy's NaN
    transform marks it: it contains nothing by itself, but a query that no
    triangle contains is inside a neighbour of it when it lies within
    _BARY_EPS_BROAD of that neighbour on the shared edge's side (and
    within _BARY_EPS on the others), so thin slivers leave no holes.

    A uniform grid of cells over the points' bounding box lists, for each
    cell, the triangles whose bounding box (widened by _GRID_SLACK of the
    box, which covers both slacks) meets it, so a query tests only its
    cell's triangles.
    """

    def __init__(self, points: np.ndarray):
        tri = _triangulate(points)
        simplices = tri.simplices
        corners = points[simplices]
        r = corners[:, 2]
        a, b = corners[:, 0, 0] - r[:, 0], corners[:, 1, 0] - r[:, 0]
        c, d = corners[:, 0, 1] - r[:, 1], corners[:, 1, 1] - r[:, 1]
        det = a * d - b * c
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            transforms = np.column_stack([d / det, -b / det, -c / det, a / det, r])
            # The 1-norm condition number of T transposed, which is what scipy
            # hands LAPACK: the largest row sum of |T| times that of |T^-1|.
            condition = (np.maximum(abs(a) + abs(b), abs(c) + abs(d))
                         * np.maximum(abs(d) + abs(b), abs(c) + abs(a)) / abs(det))
        degenerate = ~(condition * _RCOND_LIMIT <= 1.0)
        transforms[degenerate] = np.nan
        self.simplices = simplices
        self._transforms = transforms.tolist()
        # For each neighbour of a degenerate triangle, the lower bound of each
        # of its coordinates: broad on the edge it shares with one.
        neighbors = tri.neighbors
        beside = np.zeros(neighbors.shape, dtype=bool)
        beside[neighbors >= 0] = degenerate[neighbors[neighbors >= 0]]
        beside &= ~degenerate[:, None]
        self._broad = {int(t): np.where(beside[t], -_BARY_EPS_BROAD, -_BARY_EPS).tolist()
                       for t in np.flatnonzero(beside.any(axis=1))}

        lo, hi = points.min(axis=0), points.max(axis=0)
        self._box = (lo - _BARY_EPS).tolist() + (hi + _BARY_EPS).tolist()
        side = max(1, round(math.sqrt(len(simplices))))
        scale = side / (hi - lo)
        slack = _GRID_SLACK * (hi - lo)
        first = np.clip(np.floor((corners.min(axis=1) - slack - lo) * scale), 0, side - 1)
        last = np.clip(np.floor((corners.max(axis=1) + slack - lo) * scale), 0, side - 1)
        first, last = first.astype(np.intp), last.astype(np.intp)
        # One (triangle, cell) pair for each cell of each triangle's range.
        widths = last[:, 0] - first[:, 0] + 1
        counts = widths * (last[:, 1] - first[:, 1] + 1)
        owner = np.repeat(np.arange(len(simplices)), counts)
        offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        cells = ((first[owner, 1] + offset // widths[owner]) * side
                 + first[owner, 0] + offset % widths[owner])
        order = np.argsort(cells, kind="stable")
        self._candidates = owner[order].tolist()
        self._bounds = np.searchsorted(cells[order], np.arange(side * side + 1)).tolist()
        self._grid = (lo.tolist(), scale.tolist(), side)

    def find(self, x: float, y: float):
        """(triangle, c0, c1, c2) of the triangle in which (x, y) is located,
        or None when it is outside (NaN and infinite queries included)."""
        x, y = float(x), float(y)
        xlo, ylo, xhi, yhi = self._box
        if not (xlo <= x <= xhi and ylo <= y <= yhi):
            return None
        (x0, y0), (sx, sy), side = self._grid
        cell = min(int((y - y0) * sy), side - 1) * side + min(int((x - x0) * sx), side - 1)
        candidates = self._candidates[self._bounds[cell]:self._bounds[cell + 1]]
        lo, hi = -_BARY_EPS, 1.0 + _BARY_EPS
        transforms = self._transforms
        for t in candidates:
            t00, t01, t10, t11, rx, ry = transforms[t]
            dx, dy = x - rx, y - ry
            c0 = t00 * dx + t01 * dy
            if not lo <= c0 <= hi:
                continue
            c1 = t10 * dx + t11 * dy
            c2 = 1.0 - c0 - c1
            if lo <= c1 <= hi and lo <= c2 <= hi:
                return t, c0, c1, c2
        broad = self._broad
        if not broad:
            return None
        for t in candidates:
            if t in broad:
                lo0, lo1, lo2 = broad[t]
                t00, t01, t10, t11, rx, ry = transforms[t]
                dx, dy = x - rx, y - ry
                c0 = t00 * dx + t01 * dy
                c1 = t10 * dx + t11 * dy
                c2 = 1.0 - c0 - c1
                if lo0 <= c0 <= hi and lo1 <= c1 <= hi and lo2 <= c2 <= hi:
                    return t, c0, c1, c2
        return None


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
        self._triangles = _Triangles(sample.points)
        self._values = sample.values[self._triangles.simplices].tolist()

    def contains(self, point) -> bool:
        """Closed-hull membership: boundary points count as inside."""
        return self._triangles.find(*point) is not None

    def evaluate(self, point):
        found = self._triangles.find(*point)
        if found is None:
            return OUTSIDE_HULL
        t, c0, c1, c2 = found
        v0, v1, v2 = self._values[t]
        return c0 * v0 + c1 * v1 + c2 * v2


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
        triangles = _Triangles(points)
    except DegenerateGeometry:
        # Collinear points: the segment of the 1-D fallback; its values are never read.
        line = Linear1DInterpolator(ScatterSample(points, np.zeros(len(points))))
        return lambda strike, tau: line.contains((strike / spot, tau))
    return lambda strike, tau: triangles.find(strike / spot, tau) is not None


def augment_zero_maturity(
    kind: OptionKind,
    spot: float,
    strike_range: tuple[float, float],
    n: int = 30,
) -> tuple[np.ndarray, np.ndarray]:
    """The fictitious expiring row that LIB appends to its training quotes.

    Returns (strikes, payoffs): n strikes equally spaced over strike_range,
    endpoints included, and each one's intrinsic payoff at spot. Placed at
    tau = 0, the row pins the surface to the payoff at expiry.
    """
    if n < 2:
        raise ValueError(f"need at least two fictitious strikes, got {n}")
    lo, hi = strike_range
    if not (0.0 < lo <= hi):
        raise ValueError(f"bad strike range {strike_range}")
    strikes = np.linspace(lo, hi, n)
    if kind is OptionKind.CALL:
        return strikes, np.maximum(spot - strikes, 0.0)
    return strikes, np.maximum(strikes - spot, 0.0)
