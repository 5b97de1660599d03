"""Piecewise-linear interpolation of option data in normalized coordinates.

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
triangulation degenerates and the geometry falls back to 1-D
piecewise-linear interpolation along the line's parameter.

There is one path from points to values. NormalizedGeometry merges
coincident points and triangulates them (or spans their segment) once,
without values: its in_domain is the hull test every estimator uses,
written once (NormalizedSurface.in_domain) and shared by both classes.
Its surface() attaches values at the same points and gives a
NormalizedSurface, so all the labels fitted on one set of points share
one triangulation. normalized_li_values builds a geometry for a single
surface.

augment_zero_maturity gives a row of fictitious expiring options priced
at their intrinsic payoffs; appended at tau = 0, it widens the hull down
to expiry so short-dated queries stop falling outside it.
"""

from __future__ import annotations

import math

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
# Strikes in the fictitious expiring row of augment_zero_maturity.
N_FICTITIOUS = 30


class OutsideHull:
    """Marker for a query outside the interpolation domain: OUTSIDE_HULL."""

    def __repr__(self) -> str:
        return "OUTSIDE_HULL"


OUTSIDE_HULL = OutsideHull()


def _merge_groups(points: np.ndarray, tol: float = _DUPLICATE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Groups of coincident points: the lexicographic order of the points,
    and the positions in that order where each group starts.

    A point joins the current group when it lies within tol (per
    coordinate) of the group's first point.
    """
    order = np.lexsort((points[:, 1], points[:, 0]))
    starts: list[int] = []
    for i, (x, y) in enumerate(zip(points[order, 0].tolist(), points[order, 1].tolist())):
        if not starts or not (abs(x - ax) <= tol and abs(y - ay) <= tol):
            starts.append(i)
            ax, ay = x, y
    return order, np.array(starts, dtype=np.intp)


def _group_means(values: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each group's mean value, in group order, for the groups of _merge_groups."""
    values = values[order]
    merged = values[starts]
    ends = starts[1:].tolist() + [len(values)]
    for j, (a, b) in enumerate(zip(starts.tolist(), ends)):
        if b - a > 1:
            merged[j] = values[a:b].mean()
    return merged


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

    def table(self, values: np.ndarray) -> list:
        """Each triangle's vertex values, for evaluate; values is one per point."""
        return values[self.simplices].tolist()

    def evaluate(self, table: list, x: float, y: float):
        """The barycentric-linear value at (x, y), or OUTSIDE_HULL."""
        found = self.find(x, y)
        if found is None:
            return OUTSIDE_HULL
        t, c0, c1, c2 = found
        v0, v1, v2 = table[t]
        return c0 * v0 + c1 * v1 + c2 * v2


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


class _Line:
    """The domain of collinear points: the segment they span.

    The line is the least-squares direction through the points; points
    off the line or beyond the parameter range, each by more than a small
    slack, are outside it. Raises DegenerateGeometry for fewer than two
    distinct points.
    """

    def __init__(self, points: np.ndarray):
        if len(points) < 2:
            raise DegenerateGeometry("a line fit needs at least two distinct points")
        center = points.mean(axis=0)
        _, _, vt = np.linalg.svd(points - center, full_matrices=False)
        direction = vt[0]
        params = (points - center) @ direction
        self._order = np.argsort(params)
        self._params = params[self._order]
        span = float(self._params[-1] - self._params[0])
        if span <= 0.0:
            raise DegenerateGeometry("all points coincide; no line to interpolate along")
        self._center = center
        self._direction = direction
        self._tol = _LINE_TOL * max(1.0, span)

    def find(self, x: float, y: float):
        """The parameter of (x, y) along the line, or None when it is outside."""
        offset = np.asarray((x, y), dtype=float) - self._center
        along = float(offset @ self._direction)
        perp = offset - along * self._direction
        if float(np.hypot(perp[0], perp[1])) > self._tol:
            return None
        if self._params[0] - self._tol <= along <= self._params[-1] + self._tol:
            return along
        return None

    def table(self, values: np.ndarray) -> np.ndarray:
        """The values in parameter order, for evaluate; values is one per point."""
        return values[self._order]

    def evaluate(self, table: np.ndarray, x: float, y: float):
        """The piecewise-linear value at (x, y), or OUTSIDE_HULL."""
        along = self.find(x, y)
        if along is None:
            return OUTSIDE_HULL
        return float(np.interp(along, self._params, table))


class NormalizedSurface:
    """Values on a shape (_Triangles or _Line) in (strike/spot, tau),
    rescaled by value_scale on output.

    value_scale is spot for price surfaces (values stored as price/spot)
    and 1 for vol surfaces (vols are already dimensionless).
    """

    def __init__(self, shape, table, spot: float, value_scale: float):
        self._shape = shape
        self._table = table
        self.spot = spot
        self.value_scale = value_scale

    def in_domain(self, strike: float, tau: float) -> bool:
        """Closed-domain membership: boundary points count as inside."""
        return self._shape.find(strike / self.spot, tau) is not None

    def value_at(self, strike: float, tau: float):
        raw = self._shape.evaluate(self._table, strike / self.spot, tau)
        if raw is OUTSIDE_HULL:
            return OUTSIDE_HULL
        return self.value_scale * raw


class NormalizedGeometry:
    """The value-free domain of points at (strike/spot, tau).

    Coincident points are merged (_merge_groups) and the rest
    triangulated, or, when they are collinear, they span a segment. A
    DegenerateGeometry from the segment (fewer than two distinct points)
    propagates. in_domain is the domain test; surface attaches values at
    the same points without triangulating again.
    """

    def __init__(self, strikes, taus, spot: float):
        if spot <= 0.0:
            raise ValueError(f"spot must be positive, got {spot}")
        points = np.column_stack([np.asarray(strikes, dtype=float) / spot,
                                  np.asarray(taus, dtype=float)])
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        self.spot = spot
        self._order, self._starts = _merge_groups(points)
        merged = points[self._order[self._starts]]
        try:
            self._shape = _Triangles(merged)
        except DegenerateGeometry:
            self._shape = _Line(merged)

    in_domain = NormalizedSurface.in_domain

    def surface(self, values, value_scale: float) -> NormalizedSurface:
        """The interpolant of values (one per point, in the order the points
        were given) divided by value_scale, rescaled on output. Coincident
        points take their mean value."""
        values = np.asarray(values, dtype=float) / value_scale
        if values.shape != self._order.shape:
            raise ValueError("one value per point required")
        if not np.isfinite(values).all():
            raise ValueError("points and values must be finite")
        merged = _group_means(values, self._order, self._starts)
        return NormalizedSurface(self._shape, self._shape.table(merged), self.spot, value_scale)


def normalized_li_values(strikes, taus, values, spot: float, value_scale: float) -> NormalizedSurface:
    return NormalizedGeometry(strikes, taus, spot).surface(values, value_scale)


def augment_zero_maturity(
    kind: OptionKind, spot: float, strike_range: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """The fictitious expiring row that LIB appends to its training quotes.

    Returns (strikes, payoffs): N_FICTITIOUS strikes equally spaced over
    strike_range, endpoints included, and each one's intrinsic payoff at
    spot. Placed at tau = 0, the row pins the surface to the payoff at
    expiry.
    """
    lo, hi = strike_range
    if not (0.0 < lo <= hi):
        raise ValueError(f"bad strike range {strike_range}")
    strikes = np.linspace(lo, hi, N_FICTITIOUS)
    if kind is OptionKind.CALL:
        return strikes, np.maximum(spot - strikes, 0.0)
    return strikes, np.maximum(strikes - spot, 0.0)
