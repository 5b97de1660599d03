"""Nadaraya-Watson kernel regression on raw (strike, tau) coordinates.

The estimate at a query x is the kernel-weighted mean of the sample
values,

    f(x) = sum_k w_k(x) p_k / sum_k w_k(x),
    w_k(x) = rho_eps1(strike - strike_k) * rho_eps2(tau - tau_k),

with Gaussian factors rho. Weights are computed in log space with
max-subtraction, so far-from-data queries stay well conditioned; only
when the true weight sum drops below 1e-300 is the query declared
unanswerable. A query costs about a dozen numpy calls on the 1-D sample
columns: each coordinate's differences are scaled and squared in place,
the strike terms gain the tau terms, and one exponential pass also gives
the log of the sum. NwModel keeps its normalization and a "quiet box":
the queries within _QUIET_SPAN bandwidths of every sample in each
coordinate, whose log-weights cannot leave the float range. Those run
with no np.errstate; any other query (NaN, inf, far away, or near a
tiny bandwidth's samples) runs the same computation with overflow
ignored, where a square past the float range weighs exactly zero.

Two bandwidth selectors are provided: Silverman's rule per coordinate,
and leave-one-out cross-validation of the squared relative error,
searched on a log grid around the Silverman seed and refined with
Nelder-Mead in log-bandwidth space. Both are deterministic. The grid
stage (_cv_grid) scores exactly (_cv_objective) only the seed and the
candidates that a cheap screen (_cv_screen) cannot rule out. The
simplex is pricelab's own (simplex.nelder_mead), with scipy's iterates
bit for bit, and one exact objective serves both stages of a search.

Far from the data most log-weights lie below -700, where np.exp is slow:
a result that underflows to zero costs several times a normal one, and a
subnormal result about a hundred times. On the CV objective's (kept row,
sample) tables that cost dominates, so the objective exponentiates
through _exp: arguments clamped at -700, zeroed at or below it, with
only the few in (-746, -700], whose results may be subnormal, sent
through np.exp as one gathered array. Every weight is bit-identical to
np.exp. A query's few hundred weights go to np.exp directly, which costs
less there than _exp's mask, gather and scatter.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDispersion, NumericalUnderflow
from .simplex import nelder_mead

_LOG_FLOOR = math.log(1e-300)
# Relative margin of the grid screen's underflow tests.
_MARGIN = 1e-9
# np.exp(x) is 0.0 for x <= _EXP_ZERO: exp(-746) ~ 1e-324 is below half the
# smallest subnormal. For x > _EXP_NORMAL it is a normal number, which
# np.exp computes fast. Clamping at -708, nearer the subnormal range, would
# hit the slow path again.
_EXP_ZERO = -746.0
_EXP_NORMAL = -700.0
# A query within 9e153 bandwidths of every sample in each coordinate
# squares each scaled distance to at most 8.1e307, and their sum is at most
# 1.62e308, below the float maximum of 1.797e308: nothing overflows.
_QUIET_SPAN = 9e153
_SILVERMAN_FACTOR = 0.9
_IQR_SCALE = 1.34

# CV search: 15 log-spaced factors per coordinate spanning 1e-3..1e3
# around the Silverman seed. The middle factor is exactly 1, so the seed
# itself is the grid's middle cell.
_CV_GRID_DECADES = 3.0
_CV_GRID_SIZE = 15
_CV_FACTORS = np.logspace(-_CV_GRID_DECADES, _CV_GRID_DECADES, _CV_GRID_SIZE)
_CV_SEED = _CV_GRID_SIZE // 2
if _CV_FACTORS[_CV_SEED] != 1.0:
    raise ImportError("the middle factor of the CV grid must be exactly 1")
# The grid screen's allowance for the rounding of one prediction, in units
# of the largest |value|. The exact objective and the screen each compute a
# weight within about 5e-16 (746 + |row max|) relative of its true value,
# and a weighted sum of n terms within n 1.1e-16 of its magnitudes' sum, so
# the two predictions differ by at most about 1e-11 of the kernel-weighted
# mean |value| for rows not certain to underflow (|row max| < 2300) and n
# up to 10^4.
_SCREEN_TOL = 1e-10


@dataclass(frozen=True)
class Bandwidths:
    eps1: float
    eps2: float

    def __post_init__(self):
        if not (self.eps1 > 0.0 and self.eps2 > 0.0):
            raise ValueError(f"bandwidths must be positive, got ({self.eps1}, {self.eps2})")


@dataclass(frozen=True)
class NwModel:
    """Samples plus bandwidths, and caches built from them; immutable,
    safe to share across threads. The sample columns are read-only
    copies, so the quiet box cannot go stale."""

    strikes: np.ndarray
    taus: np.ndarray
    values: np.ndarray
    bandwidths: Bandwidths
    _log_norm: float = field(init=False, repr=False, compare=False)
    _quiet_box: tuple[float, float, float, float] = field(init=False, repr=False,
                                                          compare=False)

    def __post_init__(self):
        strikes, taus, values = (np.array(column, dtype=float)
                                 for column in (self.strikes, self.taus, self.values))
        if not (strikes.shape == taus.shape == values.shape and strikes.ndim == 1):
            raise ValueError("strikes, taus, values must be equal-length 1-D arrays")
        if strikes.size == 0:
            raise ValueError("at least one sample required")
        strikes.flags.writeable = taus.flags.writeable = values.flags.writeable = False
        eps1, eps2 = self.bandwidths.eps1, self.bandwidths.eps2
        box = _quiet_range(strikes, eps1) + _quiet_range(taus, eps2)
        for name, value in zip(["strikes", "taus", "values", "_log_norm", "_quiet_box"],
                               [strikes, taus, values, _log_norm(eps1, eps2), box]):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # as its fields: a copy builds its own caches
        return type(self), (self.strikes, self.taus, self.values, self.bandwidths)

    def __eq__(self, other: object) -> bool:  # by value: equal arrays, not the same ones
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bandwidths == other.bandwidths and all(map(
            np.array_equal, (self.strikes, self.taus, self.values),
            (other.strikes, other.taus, other.values)))


def _quiet_range(samples: np.ndarray, eps: float) -> tuple[float, float]:
    """(low, high): the queries q for which every computed difference q - s
    from a sample s lies within _QUIET_SPAN eps and the float range. Float
    subtraction is monotone, so the edges' differences from the farthest
    samples bound all others; each edge is pulled in while rounding leaves
    its difference past the span. Empty (low > high, or NaN) when no query
    qualifies."""
    span = min(_QUIET_SPAN * float(eps), sys.float_info.max)
    first, last = float(samples.min()), float(samples.max())
    low, high = last - span, first + span
    while low - last < -span:
        low = math.nextafter(low, math.inf)
    while high - first > span:
        high = math.nextafter(high, -math.inf)
    return low, high


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x), bit for bit, for a C-contiguous array of log-weights
    x <= 0 (never NaN), computed in place: x is overwritten and returned."""
    live = x > _EXP_NORMAL
    flat = x.reshape(-1)
    band = np.flatnonzero(live != (x > _EXP_ZERO))
    band_values = np.exp(flat[band])
    np.maximum(x, _EXP_NORMAL, out=x)
    np.exp(x, out=x)
    np.multiply(x, live, out=x)
    flat[band] = band_values
    return x


def _log_norm(eps1: float, eps2: float) -> float:
    """-log(2 pi eps1 eps2) for positive bandwidths; -(log 2 pi + log eps1
    + log eps2) where the product underflows to 0 or overflows."""
    eps1, eps2 = float(eps1), float(eps2)
    product = 2.0 * math.pi * eps1 * eps2
    if 0.0 < product < math.inf:
        return -math.log(product)
    return -(math.log(2.0 * math.pi) + math.log(eps1) + math.log(eps2))


def _log_weights(model: NwModel, strike: float, tau: float) -> np.ndarray:
    """-((strike - strikes) / eps1)**2 / 2 - ((tau - taus) / eps2)**2 / 2,
    with one rounding order: the strike term plus the tau term, halved."""
    z = np.subtract(strike, model.strikes)
    z /= model.bandwidths.eps1
    np.square(z, out=z)
    z2 = np.subtract(tau, model.taus)
    z2 /= model.bandwidths.eps2
    np.square(z2, out=z2)
    z += z2
    z *= -0.5
    return z


def nw_estimate(model: NwModel, strike: float, tau: float) -> float:
    """Evaluate the regression at one query.

    The result is a convex combination of the sample values (so it lies
    within their range) with the negative-part clamp applied; the clamp
    cannot activate for non-negative samples but states the contract.

    Raises NumericalUnderflow when every kernel weight underflows the
    1e-300 floor (query absurdly far from the data).
    """
    low1, high1, low2, high2 = model._quiet_box
    if low1 <= strike <= high1 and low2 <= tau <= high2:
        logw = _log_weights(model, strike, tau)
    else:
        # A square, or a sum of two, past the float range weighs exactly zero.
        with np.errstate(over="ignore"):
            logw = _log_weights(model, strike, tau)
    top = float(np.maximum.reduce(logw))
    if math.isfinite(top):
        shifted = np.exp(np.subtract(logw, top, out=logw), out=logw)
        total = np.add.reduce(shifted)
        # True weight sum includes the Gaussian normalization the estimate cancels.
        if top + math.log(total) + model._log_norm >= _LOG_FLOOR:
            return max(float(shifted @ model.values / total), 0.0)
    raise NumericalUnderflow(f"kernel weights underflow at query ({strike}, {tau}) "
                             f"with {model.bandwidths}")


def silverman_bandwidths(points) -> Bandwidths:
    """Per-coordinate rule of thumb: 0.9 min(D, Q/1.34) n^{-1/5}, with D
    the n-1 sample deviation and Q the interquartile range.

    Raises DegenerateDispersion, naming the coordinate (strike or tau),
    when either has D = 0 or Q = 0; callers must then select bandwidths
    another way.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {points.shape}")
    n = points.shape[0]
    if n < 2:
        raise DegenerateDispersion("dispersion undefined for fewer than two points")
    eps = []
    for name, column in zip(["strike", "tau"], points.T):
        # A deviation past the float range is +inf: the IQR term then binds.
        with np.errstate(over="ignore"):
            spread = float(np.std(column, ddof=1))
        q25, q75 = np.percentile(column, [25.0, 75.0])
        iqr = float(q75 - q25)
        if spread == 0.0 or iqr == 0.0:
            raise DegenerateDispersion(f"{name} has zero spread")
        eps.append(_SILVERMAN_FACTOR * min(spread, iqr / _IQR_SCALE) * n ** (-0.2))
    return Bandwidths(eps[0], eps[1])


def _cv_objective(points: np.ndarray, values: np.ndarray):
    """The leave-one-out sum of |1 - f_{-j}(x_j)/p_j|^2 over kept rows
    (nonzero values), as a function of (eps1, eps2); +inf when any kept
    row underflows.

    What the points fix is built once: each kept row's strike and tau
    differences from every sample. A call scales and squares them into
    two (kept row, sample) buffers and sums them in the first, where the
    rest of the evaluation works in place.
    """
    strikes, taus = points[:, 0], points[:, 1]
    rows = np.flatnonzero(values != 0.0)
    d1 = strikes[rows][:, None] - strikes[None, :]
    d2 = taus[rows][:, None] - taus[None, :]
    # Flat index of each kept row's own sample, which its estimate leaves out.
    own = np.arange(rows.size) * len(strikes) + rows
    kept_values = values[rows]
    z1, z2 = np.empty_like(d1), np.empty_like(d1)

    def objective(eps1: float, eps2: float) -> float:
        # (d / eps)**2 as written: d**2 / eps**2 would round differently. A
        # tiny bandwidth sends a term to +inf, a weight of zero; eps2 = 0
        # makes 0/0 = NaN, which the test below scores +inf. A kept value
        # near zero can send its ratio or square past the float range; the
        # objective is then +inf, which the search already scores as the
        # worst candidate, so the overflow is expected, not a fault.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            logw = np.square(np.divide(d1, eps1, out=z1), out=z1)
            logw += np.square(np.divide(d2, eps2, out=z2), out=z2)
            logw *= -0.5
            logw.reshape(-1)[own] = -np.inf
            row_max = logw.max(axis=1)
            # -inf or NaN when some row has no finite weight; +inf without rows.
            if not float(row_max.min(initial=np.inf)) > -math.inf:
                return math.inf
            logw -= row_max[:, None]
            shifted = _exp(logw)
            denom = shifted.sum(axis=1)
            log_denominator = row_max + np.log(denom) + _log_norm(eps1, eps2)
            if (log_denominator < _LOG_FLOOR).any():
                return math.inf
            predictions = np.maximum(shifted @ values / denom, 0.0)
            ratios = 1.0 - predictions / kept_values
            return float((ratios * ratios).sum())

    return objective


def _cv_inputs(points, values) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or values.shape != (points.shape[0],):
        raise ValueError("points must be (n, 2) with one value per point")
    if points.shape[0] < 3:
        raise ValueError("cross-validation needs at least three samples")
    if not np.any(values != 0.0):
        raise ValueError("every sample value is zero; relative CV is undefined")
    return points, values


def _cv_screen(points: np.ndarray, values: np.ndarray, eps1s: np.ndarray,
               eps2s: np.ndarray) -> np.ndarray:
    """The candidates of the grid eps1s x eps2s that the exact objective
    must score, as an (eps1, eps2) mask.

    Each candidate's LOO-CV score is computed cheaply, with a bound on
    its distance from the exact objective's score. Where that bound
    certainly holds, the candidate is sure. A candidate is ruled out
    where the exact objective certainly returns +inf, or where it is sure
    and its score certainly lies above one that some sure candidate
    certainly reaches. The exact objective must score the rest.

    A weight is a strike factor times a tau factor. Per eps1, one pass
    over the (sample, kept row) table exponentiates the strike terms, each
    shifted by its largest within its row and tau, and sums them, and them
    times the values, per tau. Each eps2 then weighs those sums with the
    tau factors shifted by the row's largest log-weight: (tau, row) work.
    """
    strikes, taus = points[:, 0], points[:, 1]
    n = len(strikes)
    rows = np.flatnonzero(values != 0.0)
    # (sample, row) tables with the samples sorted by tau, so that each
    # distinct tau is one block of samples.
    order = np.argsort(taus, kind="stable")
    sorted_taus = taus[order]
    starts = np.flatnonzero(np.concatenate([[True], sorted_taus[1:] != sorted_taus[:-1]]))
    ends = np.append(starts[1:], n)
    # Squared distances in units of the widest bandwidth, so that the scales
    # below stay in the float range; a square past it is +inf, weight 0.
    unit = eps1s.max()
    excess = strikes[order][:, None] - strikes[rows]
    with np.errstate(over="ignore"):
        excess /= unit
        np.square(excess, out=excess)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    # A row leaves its own sample out.
    excess[position[rows], np.arange(rows.size)] = np.inf
    # Each block's least square per row, and the excess over it: 0 at the
    # row's nearest strike in the block, +inf where no weight can be nonzero.
    nearest = np.minimum.reduceat(excess, starts, axis=0)
    with np.errstate(invalid="ignore"):
        excess -= np.repeat(nearest, ends - starts, axis=0)
    excess[np.isnan(excess)] = np.inf
    # The log-weight at each row's nearest strike per tau is sum_k
    # factors[k, eps2] terms[k, tau, row]: the tau term, scale times squared
    # tau distance, plus the strike term, filled in per eps1.
    terms = np.empty((2, starts.size, rows.size))
    np.square((sorted_taus[starts][:, None] - taus[rows]) / eps2s.max(), out=terms[0])
    factors = np.ones((2, eps2s.size))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        factors[0] = -0.5 * (eps2s.max() / eps2s) ** 2
    # +inf at a bandwidth of 0 (a seed below 1e-321), as -log(0).
    log_norm = np.array([[_log_norm(eps1, eps2) if eps1 > 0.0 < eps2 else math.inf
                          for eps2 in eps2s] for eps1 in eps1s])
    # Per sample: 1, for the weight sums, and its value.
    columns = np.vstack([np.ones(n), values[order]])
    blocks = list(zip(starts.tolist(), ends.tolist()))
    kept_values = values[rows]
    # errors bounds each ratio's distance from the exact objective's, in
    # units of _SCREEN_TOL: the predictions' (a weight below exp(-700)
    # counts as exp(-700) here, which adds at most 2n exp(-700) of the
    # largest |value|), and the ratio's own rounding.
    errors = 1.0 + (2.0 + n * 1e-293) * np.abs(values).max() / np.abs(kept_values)
    shape = (eps1s.size, eps2s.size)
    scores, bounds = np.full(shape, np.nan), np.full(shape, np.nan)
    underflow = np.ones(shape, dtype=bool)
    sure = np.zeros(shape, dtype=bool)
    weights = np.empty_like(excess)
    block_sums = np.empty((len(columns), starts.size, rows.size))
    log_weights = np.empty((eps2s.size, starts.size, rows.size))
    # (eps2, row): the weight sum, and the weighted sum of the values, each
    # shifted by the row's largest log-weight.
    sums = np.empty((len(columns), eps2s.size, rows.size))
    log_n = math.log(n)
    for i, eps1 in enumerate(eps1s):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            scale = -0.5 * (unit / eps1) ** 2
            if not -math.inf < scale < 0.0:
                # An eps1 of 0 (a seed below 1e-321): the exact objective decides.
                underflow[i] = False
                continue
            np.multiply(nearest, scale, out=terms[1])
            np.einsum("ke,ktr->etr", factors, terms, out=log_weights)
            row_max = log_weights.max(axis=1)
            lowest = row_max.min(axis=1)
            pad = _MARGIN * (1.0 + np.abs(lowest) + np.abs(log_norm[i]))
            # A row's shifted weight sum lies in [1, n].
            if np.all((lowest == -np.inf) | (lowest + log_norm[i] + log_n < _LOG_FLOOR - pad)):
                continue
        # The strike factors, each block's largest 1, and per block their
        # sums and their products with the values. Clamped at -700, where
        # np.exp stays fast (see _exp).
        np.multiply(excess, scale, out=weights)
        np.maximum(weights, _EXP_NORMAL, out=weights)
        np.exp(weights, out=weights)
        for b, (start, end) in enumerate(blocks):
            np.einsum("sj,jr->sr", columns[:, start:end], weights[start:end], out=block_sums[:, b])
        # Rows without a finite log-weight make NaNs from here on; they
        # underflow. A tiny value can send a ratio, its square or a bound to
        # +inf; the candidate is then not sure, and the exact objective
        # scores it. In place, the weighted sums turn into ratios, and the
        # weight sums into log-denominators.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_weights -= row_max[:, None, :]
            tau_factors = np.exp(log_weights, out=log_weights)
            np.einsum("etr,str->ser", tau_factors, block_sums, out=sums)
            denom, ratios = sums
            ratios /= denom
            np.maximum(ratios, 0.0, out=ratios)
            np.log(denom, out=denom)
            denom += row_max
            log_denominator = denom.min(axis=1) + log_norm[i]
            underflow[i] = (lowest == -np.inf) | (log_denominator < _LOG_FLOOR - pad)
            ratios /= kept_values
            np.subtract(1.0, ratios, out=ratios)
            scores[i] = np.einsum("er,er->e", ratios, ratios)
            np.abs(ratios, out=ratios)
            # |a^2 - b^2| <= |a - b| (2 |a| + |a - b|), and the sum's rounding.
            bounds[i] = _SCREEN_TOL * (2.0 * np.einsum("er,r->e", ratios, errors)
                                       + _SCREEN_TOL * (errors * errors).sum() + scores[i])
            sure[i] = ((log_denominator >= _LOG_FLOOR + pad) & np.isfinite(log_norm[i])
                       & ~underflow[i] & np.isfinite(scores[i]) & np.isfinite(bounds[i]))
    with np.errstate(invalid="ignore"):
        # A score that some sure candidate certainly reaches.
        ceiling = np.where(sure, scores + bounds, np.inf).min()
        contender = np.where(sure, scores - bounds, np.inf) <= ceiling
    return ~underflow & (contender | ~sure)


def _cv_grid(points: np.ndarray, values: np.ndarray,
             objective) -> tuple[tuple[float, float] | None, float]:
    """The grid stage of loo_cv_bandwidths on checked inputs: the 15x15
    log grid spanning six decades around the Silverman seed, exact ties
    resolved to the seed. Returns the best candidate (eps1, eps2), None
    when every candidate underflows, and its score.

    The exact objective scores the seed and the candidates that the
    screen (_cv_screen) cannot rule out, in grid order, as a brute-force
    grid would.
    """
    seed = silverman_bandwidths(points)
    eps1s, eps2s = seed.eps1 * _CV_FACTORS, seed.eps2 * _CV_FACTORS
    rescore = _cv_screen(points, values, eps1s, eps2s)
    rescore[_CV_SEED, _CV_SEED] = True
    best, score = None, math.inf
    for i1, i2 in zip(*np.nonzero(rescore)):
        eps = (float(eps1s[i1]), float(eps2s[i2]))
        cv = objective(*eps)
        if i1 == i2 == _CV_SEED:
            seed_cv = cv
        if cv < score:
            best, score = eps, cv
    if best is not None and seed_cv == score:
        best = (seed.eps1, seed.eps2)
    return best, score


def loo_cv_bandwidths(points, values, meta: dict | None = None) -> Bandwidths:
    """Bandwidths minimizing the leave-one-out squared relative error.

    Zero-valued samples are excluded from the CV sum (the relative error
    is undefined there). The search is _cv_grid's grid, then
    Nelder-Mead in log-bandwidth space from its best point; a vertex
    whose bandwidth would pass the float range scores +inf. Given a
    meta dict, it records cv_evaluations, Nelder-Mead's count of exact
    evaluations (0 when the grid's best scores 0), and cv_converged,
    False when the simplex stopped at its 400 iterations.

    Raises NumericalUnderflow only if every candidate underflows, and
    ValueError when no sample has a nonzero value.
    """
    points, values = _cv_inputs(points, values)
    objective = _cv_objective(points, values)
    best, best_score = _cv_grid(points, values, objective)
    if best is None:
        raise NumericalUnderflow("every bandwidth candidate underflowed")
    if best_score == 0.0:
        if meta is not None:
            meta.update(cv_evaluations=0, cv_converged=True)
        return Bandwidths(*best)

    def score(u1: float, u2: float) -> float:
        try:
            eps1, eps2 = math.exp(u1), math.exp(u2)
        except OverflowError:  # past log(1.8e308)
            return math.inf
        return objective(eps1, eps2)

    # np.log, not math.log: the two can differ in the last bit.
    result = nelder_mead(score, np.log(best), xatol=1e-4, fatol=1e-12, maxiter=400)
    if meta is not None:
        meta.update(cv_evaluations=result.nfev, cv_converged=result.status == 0)
    # Only a finite score shows that result.x maps back to float bandwidths.
    if math.isfinite(result.fun) and result.fun <= best_score:
        return Bandwidths(math.exp(result.x[0]), math.exp(result.x[1]))
    return Bandwidths(*best)
