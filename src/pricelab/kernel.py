"""Nadaraya-Watson kernel regression on raw (strike, tau) coordinates.

The estimate at a query x is the kernel-weighted mean of the sample
values,

    f(x) = sum_k w_k(x) p_k / sum_k w_k(x),
    w_k(x) = rho_eps1(strike - strike_k) * rho_eps2(tau - tau_k),

with Gaussian factors rho. Weights are computed in log space with
max-subtraction, so far-from-data queries stay well conditioned; only
when the true weight sum drops below 1e-300 is the query declared
unanswerable.

Two bandwidth selectors are provided: Silverman's rule per coordinate,
and leave-one-out cross-validation of the squared relative error,
searched on a log grid around the Silverman seed and refined with
Nelder-Mead in log-bandwidth space. Both are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .errors import DegenerateDispersion, NumericalUnderflow

_LOG_FLOOR = math.log(1e-300)
_SILVERMAN_FACTOR = 0.9
_IQR_SCALE = 1.34

# CV search: 15 log-spaced factors per coordinate spanning 1e-3..1e3
# around the Silverman seed. The factor 1 sits on the grid, so the seed
# itself is always a candidate.
_CV_GRID_DECADES = 3.0
_CV_GRID_SIZE = 15


@dataclass(frozen=True)
class Bandwidths:
    eps1: float
    eps2: float

    def __post_init__(self):
        if not (self.eps1 > 0.0 and self.eps2 > 0.0):
            raise ValueError(f"bandwidths must be positive, got ({self.eps1}, {self.eps2})")


@dataclass(frozen=True)
class NwModel:
    """Samples plus bandwidths; immutable, safe to share across threads."""

    strikes: np.ndarray
    taus: np.ndarray
    values: np.ndarray
    bandwidths: Bandwidths

    def __post_init__(self):
        strikes = np.asarray(self.strikes, dtype=float)
        taus = np.asarray(self.taus, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if not (strikes.shape == taus.shape == values.shape and strikes.ndim == 1):
            raise ValueError("strikes, taus, values must be equal-length 1-D arrays")
        if strikes.size == 0:
            raise ValueError("at least one sample required")
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)


def _log_weights(model: NwModel, strike: float, tau: float) -> np.ndarray:
    z1 = (strike - model.strikes) / model.bandwidths.eps1
    z2 = (tau - model.taus) / model.bandwidths.eps2
    return -0.5 * (z1 * z1 + z2 * z2)


def nw_estimate(model: NwModel, strike: float, tau: float) -> float:
    """Evaluate the regression at one query.

    The result is a convex combination of the sample values (so it lies
    within their range) with the negative-part clamp applied; the clamp
    cannot activate for non-negative samples but states the contract.

    Raises NumericalUnderflow when every kernel weight underflows the
    1e-300 floor (query absurdly far from the data).
    """
    logw = _log_weights(model, strike, tau)
    # True weight sum includes the Gaussian normalization the estimate cancels.
    log_norm = -math.log(2.0 * math.pi * model.bandwidths.eps1 * model.bandwidths.eps2)
    log_denominator = logsumexp(logw) + log_norm
    if not np.isfinite(log_denominator) or log_denominator < _LOG_FLOOR:
        raise NumericalUnderflow(
            f"kernel weights underflow at query ({strike}, {tau}) with {model.bandwidths}"
        )
    shifted = np.exp(logw - logw.max())
    estimate = float(shifted @ model.values / shifted.sum())
    return max(estimate, 0.0)


def silverman_bandwidths(points) -> Bandwidths:
    """Per-coordinate rule of thumb: 0.9 min(D, Q/1.34) n^{-1/5}, with D
    the n-1 sample deviation and Q the interquartile range.

    Raises DegenerateDispersion when either coordinate has D = 0 or
    Q = 0; callers must then select bandwidths another way.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {points.shape}")
    n = points.shape[0]
    if n < 2:
        raise DegenerateDispersion("dispersion undefined for fewer than two points")
    eps = []
    for j in range(2):
        column = points[:, j]
        spread = float(np.std(column, ddof=1))
        q25, q75 = np.percentile(column, [25.0, 75.0])
        iqr = float(q75 - q25)
        if spread == 0.0 or iqr == 0.0:
            raise DegenerateDispersion(f"coordinate {j} has zero spread")
        eps.append(_SILVERMAN_FACTOR * min(spread, iqr / _IQR_SCALE) * n ** (-0.2))
    return Bandwidths(eps[0], eps[1])


def _cv_objective(d1: np.ndarray, d2: np.ndarray, values: np.ndarray, keep: np.ndarray,
                  eps1: float, eps2: float) -> float:
    """Leave-one-out sum of |1 - f_{-j}(x_j)/p_j|^2 over kept rows;
    +inf when any needed row underflows."""
    logw = -0.5 * ((d1 / eps1) ** 2 + (d2 / eps2) ** 2)
    np.fill_diagonal(logw, -np.inf)
    logw = logw[keep]
    row_max = logw.max(axis=1)
    if not np.all(np.isfinite(row_max)):
        return float("inf")
    shifted = np.exp(logw - row_max[:, None])
    denom = shifted.sum(axis=1)
    log_norm = -math.log(2.0 * math.pi * eps1 * eps2)
    log_denominator = row_max + np.log(denom) + log_norm
    if np.any(log_denominator < _LOG_FLOOR):
        return float("inf")
    predictions = np.maximum(shifted @ values / denom, 0.0)
    # A kept value near zero can send its ratio or square past the float
    # range; the objective is then +inf, which the search already scores
    # as the worst candidate, so the overflow is expected, not a fault.
    with np.errstate(over="ignore"):
        ratios = 1.0 - predictions / values[keep]
        return float(np.sum(ratios * ratios))


def loo_cv_bandwidths(points, values) -> Bandwidths:
    """Bandwidths minimizing the leave-one-out squared relative error.

    Zero-valued samples are excluded from the CV sum (the relative error
    is undefined there). The search is a 15x15 log grid spanning six
    decades around the Silverman seed, then Nelder-Mead in log-bandwidth
    space from the best grid point; exact ties resolve to the seed.

    Raises NumericalUnderflow only if every candidate underflows, and
    ValueError when no sample has a nonzero value.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or values.shape != (points.shape[0],):
        raise ValueError("points must be (n, 2) with one value per point")
    if points.shape[0] < 3:
        raise ValueError("cross-validation needs at least three samples")
    keep = values != 0.0
    if not keep.any():
        raise ValueError("every sample value is zero; relative CV is undefined")

    seed = silverman_bandwidths(points)
    d1 = points[:, 0][:, None] - points[:, 0][None, :]
    d2 = points[:, 1][:, None] - points[:, 1][None, :]

    def objective(eps1: float, eps2: float) -> float:
        return _cv_objective(d1, d2, values, keep, eps1, eps2)

    factors = np.logspace(-_CV_GRID_DECADES, _CV_GRID_DECADES, _CV_GRID_SIZE)
    best_eps, best_cv = None, float("inf")
    seed_cv = None
    for f1 in factors:
        for f2 in factors:
            eps1, eps2 = seed.eps1 * f1, seed.eps2 * f2
            cv = objective(eps1, eps2)
            if f1 == 1.0 and f2 == 1.0:
                seed_cv = cv
            if cv < best_cv:
                best_cv, best_eps = cv, (eps1, eps2)
    if best_eps is None:
        raise NumericalUnderflow("every bandwidth candidate underflowed")
    if seed_cv is not None and seed_cv == best_cv:
        best_eps = (seed.eps1, seed.eps2)
    if best_cv == 0.0:
        return Bandwidths(*best_eps)

    result = minimize(
        lambda u: objective(math.exp(u[0]), math.exp(u[1])),
        x0=np.log(best_eps),
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 400},
    )
    refined = (math.exp(result.x[0]), math.exp(result.x[1]))
    if np.isfinite(result.fun) and result.fun <= best_cv:
        return Bandwidths(*refined)
    return Bandwidths(*best_eps)


def cv_objective_at(points, values, bandwidths: Bandwidths) -> float:
    """The CV objective at given bandwidths, for comparing selectors."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values != 0.0
    d1 = points[:, 0][:, None] - points[:, 0][None, :]
    d2 = points[:, 1][:, None] - points[:, 1][None, :]
    return _cv_objective(d1, d2, values, keep, bandwidths.eps1, bandwidths.eps2)
