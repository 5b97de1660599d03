"""Reference computations that only the tests use.

gamma_expectation is adaptive quadrature over the Gamma clock, an
oracle independent of the package's log-clock trapezoid rule.

nw_estimate and _cv_objective are the kernel module's straightforward
forms: every weight from np.exp, the weight sum from logsumexp, and the
CV matrix built whole for each evaluation. The package's forms must
match them bit for bit.
"""

import math
import warnings
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from pricelab.errors import NumericalUnderflow
from pricelab.kernel import NwModel

# The result must carry an error estimate within _REL_TOL of itself (or
# the caller's absolute floor) after at most _QUAD_LIMIT subdivisions.
_REL_TOL = 1e-8
_EPSREL = 1e-10
_QUAD_LIMIT = 500

# Beyond this log clock value every term's exponent is hopelessly
# negative; short-circuiting also keeps power substitutions from
# overflowing on the quadrature's far probes.
_LOG_CLOCK_CUTOFF = 700.0


def gamma_expectation(f: Callable[[float], float] | None, shape: float, rate: float,
                      abs_floor: float = 1e-12,
                      log_f: Callable[[float], float] | None = None) -> float:
    """E[f(X)] for X ~ Gamma(shape, rate) by adaptive quadrature.

    Pass log_f instead of f for integrands that grow exponentially (the
    moment generating function, say): the quadrature probes clock values
    far beyond the bulk, where only the log of the product is
    representable. Fails the calling test (AssertionError) when the
    reported error exceeds max(1e-8 |result|, abs_floor) or the budget
    runs out.

    The substitution u = rate * x maps the expectation onto the unit-rate
    weight u^{shape-1} e^{-u} / Gamma(shape); for shape < 1 a further
    power substitution v = u^shape removes the endpoint singularity.
    """
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError(f"shape and rate must be positive, got ({shape}, {rate})")
    if (f is None) == (log_f is None):
        raise ValueError("pass exactly one of f and log_f")

    # weighted(clock, log_weight): f times the weight, density included;
    # zero_value: f at zero clock, times the weight's non-singular factor.
    if log_f is not None:
        weighted = lambda g, log_w: math.exp(log_f(g) + log_w)
        zero_value = math.exp(log_f(0.0))
    else:
        weighted = lambda g, log_w: f(g) * math.exp(log_w)
        zero_value = f(0.0)

    log_gamma = gammaln(shape)
    if shape < 1.0:
        inv_shape = 1.0 / shape
        log_gamma1 = gammaln(shape + 1.0)

        def integrand(v: float) -> float:
            if v <= 0.0:
                return zero_value * math.exp(-log_gamma1)
            log_u = math.log(v) * inv_shape
            if log_u > _LOG_CLOCK_CUTOFF:
                return 0.0
            u = math.exp(log_u)
            return weighted(u / rate, -u - log_gamma1)

    else:

        def integrand(u: float) -> float:
            if u <= 0.0:
                return zero_value * math.exp(-log_gamma) if shape == 1.0 else 0.0
            if u > math.exp(_LOG_CLOCK_CUTOFF):
                return 0.0
            return weighted(u / rate, (shape - 1.0) * math.log(u) - u - log_gamma)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = quad(integrand, 0.0, np.inf, epsabs=abs_floor, epsrel=_EPSREL,
                      limit=_QUAD_LIMIT, full_output=1)
    assert len(result) <= 3, f"quadrature did not converge: {result[3]}"
    value, abserr = result[0], result[1]
    assert abserr <= max(_REL_TOL * abs(value), abs_floor), (
        f"quadrature error estimate {abserr} exceeds tolerance for value {value}"
    )
    return value


_LOG_FLOOR = math.log(1e-300)


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
