"""Reference computations that only the tests use.

gamma_expectation is adaptive quadrature over the Gamma clock, an
oracle independent of the package's log-clock trapezoid rule.
"""

import math
import warnings
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

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
