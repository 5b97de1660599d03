"""Variance-Gamma option pricing: one Gamma-clock integrand, two ways to
average it, and calibration.

The log-price is a Brownian motion with drift theta and volatility sigma
evaluated at an independent Gamma clock Gamma_T with density

    alpha^T / Gamma(T) x^{T-1} e^{-alpha x},

so E[Gamma_T] = T / alpha. Conditioning on the clock reduces each option
to a Black-Scholes-like formula: with

    eta = log(1 - (theta + sigma^2/2) / alpha),
    d+ = (log(S/K) + (r - q + eta) T + (theta + sigma^2) g) / (sigma sqrt(g)),
    d- = (log(S/K) + (r - q + eta) T + theta g) / (sigma sqrt(g)),

the call price is

    S e^{(-q+eta) T} E[e^{(theta + sigma^2/2) Gamma_T} Phi(d+)]
        - K e^{-r T} E[Phi(d-)],

and the put swaps the signs of d+- and the order of the legs. The drift
correction eta exists only on the admissible domain

    theta + sigma^2 / 2 < alpha,

which is exactly where the Gamma moment generating function
E[e^{w Gamma_T}] = (1 - w/alpha)^{-T} is finite at the exponent the
price needs. The stronger condition 2 theta + sigma^2 < alpha makes the
discounted payoff square-integrable, which Monte Carlo standard errors
implicitly assume.

Both pricing routes average one integrand, the conditional price given
the clock. vg_price_quadrature applies the trapezoid rule in x =
log(clock) on a fixed grid to the integrand less its zero-clock limit
(the legs' intrinsic value, added back exactly); against the Gamma
density that remainder decays like e^{(T + 1/2) x} to the left and like
e^{-(alpha - w) e^x} to the right, with w = theta + sigma^2/2, so the
rule converges geometrically (Trefethen & Weideman, SIAM Review 2014),
even at the shortest maturities. vg_price_mc averages the integrand
over seeded clock draws. Adaptive quadrature remains only in
gamma_expectation, a test reference for moments.

Calibration runs Nelder-Mead on the sum of squared relative pricing
errors with an infinite penalty outside the domain. Distinct parameter
triples can price a sparse quote set almost identically, so treat fitted
parameters as a pricing device, not as identified quantities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gammaln, ndtr

from .errors import CalibrationFailure, DomainViolation, QuadratureFailure
from .market_data import OptionKind

# Quadrature budget and tolerances: the result must carry an error
# estimate within REL_TOL of itself (or the caller's absolute floor)
# after at most LIMIT adaptive subdivisions.
_REL_TOL = 1e-8
_EPSREL = 1e-10
_QUAD_LIMIT = 500

# Beyond this log clock value every term's exponent is hopelessly
# negative; short-circuiting also keeps power substitutions from
# overflowing on the quadrature's far probes.
_LOG_CLOCK_CUTOFF = 700.0

# Trapezoid grid in x = log(clock). Below -70 the integrand less its limit
# is O(e^-35) of the legs; the right end is where its exponent falls below
# -800. A step of 0.2 missed by 4e-10 relative at (-0.3, 0.15, 0.5), 3 years.
_LOG_CLOCK_STEP = 0.1
_LOG_CLOCK_MIN = -70.0
_TAIL_EXPONENT = 800.0

_DEFAULT_MC_PATHS = 10_000
_DEFAULT_INIT = (0.0, 0.3, 2.0)
_CALIBRATION_FATOL = 1e-10
_CALIBRATION_MAXITER = 2000


def vg_eta(theta: float, sigma: float, alpha: float) -> float:
    """Martingale drift correction log(1 - (theta + sigma^2/2)/alpha).

    Raises DomainViolation outside theta + sigma^2/2 < alpha (with
    sigma, alpha positive), where the correction is undefined."""
    if sigma <= 0.0:
        raise DomainViolation(f"sigma must be positive, got {sigma}")
    if alpha <= 0.0:
        raise DomainViolation(f"alpha must be positive, got {alpha}")
    w = theta + 0.5 * sigma * sigma
    if w >= alpha:
        raise DomainViolation(f"theta + sigma^2/2 = {w} must stay below alpha = {alpha}")
    return math.log1p(-w / alpha)


@dataclass(frozen=True)
class VgParams:
    """Admissible parameter triple with its drift correction."""

    theta: float
    sigma: float
    alpha: float
    eta: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "eta", vg_eta(self.theta, self.sigma, self.alpha))


def has_finite_variance(params: VgParams) -> bool:
    """Whether the discounted payoff is square-integrable
    (2 theta + sigma^2 < alpha)."""
    return 2.0 * params.theta + params.sigma * params.sigma < params.alpha


@dataclass(frozen=True)
class VgMcResult:
    price: float
    stderr: float
    n: int
    seed: int


def gamma_expectation(f: Callable[[float], float] | None, shape: float, rate: float,
                      abs_floor: float = 1e-12,
                      log_f: Callable[[float], float] | None = None) -> float:
    """E[f(X)] for X ~ Gamma(shape, rate) by adaptive quadrature.

    Pass log_f instead of f for integrands that grow exponentially (the
    moment generating function, say): the quadrature probes clock values
    far beyond the bulk, where only the log of the product is
    representable. Raises QuadratureFailure when the reported error
    exceeds max(1e-8 |result|, abs_floor) or the budget runs out.

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
    if len(result) > 3:
        raise QuadratureFailure(f"quadrature did not converge: {result[3]}")
    value, abserr = result[0], result[1]
    if abserr > max(_REL_TOL * abs(value), abs_floor):
        raise QuadratureFailure(
            f"quadrature error estimate {abserr} exceeds tolerance for value {value}"
        )
    return value


def _legs(kind: OptionKind, spot: float, strike: float, rate: float, dividend: float,
          tau: float, params: VgParams) -> tuple[float, float, float, float]:
    """(a, A, B, limit): log-forwardness, the two discounted legs, and the
    conditional price's limit at zero clock, the legs' intrinsic value.
    Raises ValueError unless spot, strike and tau are positive."""
    if spot <= 0.0 or strike <= 0.0:
        raise ValueError(f"spot and strike must be positive, got ({spot}, {strike})")
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    a = math.log(spot / strike) + (rate - dividend + params.eta) * tau
    leg_spot = spot * math.exp((-dividend + params.eta) * tau)
    leg_strike = strike * math.exp(-rate * tau)
    if kind is OptionKind.CALL:
        return a, leg_spot, leg_strike, max(leg_spot - leg_strike, 0.0)
    return a, leg_spot, leg_strike, max(leg_strike - leg_spot, 0.0)


def _conditional_price_vec(kind: OptionKind, spot: float, strike: float, rate: float,
                           dividend: float, tau: float, params: VgParams,
                           clocks: np.ndarray, log_weight=0.0) -> np.ndarray:
    """Conditional price at each clock times e^log_weight, the integrand of
    both pricing routes. The weight joins the growth factor's exponent, so
    a Gamma log-density cannot overflow against it; Monte Carlo passes 0."""
    a, leg_spot, leg_strike, zero_limit = _legs(kind, spot, strike, rate, dividend, tau, params)
    sigma = params.sigma
    growth = params.theta + 0.5 * sigma * sigma

    positive = clocks > 0.0
    g = np.where(positive, clocks, 1.0)
    scale = sigma * np.sqrt(g)
    d_plus = (a + (params.theta + sigma * sigma) * g) / scale
    d_minus = (a + params.theta * g) / scale
    weight = np.exp(log_weight)
    lift = np.exp(growth * g + log_weight)
    if kind is OptionKind.CALL:
        values = leg_spot * lift * ndtr(d_plus) - leg_strike * weight * ndtr(d_minus)
    else:
        values = leg_strike * weight * ndtr(-d_minus) - leg_spot * lift * ndtr(-d_plus)
    return np.where(positive, values, zero_limit * weight)


def vg_price_quadrature(kind: OptionKind, spot: float, strike: float, rate: float,
                        dividend: float, tau: float, params: VgParams) -> float:
    """Price by the trapezoid rule over the Gamma clock in x = log(clock).
    Deterministic; tiny negative rounding residue is clamped to zero."""
    zero_limit = _legs(kind, spot, strike, rate, dividend, tau, params)[3]
    alpha = params.alpha
    growth = params.theta + 0.5 * params.sigma * params.sigma
    x_max = math.log(_TAIL_EXPONENT / (alpha - max(growth, 0.0)))
    x = np.arange(_LOG_CLOCK_MIN, x_max, _LOG_CLOCK_STEP)
    clocks = np.exp(x)
    log_density = tau * math.log(alpha) - gammaln(tau) + tau * x - alpha * clocks
    values = _conditional_price_vec(kind, spot, strike, rate, dividend, tau, params,
                                    clocks, log_density)
    # Less its zero-clock limit the integrand vanishes at both ends, so the
    # trapezoid rule is a plain sum; the limit integrates to itself.
    remainder = float(np.sum(values - zero_limit * np.exp(log_density)))
    return max(zero_limit + _LOG_CLOCK_STEP * remainder, 0.0)


def vg_price_mc(kind: OptionKind, spot: float, strike: float, rate: float,
                dividend: float, tau: float, params: VgParams,
                n: int = _DEFAULT_MC_PATHS, seed: int = 0) -> VgMcResult:
    """Monte Carlo average of the conditional-price integrand over seeded
    Gamma clock draws, with the n-1 sample standard error.

    Identical (seed, n) reproduce the result bit for bit. Warns when
    2 theta + sigma^2 >= alpha, where the payoff variance backing the
    standard error is not finite.
    """
    if n < 2:
        raise ValueError(f"need at least two paths, got {n}")
    if not has_finite_variance(params):
        warnings.warn(
            "2 theta + sigma^2 >= alpha: payoff variance is infinite and the "
            "reported standard error is unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    clocks = rng.gamma(shape=tau, scale=1.0 / params.alpha, size=n)
    values = _conditional_price_vec(kind, spot, strike, rate, dividend, tau, params, clocks)
    price = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n))
    return VgMcResult(price=price, stderr=stderr, n=n, seed=seed)


def vg_calibrate(
    quotes: Sequence[tuple[float, float, float]],
    kind: OptionKind,
    spot: float,
    rate: float,
    dividend: float,
    init: tuple[float, float, float] = _DEFAULT_INIT,
) -> tuple[VgParams, float]:
    """Fit (theta, sigma, alpha) to (strike, tau, price) triples.

    Minimizes sum |(model - price)/price|^2 with Nelder-Mead from the
    given start, scoring inadmissible triples +inf so the simplex stays
    inside the domain. Deterministic given the start. Returns the
    fitted parameters and the attained objective.

    Raises CalibrationFailure if the simplex stalls before reaching the
    1e-10 objective spread within 2000 iterations, and ValueError on an
    inadmissible start or non-positive quoted prices.
    """
    if not quotes:
        raise ValueError("at least one quote required")
    if any(p <= 0.0 for _, _, p in quotes):
        raise ValueError("quoted prices must be positive for relative errors")
    try:
        vg_eta(*init)
    except DomainViolation as exc:
        raise ValueError(f"inadmissible start {init}: {exc}") from None

    def objective(x: np.ndarray) -> float:
        theta, sigma, alpha = float(x[0]), float(x[1]), float(x[2])
        if sigma <= 0.0 or alpha <= 0.0 or theta + 0.5 * sigma * sigma >= alpha:
            return float("inf")
        params = VgParams(theta, sigma, alpha)
        total = 0.0
        for strike, tau, price in quotes:
            model = vg_price_quadrature(kind, spot, strike, rate, dividend, tau, params)
            ratio = (model - price) / price
            total += ratio * ratio
        return total

    result = minimize(
        objective,
        x0=np.asarray(init, dtype=float),
        method="Nelder-Mead",
        options={
            "maxiter": _CALIBRATION_MAXITER,
            "maxfev": 2 * _CALIBRATION_MAXITER,
            "fatol": _CALIBRATION_FATOL,
            # fatol alone can trip while the simplex is still coarse;
            # requiring a collapsed simplex keeps refining inside the
            # basin instead of stopping at the first flat spot.
            "xatol": 1e-9,
        },
    )
    if not result.success:
        raise CalibrationFailure(f"calibration stalled: {result.message}")
    theta, sigma, alpha = (float(v) for v in result.x)
    return VgParams(theta, sigma, alpha), float(result.fun)
