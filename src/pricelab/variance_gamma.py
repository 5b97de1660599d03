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
even at the shortest maturities. The nodes depend only on the
parameters, so the rule prices any mix of maturities as one (options x
nodes) array, a day's quotes in calibration and one option as the
one-row case. vg_price_mc averages the integrand over seeded draws.

Away from the forward, |d+-| grows like |log-forwardness| / (sigma
sqrt(clock)) as the clock falls, and scipy's ndtr is exactly 1.0 or 0.0
wherever |d| >= 38 (a test pins this). A closed-form bound gives the
leading clocks on which every row's |d| is at least 38, with the sign
of its log-forwardness, which gives ndtr's value there; d+- and ndtr
are computed only after them. On perfbench's VG days that skips about
three quarters of the grid's nodes, all but two of those it could. The
values taken are ndtr's own bits, in every row and whatever the order
of the clocks, so no price moves.

Prices depend on the triple only through theta/alpha and sigma^2/alpha:
(c theta, c sigma^2, c alpha) rescales the clock by 1/c and the
conditional variance by c, which leaves the law of the log-price
unchanged. Only two parameters are identified, as in Madan, Carr & Chang
(European Finance Review 1998), who fix the clock's variance rate. So
calibration runs Nelder-Mead over the two coordinates (theta/alpha,
sigma/sqrt(alpha)) of the alpha = 1 triple, on the sum of squared
relative pricing errors with an infinite penalty outside the domain, and
returns the same law at the starting alpha. The simplex is pricelab's
own (simplex.nelder_mead), with scipy's iterates bit for bit. Distinct
pairs can still price a sparse quote set almost identically, so treat
fitted parameters as a pricing device.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import gammaln, ndtr

from .errors import CalibrationFailure, DomainViolation
from .market_data import OptionKind
from .simplex import nelder_mead

# Trapezoid grid in x = log(clock). Below -70 the integrand less its limit
# is O(e^-35) of the legs; the right end is where its exponent falls below
# -800. A step of 0.2 missed by 4e-10 relative at (-0.3, 0.15, 0.5), 3 years.
_LOG_CLOCK_STEP = 0.1
_LOG_CLOCK_MIN = -70.0
_TAIL_EXPONENT = 800.0

# scipy's ndtr is exactly 1.0 at and beyond this argument, and 0.0 at and
# beyond its negative; at -37.6 it is still a subnormal, 1.07e-309.
_NDTR_SATURATED = 38.0
_PREFIX_BOUND = 40.0
_SIGMA_FLOOR = np.finfo(float).tiny / math.sqrt(math.ulp(0.0))

# Options are priced in blocks of at most this many (option, node) pairs,
# so that each float64 temporary stays under 128 KiB, glibc's default mmap
# threshold. Larger ones page-fault afresh on every evaluation: on a 2-CPU
# Xeon a day of 197 puts fitted in 1.18 s as one array, 0.74 s in blocks.
_BLOCK_PAIRS = 12_288

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


def _saturated_prefix(a, params: VgParams, g: np.ndarray) -> int:
    """Number of leading clocks g at which every row's |d+-| is at least
    _NDTR_SATURATED, with the sign of its log-forwardness a: those below
    the root of c g + _PREFIX_BOUND sigma sqrt(g) = min |a|, since |d+-|
    >= (|a| - c g) / (sigma sqrt(g)) with c = max(|theta + sigma^2|,
    |theta|). c widened by 2^-20 and a bound 5% above the saturation keep
    the rounding of d and of the root inside; below _SIGMA_FLOOR, sigma
    sqrt(g) can be subnormal. A zero or NaN a gives no prefix."""
    sigma = params.sigma
    if sigma < _SIGMA_FLOOR:
        return 0
    reach = float(np.min(np.abs(a)))
    c = max(abs(params.theta + sigma * sigma), abs(params.theta)) * (1.0 + 2.0 ** -20)
    b = _PREFIX_BOUND * sigma
    root = 2.0 * reach / (b + math.hypot(b, 2.0 * math.sqrt(c) * math.sqrt(reach)))
    below = g < root * root
    return below.size if below.all() else int(below.argmin())


def _conditional_price_vec(kind: OptionKind, legs, params: VgParams, clocks: np.ndarray,
                           log_weight=0.0, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Conditional price at each clock times e^log_weight, the integrand of
    both pricing routes, given _legs of one strike or their strike columns
    (which broadcast against the clocks); returned with e^log_weight. The
    weight joins the growth factor's exponent, so a Gamma log-density
    cannot overflow against it; Monte Carlo passes 0. Given rows, log_weight
    has one row per maturity, spread to the strike columns after the exp."""
    a, leg_spot, leg_strike, zero_limit = legs
    sigma = params.sigma
    growth = params.theta + 0.5 * sigma * sigma

    positive = clocks > 0.0
    every_clock_positive = positive.all()
    g = clocks if every_clock_positive else np.where(positive, clocks, 1.0)
    weight = np.exp(log_weight)
    lift = np.exp(growth * g + log_weight)
    if rows is not None:
        weight, lift = weight[rows], lift[rows]
    # ndtr is exactly 1.0 or 0.0 on the saturated prefix, so the sign of a
    # gives its bits there and d+- are computed only from the cut on.
    cut = _saturated_prefix(a, params, g)
    tail = g[cut:]
    scale = sigma * np.sqrt(tail)
    d_plus = (a + (params.theta + sigma * sigma) * tail) / scale
    d_minus = (a + params.theta * tail) / scale

    def cdf(prefix, d):
        out = np.empty(np.broadcast_shapes(np.shape(a), g.shape))
        out[..., :cut] = prefix
        ndtr(d, out=out[..., cut:])
        return out

    if kind is OptionKind.CALL:
        values = (leg_spot * lift * cdf(a > 0.0, d_plus)
                  - leg_strike * weight * cdf(a > 0.0, d_minus))
    else:
        values = (leg_strike * weight * cdf(a < 0.0, -d_minus)
                  - leg_spot * lift * cdf(a < 0.0, -d_plus))
    if not every_clock_positive:
        values = np.where(positive, values, zero_limit * weight)
    return values, weight


def _trapezoid_prices(kind: OptionKind, spot: float, strikes: Sequence[float], rate: float,
                      dividend: float, maturities: Sequence[float],
                      rows: np.ndarray | list[int], params: VgParams) -> np.ndarray:
    """Trapezoid prices over the Gamma clock in x = log(clock) of options at
    strikes[i] and maturities[rows[i]], in (options x nodes) arrays with
    the Gamma density computed once per maturity. Each row is computed as
    a lone option's would be, so no price depends on the others."""
    legs = np.array([_legs(kind, spot, k, rate, dividend, maturities[r], params)
                     for k, r in zip(strikes, rows)])
    columns = legs.T[:, :, None]
    alpha = params.alpha
    growth = params.theta + 0.5 * params.sigma * params.sigma
    x_max = math.log(_TAIL_EXPONENT / (alpha - max(growth, 0.0)))
    x = np.arange(_LOG_CLOCK_MIN, x_max, _LOG_CLOCK_STEP)
    clocks = np.exp(x)
    taus = np.array(maturities)[:, None]
    log_density = taus * math.log(alpha) - gammaln(taus) + taus * x - alpha * clocks
    block = max(1, _BLOCK_PAIRS // x.size)
    remainder = np.empty(len(legs))
    for start in range(0, len(legs), block):
        part = slice(start, start + block)
        values, density = _conditional_price_vec(kind, columns[:, part], params, clocks,
                                                 log_density, rows[part])
        # Less its zero-clock limit the integrand vanishes at both ends, so
        # the trapezoid rule is a plain sum; the limit integrates to itself.
        remainder[part] = np.sum(values - columns[3, part] * density, axis=1)
    return np.maximum(legs[:, 3] + _LOG_CLOCK_STEP * remainder, 0.0)


def vg_price_quadrature(kind: OptionKind, spot: float, strike: float, rate: float,
                        dividend: float, tau: float, params: VgParams) -> float:
    """Price by the trapezoid rule over the Gamma clock in x = log(clock).
    Deterministic; tiny negative rounding residue is clamped to zero."""
    return float(_trapezoid_prices(kind, spot, (strike,), rate, dividend, (tau,), [0],
                                   params)[0])


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
    legs = _legs(kind, spot, strike, rate, dividend, tau, params)
    if not has_finite_variance(params):
        warnings.warn(
            "2 theta + sigma^2 >= alpha: payoff variance is infinite and the "
            "reported standard error is unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    clocks = rng.gamma(shape=tau, scale=1.0 / params.alpha, size=n)
    values, _ = _conditional_price_vec(kind, legs, params, clocks)
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
    meta: dict | None = None,
) -> tuple[VgParams, float]:
    """Fit (theta, sigma, alpha) to (strike, tau, price) triples.

    Minimizes sum |(model - price)/price|^2 with Nelder-Mead over the two
    identified coordinates (theta/alpha, sigma/sqrt(alpha)), pricing the
    alpha = 1 triple and scoring inadmissible points +inf so the simplex
    stays inside the domain. The quotes are grouped by tau once, and each
    evaluation prices all of them in one array. Deterministic given the
    start. Returns the fitted law at the start's alpha, and the attained
    objective. Given a meta dict, it records the simplex's evaluations
    and whether it converged, before any CalibrationFailure.

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

    # The quotes by maturity in first-seen order; each maturity's errors are
    # summed by one dot product.
    maturities = list(dict.fromkeys(tau for _, tau, _ in quotes))
    row_of = {tau: row for row, tau in enumerate(maturities)}
    rows, strikes, prices = zip(*sorted(((row_of[tau], strike, price)
                                         for strike, tau, price in quotes), key=lambda q: q[0]))
    rows, prices = np.array(rows), np.array(prices)
    ends = np.cumsum(np.bincount(rows)).tolist()
    parts = [slice(start, end) for start, end in zip([0] + ends[:-1], ends)]

    def objective(theta: float, sigma: float) -> float:
        if sigma <= 0.0 or theta + 0.5 * sigma * sigma >= 1.0:
            return float("inf")
        params = VgParams(theta, sigma, 1.0)
        model = _trapezoid_prices(kind, spot, strikes, rate, dividend, maturities, rows, params)
        ratios = (model - prices) / prices
        return sum(float(ratios[part] @ ratios[part]) for part in parts)

    theta0, sigma0, alpha0 = init
    # A quoted price near the float floor can send its relative error past
    # the float range: the objective is then +inf, which the search already
    # treats as the worst point, so the overflow is not a fault to warn about.
    with np.errstate(over="ignore"):
        # fatol alone can trip while the simplex is still coarse; requiring
        # a collapsed simplex (xatol) keeps refining inside the basin instead
        # of stopping at the first flat spot.
        result = nelder_mead(objective, (theta0 / alpha0, sigma0 / math.sqrt(alpha0)),
                             xatol=1e-9, fatol=_CALIBRATION_FATOL,
                             maxiter=_CALIBRATION_MAXITER, maxfev=2 * _CALIBRATION_MAXITER)
    if meta is not None:
        meta.update(evaluations=result.nfev, converged=result.status == 0)
    if result.status != 0:
        raise CalibrationFailure(f"calibration stalled: {result.message}")
    theta, sigma = result.x
    return VgParams(alpha0 * theta, math.sqrt(alpha0) * sigma, alpha0), result.fun
