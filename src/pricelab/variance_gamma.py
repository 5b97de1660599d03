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

Both averages call one integrand, _integrand, the conditional price
given the clock. The trapezoid rule (_Options.prices) applies it in x =
log(clock) on a fixed grid, less its zero-clock limit (the legs'
intrinsic value, added back exactly); against the Gamma density that
remainder decays like e^{(T + 1/2) x} to the left and like
e^{-(alpha - w) e^x} to the right, with w = theta + sigma^2/2, so the
rule converges geometrically (Trefethen & Weideman, SIAM Review 2014),
even at the shortest maturities. The nodes depend only on the
parameters, so the rule prices any mix of maturities as (options x
nodes) arrays: a day's quotes in calibration, one option in
vg_price_quadrature. vg_price_mc calls it on seeded draws, as drawn.

What the options and the grid fix is built once per set of options, and
once per fit in calibration (at alpha = 1): per option log(S/K),
K e^{-r T} and its maturity row; the log-clock nodes and clocks; each
maturity's Gamma log-density and density; per option its density and
K e^{-r T} times it. A step computes only what (theta, sigma) changes:
eta, each maturity's drift and spot leg, the options' log-forwardness,
spot legs and limits, each maturity's lift e^{w g} times the density,
and d+- and ndtr past the saturated prefix (below). When a step needs
more nodes the grid is built anew, longer. numpy's arange fills node i
with start + i * delta whatever the stop, so a shorter grid is bit for
bit a prefix of a longer one, and no price depends on the steps before.

Away from the forward, |d+-| grows like |log-forwardness| / (sigma
sqrt(clock)) as the clock falls, and scipy's ndtr is exactly 1.0 or 0.0
wherever |d| >= 38 (a test pins this). A closed-form bound gives the
grid's leading clocks on which every row's |d| is at least 38, with the
sign of its log-forwardness, which gives ndtr's value there: the
integrand is the difference of the legs or an exact 0, with no ndtr, d+-
or product computed. On perfbench's VG days that skips about three
quarters of the grid's nodes, all but two of those it could. The values
taken are ndtr's own bits, in every row, so no price moves; where a leg
is not finite, the 0 would not be 0 times the leg, so ndtr is then
called on every clock, as on Monte Carlo's unsorted draws.

Prices depend on the triple only through theta/alpha and sigma^2/alpha:
(c theta, c sigma^2, c alpha) rescales the clock by 1/c and the
conditional variance by c, which leaves the law of the log-price
unchanged. Only two parameters are identified, as in Madan, Carr & Chang
(European Finance Review 1998), who fix the clock's variance rate. So
calibration runs Nelder-Mead over the two coordinates (theta/alpha,
sigma/sqrt(alpha)) of the alpha = 1 triple, on the sum of squared
relative pricing errors with an infinite penalty outside the domain, from
one fixed start, and returns the same law at alpha = 2. The simplex is
pricelab's own (simplex.nelder_mead), with scipy's iterates bit for bit.
Distinct pairs can still price a sparse quote set almost identically, so
treat fitted parameters as a pricing device.
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
# Past this maturity tau * _LOG_CLOCK_MIN, in the Gamma log-density, overflows.
_TAU_MAX = np.finfo(float).max / -_LOG_CLOCK_MIN

# scipy's ndtr is exactly 1.0 at and beyond this argument, and 0.0 at and
# beyond its negative; at -37.6 it is still a subnormal, 1.07e-309.
_NDTR_SATURATED = 38.0
_PREFIX_BOUND = 40.0
_SIGMA_FLOOR = np.finfo(float).tiny / math.sqrt(math.ulp(0.0))

# Options are priced in blocks of at most this many (option, node) pairs,
# so that each float64 work array stays under 128 KiB, glibc's default mmap
# threshold. Larger temporaries page-fault afresh on every evaluation: on a
# 2-CPU Xeon a day of 197 puts fitted in 1.18 s as one array, 0.74 s in
# blocks. A block's two work arrays are allocated with the grid and reused.
_BLOCK_PAIRS = 12_288

_DEFAULT_MC_PATHS = 10_000
_START = (0.0, 0.3, 2.0)  # calibration's one (theta, sigma, alpha); the fit keeps its alpha
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


def _node_count(x_max: float) -> int:
    """Length of np.arange(_LOG_CLOCK_MIN, x_max, _LOG_CLOCK_STEP), which
    numpy takes as the ceiling of (stop - start) / step."""
    return max(0, math.ceil((x_max - _LOG_CLOCK_MIN) / _LOG_CLOCK_STEP))


class _Options:
    """Options of one kind on one underlying at strikes[i] and
    maturities[rows[i]], with the terms of their trapezoid prices that no
    (theta, sigma) changes at this alpha (see the module docstring). The
    grid is built by the first price and anew, longer, when parameters
    need more nodes; shorter grids are its prefix views. Raises ValueError
    unless spot, strikes and maturities are positive (OverflowError past
    _TAU_MAX)."""

    def __init__(self, kind: OptionKind, spot: float, strikes: Sequence[float], rate: float,
                 dividend: float, maturities: Sequence[float], rows, alpha: float):
        for strike in strikes:
            if spot <= 0.0 or strike <= 0.0:
                raise ValueError(f"spot and strike must be positive, got ({spot}, {strike})")
        for tau in maturities:
            if tau <= 0.0:
                raise ValueError(f"tau must be positive, got {tau}")
            if tau > _TAU_MAX:
                raise OverflowError(f"tau {tau} is past the Gamma density's float range")
        self.kind, self.spot, self.rate, self.dividend = kind, spot, rate, dividend
        self.maturities, self.rows, self.alpha = list(maturities), np.asarray(rows), alpha
        self.taus = np.array(self.maturities, dtype=float)
        self.log_moneyness = np.array([math.log(spot / k) for k in strikes])
        self.strike_legs = np.array([k * math.exp(-rate * self.maturities[r])
                                     for k, r in zip(strikes, self.rows)])
        self.clocks = np.empty(0)

    def _grow(self, x_max: float) -> None:
        x = np.arange(_LOG_CLOCK_MIN, x_max, _LOG_CLOCK_STEP)
        self.clocks = np.exp(x)
        alpha, taus = self.alpha, self.taus[:, None]
        self.log_density = (taus * math.log(alpha) - gammaln(taus) + taus * x
                            - alpha * self.clocks)
        self.row_density = np.exp(self.log_density)[self.rows]
        self.strike_density = self.strike_legs[:, None] * self.row_density
        self.strike_density_finite = bool(np.isfinite(self.strike_density).all())
        # One block's two (options x nodes) work arrays, reused by every step.
        size = min(len(self.rows) * x.size, max(_BLOCK_PAIRS, x.size))
        self._values, self._spot_lift = np.empty(size), np.empty(size)

    def legs(self, params: VgParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(a, A, B, limit) per option: log-forwardness, the two discounted
        legs, and the conditional price's limit at zero clock, the legs'
        intrinsic value. Each maturity's drift and spot leg are computed
        once, as the scalar arithmetic of a lone option would, and spread
        to its options."""
        drift = (self.rate - self.dividend + params.eta) * self.taus
        spot_legs = np.array([self.spot * math.exp((-self.dividend + params.eta) * tau)
                              for tau in self.maturities])
        a = self.log_moneyness + drift[self.rows]
        leg_spot = spot_legs[self.rows]
        if self.kind is OptionKind.CALL:
            return a, leg_spot, self.strike_legs, np.maximum(leg_spot - self.strike_legs, 0.0)
        return a, leg_spot, self.strike_legs, np.maximum(self.strike_legs - leg_spot, 0.0)

    def prices(self, params: VgParams) -> np.ndarray:
        """Trapezoid prices over the Gamma clock in x = log(clock), in blocks
        of (options x nodes) arrays. Each row is computed as a lone
        option's would be, so no price depends on the others."""
        growth = params.theta + 0.5 * params.sigma * params.sigma
        x_max = math.log(_TAIL_EXPONENT / (self.alpha - max(growth, 0.0)))
        n = _node_count(x_max)
        if not n:  # an alpha so large that the grid holds no node: the clock is 0
            return self.legs(params)[3]
        if n > self.clocks.size:
            self._grow(x_max)
        a, leg_spot, _, limit = self.legs(params)
        g = self.clocks[:n]
        lift = np.exp(growth * g + self.log_density[:, :n])
        # The prefix's exact 0 needs finite legs; the largest spot leg times
        # the largest lift bounds every SL.
        legs_finite = (self.strike_density_finite
                       and math.isfinite(float(leg_spot.max()) * float(lift.max())))
        block = max(1, _BLOCK_PAIRS // n)
        remainder = np.empty(len(a))
        for start in range(0, len(a), block):
            part = slice(start, start + block)
            rows, column = self.rows[part], a[part, None]
            values = self._values[:rows.size * n].reshape(rows.size, n)
            spot_lift = self._spot_lift[:rows.size * n].reshape(rows.size, n)
            # mode="raise" would fill a buffer and copy it; the rows are in range.
            np.take(lift, rows, axis=0, out=spot_lift, mode="clip")
            np.multiply(spot_lift, leg_spot[part, None], out=spot_lift)
            cut = _saturated_prefix(column, params, g) if legs_finite else 0
            _integrand(self.kind, column, spot_lift, self.strike_density[part, :n], params, g,
                       cut, values)
            # Less its zero-clock limit the integrand vanishes at both ends, so
            # the trapezoid rule is a plain sum; the limit integrates to itself.
            np.multiply(limit[part, None], self.row_density[part, :n], out=spot_lift)
            np.subtract(values, spot_lift, out=values)
            np.add.reduce(values, axis=1, out=remainder[part])
        return np.maximum(limit + _LOG_CLOCK_STEP * remainder, 0.0)


def _saturated_prefix(a, params: VgParams, g: np.ndarray) -> int:
    """Number of leading grid clocks g at which every row's |d+-| is at least
    _NDTR_SATURATED, with the sign of its log-forwardness a: those below
    the root of c g + _PREFIX_BOUND sigma sqrt(g) = min |a|, since |d+-|
    >= (|a| - c g) / (sigma sqrt(g)) with c = max(|theta + sigma^2|,
    |theta|). c widened by 2^-20 and a bound 5% above the saturation keep
    the rounding of d and of the root inside; below _SIGMA_FLOOR, sigma
    sqrt(g) can be subnormal. A zero or NaN a gives no prefix."""
    sigma = params.sigma
    if sigma < _SIGMA_FLOOR:
        return 0
    reach = float(np.abs(a).min())
    c = max(abs(params.theta + sigma * sigma), abs(params.theta)) * (1.0 + 2.0 ** -20)
    b = _PREFIX_BOUND * sigma
    root = 2.0 * reach / (b + math.hypot(b, 2.0 * math.sqrt(c) * math.sqrt(reach)))
    below = g < root * root
    return below.size if below.all() else int(below.argmin())


def _integrand(kind: OptionKind, a: np.ndarray, spot_lift: np.ndarray,
               strike_weight: np.ndarray, params: VgParams, g: np.ndarray, cut: int,
               values: np.ndarray) -> None:
    """The conditional price at positive clocks g, written to values (rows
    x clocks): SL Phi(d+) - KW Phi(d-) for a call, KW Phi(-d-) - SL Phi(-d+)
    for a put, given each row's log-forwardness a (a column) and its two
    weighted legs SL and KW (KW may be a column). spot_lift's columns from
    the cut on are overwritten.

    The first cut clocks must lie on the grid's saturated prefix, with both
    legs finite there; a cut of 0 takes clocks in any order. ndtr is exactly
    1.0 or 0.0 on it, so the sign of a gives the value, KW - SL (SL - KW for
    a call) or an exact 0, which is KW 0 - SL 0 for finite legs; d+- and
    ndtr are computed only from the cut on."""
    call = kind is OptionKind.CALL
    if cut:
        head = values[:, :cut]
        if call:
            np.subtract(spot_lift[:, :cut], strike_weight[:, :cut], out=head)
            head[a[:, 0] < 0.0] = 0.0
        else:
            np.subtract(strike_weight[:, :cut], spot_lift[:, :cut], out=head)
            head[a[:, 0] > 0.0] = 0.0
    sigma, tail = params.sigma, g[cut:]
    scale = sigma * np.sqrt(tail)
    if not call:
        # ndtr(-d) for a put: the numerator over -scale is -d to the bit.
        np.negative(scale, out=scale)
    # The spot leg's term is made in values; the strike leg's then in
    # spot_lift, whose tail it no longer needs.
    spot_term, strike_term = values[:, cut:], spot_lift[:, cut:]
    # A d+- that overflows (subnormal sigma sqrt(g)) has the exact ndtr 0 or 1.
    with np.errstate(over="ignore"):
        np.add(a, (params.theta + sigma * sigma) * tail, out=spot_term)
        np.divide(spot_term, scale, out=spot_term)
        ndtr(spot_term, out=spot_term)
        np.multiply(strike_term, spot_term, out=spot_term)
        np.add(a, params.theta * tail, out=strike_term)
        np.divide(strike_term, scale, out=strike_term)
        ndtr(strike_term, out=strike_term)
    np.multiply(strike_weight[:, cut:], strike_term, out=strike_term)
    if call:
        np.subtract(spot_term, strike_term, out=spot_term)
    else:
        np.subtract(strike_term, spot_term, out=spot_term)


def vg_price_quadrature(kind: OptionKind, spot: float, strike: float, rate: float,
                        dividend: float, tau: float, params: VgParams) -> float:
    """Price by the trapezoid rule over the Gamma clock in x = log(clock).
    Deterministic; tiny negative rounding residue is clamped to zero."""
    return float(_Options(kind, spot, (strike,), rate, dividend, (tau,), [0],
                          params.alpha).prices(params)[0])


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
    a, leg_spot, leg_strike, limit = _Options(kind, spot, (strike,), rate, dividend, (tau,), [0],
                                              params.alpha).legs(params)
    if not has_finite_variance(params):
        warnings.warn(
            "2 theta + sigma^2 >= alpha: payoff variance is infinite and the "
            "reported standard error is unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    clocks = rng.gamma(shape=tau, scale=1.0 / params.alpha, size=n)
    # ndtr on every clock, in the order drawn; a zero clock takes the limit.
    positive = clocks > 0.0
    g = np.where(positive, clocks, 1.0)
    spot_lift = leg_spot[:, None] * np.exp((params.theta + 0.5 * params.sigma * params.sigma) * g)
    values = np.empty(spot_lift.shape)
    _integrand(kind, a[:, None], spot_lift, leg_strike[:, None], params, g, 0, values)
    values = np.where(positive, values[0], limit)
    price = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n))
    return VgMcResult(price=price, stderr=stderr)


def vg_calibrate(
    quotes: Sequence[tuple[float, float, float]],
    kind: OptionKind,
    spot: float,
    rate: float,
    dividend: float,
    meta: dict | None = None,
) -> tuple[VgParams, float]:
    """Fit (theta, sigma, alpha) to (strike, tau, price) triples.

    Minimizes sum |(model - price)/price|^2 with Nelder-Mead over the two
    identified coordinates (theta/alpha, sigma/sqrt(alpha)), pricing the
    alpha = 1 triple and scoring inadmissible points +inf so the simplex
    stays inside the domain. The quotes are grouped by tau, and what they
    and the clock grid fix is built once. Each evaluation prices all of
    them: as one array up to about 16 quotes, in blocks of that many on
    larger days. Deterministic: the search starts at (theta, sigma, alpha)
    = (0, 0.3, 2). Returns the fitted law at alpha = 2, and the attained
    objective. Given a meta dict, it records the simplex's evaluations and
    whether it converged, before any CalibrationFailure.

    Raises CalibrationFailure if the simplex stalls before reaching the
    1e-10 objective spread within 2000 iterations, and ValueError on no
    quotes or non-positive quoted prices.
    """
    if not quotes:
        raise ValueError("at least one quote required")
    if any(p <= 0.0 for _, _, p in quotes):
        raise ValueError("quoted prices must be positive for relative errors")

    # The quotes by maturity in first-seen order; each maturity's errors are
    # summed by one dot product.
    maturities = list(dict.fromkeys(tau for _, tau, _ in quotes))
    row_of = {tau: row for row, tau in enumerate(maturities)}
    rows, strikes, prices = zip(*sorted(((row_of[tau], strike, price)
                                         for strike, tau, price in quotes), key=lambda q: q[0]))
    rows, prices = np.array(rows), np.array(prices)
    ends = np.cumsum(np.bincount(rows)).tolist()
    parts = [slice(start, end) for start, end in zip([0] + ends[:-1], ends)]
    options = _Options(kind, spot, strikes, rate, dividend, maturities, rows, 1.0)

    def objective(theta: float, sigma: float) -> float:
        if sigma <= 0.0 or theta + 0.5 * sigma * sigma >= 1.0:
            return float("inf")
        model = options.prices(VgParams(theta, sigma, 1.0))
        ratios = (model - prices) / prices
        return sum(float(ratios[part] @ ratios[part]) for part in parts)

    theta0, sigma0, alpha0 = _START
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
