"""Reference computations that only the tests use.

implied_vol_brentq is the package's former scalar inversion: scipy's
brentq on one quote, then one Newton polish. The array solver in
black_scholes must agree with it.

gamma_expectation is adaptive quadrature over the Gamma clock, an
oracle independent of the package's log-clock trapezoid rule.
vg_conditional_price is the VG integrand as it was before the package
skipped ndtr where ndtr is exactly 0.0 or 1.0: ndtr on every clock
column, and both np.where passes whatever the clocks. vg_maturity_prices
is one maturity's trapezoid on it, and vg_mc_price its Monte Carlo
average. The package's prices and standard errors must have their bits.
vg_calibration_objective is the VG calibration's objective as it was
before one array priced all of a day's quotes: vg_maturity_prices per
maturity in first-seen order, one dot product of each maturity's
relative errors, summed in a Python float. The calibration must take
the simplex steps it takes, bit for bit.

nw_estimate and _cv_objective are the kernel module's straightforward
forms: every weight from np.exp, the weight sum from logsumexp, the CV
matrix built whole for each evaluation, and the Gaussian normalization
from the logs of its factors when their product leaves the float range.
The package's forms must match them bit for bit. cv_objective_at is not
an oracle: it evaluates the package's own kernel._cv_objective at given
bandwidths, so tests can compare the bandwidths two selectors chose.
cv_grid(points, values) is the grid stage of the bandwidth search by
brute force: the exact objective (kernel._cv_objective) at each of the
225 candidates in grid order. kernel._cv_grid screens the grid and
scores exactly only the candidates the screen cannot rule out, and must
return the same (best, score) bit for bit.

nelder_mead(objective, x0, ...) is scipy's minimize(method="Nelder-Mead"),
which the package's searches called before simplex.nelder_mead replaced
it; it returns the same SimplexResult fields, which must match bit for
bit.

filter_liquidity, of_kind, trim_mask, fill_implied_vols and atm_pairs
are the chain operations as they were defined on OptionQuote records,
one record at a time, before chains became columns. They return records
(the filters), a mask, (vols, NaN count) and {tau: [(strike, call mid,
put mid), ...]}; the column forms must give the same records and the
same bits.
dividend_knots is estimate_dividend_curve on the records: np.median
over each maturity's estimates from atm_pairs; the curve's knots must
have its bits.

merge_duplicates(points, values) is the surface module's former merge,
one np.all per point and one mask per group, on an (n, 2) array of points
and n values; it returns the merged (points, values). The package's
one-pass walk (_merge_groups, _group_means) must give the same points and
bit-identical values. ScipyLinearInterpolator(points, values) is the
former hull interpolant: scipy's LinearNDInterpolator for values and
Delaunay.find_simplex for membership, over the same merged points. The
package's point location must agree with it on every in/out decision and
to rounding on values.

raw_normalized_domain is the surface module's former hull test of the
kernel and VG labels: point location over the raw points, duplicates and
all, or, when they are collinear, the segment (_Line) of the points as
merge_duplicates merges them. The package now tests every label's hull
on the merged points, and the two must agree.

chain_file_error(path) is the chain loader's former row-by-row check:
the rows in file order, each row's checks in their order, and each day's
environment its first good row's. It returns the ChainParseError of the
first row that fails, or None; load_chains must raise the same line and
message, whatever its block size. itm_parity_records is the parity audit
and cross_date_report the cross-date report as they were defined on
OptionQuote records, each with its own dict of the last quote of each
contract, and the column forms must give the same records, Python types
included.
"""

import csv
import datetime as dt
import math
import warnings
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import LinearNDInterpolator
from scipy.optimize import brentq, minimize
from scipy.spatial import Delaunay
from scipy.special import gammaln, logsumexp, ndtr

from pricelab.black_scholes import (
    _PRICE_TOL,
    _VOL_HI,
    _VOL_HI_MAX,
    _VOL_LO,
    _price,
    _validate,
    implied_vols,
    no_arbitrage_band,
    vega,
)
from pricelab.errors import (ChainParseError, DegenerateGeometry, NoArbitrageViolation,
                             NoConvergence, NumericalUnderflow)
from pricelab.kernel import (_CV_GRID_DECADES, _CV_GRID_SIZE, Bandwidths, NwModel, _cv_inputs,
                             silverman_bandwidths)
from pricelab.kernel import _cv_objective as _package_cv_objective
from pricelab.market_data import DailyChain, OptionKind
from pricelab.harness import DEFAULT_SPOT_TOLERANCE, CrossDateMatch
from pricelab.parity import (DividendCurve, Moneyness, classify_moneyness, implied_dividend,
                             parity_price)
from pricelab.reporting import ErrorStatus, PricingError
from pricelab.simplex import SimplexResult
from pricelab.surface import _DUPLICATE_TOL, OUTSIDE_HULL, _Line, _Triangles
from pricelab.variance_gamma import _LOG_CLOCK_MIN, _LOG_CLOCK_STEP, _TAIL_EXPONENT, VgParams

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


def vg_legs(kind: OptionKind, spot: float, strike: float, rate: float, dividend: float,
            tau: float, params: VgParams) -> tuple[float, float, float, float]:
    """(a, A, B, limit) of one option in scalar arithmetic: log-forwardness,
    the two discounted legs, and the conditional price's limit at zero
    clock, the legs' intrinsic value."""
    a = math.log(spot / strike) + (rate - dividend + params.eta) * tau
    leg_spot = spot * math.exp((-dividend + params.eta) * tau)
    leg_strike = strike * math.exp(-rate * tau)
    if kind is OptionKind.CALL:
        return a, leg_spot, leg_strike, max(leg_spot - leg_strike, 0.0)
    return a, leg_spot, leg_strike, max(leg_strike - leg_spot, 0.0)


def vg_conditional_price(kind: OptionKind, legs, params: VgParams, clocks: np.ndarray,
                         log_weight=0.0) -> np.ndarray:
    """Conditional price at each clock times e^log_weight, ndtr called on
    every clock column, given vg_legs of one strike or their columns."""
    a, leg_spot, leg_strike, zero_limit = legs
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


def vg_maturity_prices(kind: OptionKind, spot: float, strikes, rate: float, dividend: float,
                       tau: float, params: VgParams) -> np.ndarray:
    """One maturity's trapezoid prices over x = log(clock) on the package's
    grid, vg_conditional_price less its zero-clock limit summed per strike."""
    legs = np.array([vg_legs(kind, spot, k, rate, dividend, tau, params) for k in strikes])
    columns = legs.T[:, :, None]
    zero_limit = columns[3]
    alpha = params.alpha
    growth = params.theta + 0.5 * params.sigma * params.sigma
    x_max = math.log(_TAIL_EXPONENT / (alpha - max(growth, 0.0)))
    x = np.arange(_LOG_CLOCK_MIN, x_max, _LOG_CLOCK_STEP)
    clocks = np.exp(x)
    log_density = tau * math.log(alpha) - gammaln(tau) + tau * x - alpha * clocks
    values = vg_conditional_price(kind, columns, params, clocks, log_density)
    remainder = np.sum(values - zero_limit * np.exp(log_density), axis=1)
    return np.maximum(legs[:, 3] + _LOG_CLOCK_STEP * remainder, 0.0)


def vg_mc_price(kind: OptionKind, spot: float, strike: float, rate: float, dividend: float,
                tau: float, params: VgParams, n: int, seed: int) -> tuple[float, float]:
    """(price, n-1 standard error) of vg_conditional_price averaged over the
    clocks that vg_price_mc draws for (n, seed)."""
    legs = vg_legs(kind, spot, strike, rate, dividend, tau, params)
    clocks = np.random.default_rng(seed).gamma(shape=tau, scale=1.0 / params.alpha, size=n)
    values = vg_conditional_price(kind, legs, params, clocks)
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n))



def vg_calibration_objective(quotes, kind: OptionKind, spot: float, rate: float,
                             dividend: float) -> Callable[[float, float], float]:
    """Sum of squared relative errors of the alpha = 1 triple over
    (strike, tau, price) quotes, +inf outside the domain, priced one
    maturity at a time."""
    by_tau: dict[float, tuple[list[float], list[float]]] = {}
    for strike, tau, price in quotes:
        strikes, prices = by_tau.setdefault(tau, ([], []))
        strikes.append(strike)
        prices.append(price)
    groups = [(tau, strikes, np.asarray(prices)) for tau, (strikes, prices) in by_tau.items()]

    def objective(theta: float, sigma: float) -> float:
        if sigma <= 0.0 or theta + 0.5 * sigma * sigma >= 1.0:
            return float("inf")
        params = VgParams(theta, sigma, 1.0)
        total = 0.0
        for tau, strikes, prices in groups:
            model = vg_maturity_prices(kind, spot, strikes, rate, dividend, tau, params)
            ratios = (model - prices) / prices
            total += float(ratios @ ratios)
        return total

    return objective


_LOG_FLOOR = math.log(1e-300)


def _gaussian_log_norm(eps1: float, eps2: float) -> float:
    """log of 1 / (2 pi eps1 eps2). Python floats multiply without a
    warning; when the product is 0 or inf, the logs of the factors are
    added instead, (log 2 pi + log eps1) + log eps2."""
    product = 2.0 * math.pi * float(eps1) * float(eps2)
    if product == 0.0 or product == math.inf:
        return -((math.log(2.0 * math.pi) + math.log(eps1)) + math.log(eps2))
    return -math.log(product)


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
    log_norm = _gaussian_log_norm(model.bandwidths.eps1, model.bandwidths.eps2)
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
    log_denominator = row_max + np.log(denom) + _gaussian_log_norm(eps1, eps2)
    if np.any(log_denominator < _LOG_FLOOR):
        return float("inf")
    predictions = np.maximum(shifted @ values / denom, 0.0)
    # A kept value near zero can send its ratio or square past the float
    # range; the objective is then +inf, which the search already scores
    # as the worst candidate, so the overflow is expected, not a fault.
    with np.errstate(over="ignore"):
        ratios = 1.0 - predictions / values[keep]
        return float(np.sum(ratios * ratios))


def cv_objective_at(points, values, bandwidths: Bandwidths) -> float:
    """The package's LOO-CV objective at given bandwidths, for comparing
    selectors. It wraps kernel._cv_objective itself, so it is a
    convenience, not an independent oracle: _cv_objective above is that."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    return _package_cv_objective(points, values)(bandwidths.eps1, bandwidths.eps2)


def cv_grid(points, values) -> tuple[tuple[float, float] | None, float]:
    """The LOO-CV grid stage by brute force: every one of the 15x15
    candidates scored by the package's exact objective, in grid order,
    the first strictly smallest score kept, exact ties resolved to the
    seed. Returns (best, score), best None when every candidate
    underflows."""
    points, values = _cv_inputs(points, values)
    seed = silverman_bandwidths(points)
    factors = np.logspace(-_CV_GRID_DECADES, _CV_GRID_DECADES, _CV_GRID_SIZE)
    objective = _package_cv_objective(points, values)
    best, score, seed_cv = None, float("inf"), None
    for f1 in factors:
        for f2 in factors:
            eps = (seed.eps1 * f1, seed.eps2 * f2)
            cv = objective(*eps)
            if f1 == 1.0 and f2 == 1.0:
                seed_cv = cv
            if cv < score:
                best, score = eps, cv
    if best is not None and seed_cv == score:
        best = (seed.eps1, seed.eps2)
    return best, score


def nelder_mead(objective, x0, *, xatol, fatol, maxiter, maxfev=math.inf) -> SimplexResult:
    """scipy's Nelder-Mead on objective(u, v), called with Python floats.
    Its simplex subtracts inf from inf when several vertices score +inf,
    which numpy warns about and the package's search does silently; VG's
    objective overflows silently only inside vg_calibrate's errstate."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = minimize(lambda x: objective(float(x[0]), float(x[1])), x0=x0,
                          method="Nelder-Mead", options={"xatol": xatol, "fatol": fatol,
                                                         "maxiter": maxiter, "maxfev": maxfev})
    return SimplexResult(tuple(float(c) for c in result.x), float(result.fun), result.nfev,
                         result.nit, result.status, result.message)


def simplex_bits(result: SimplexResult) -> tuple:
    """A search's result with every float by its bits."""
    x, fun, nfev, nit, status, message = result
    return tuple(c.hex() for c in x), fun.hex(), nfev, nit, status, message


def implied_vol_brentq(
    kind: OptionKind,
    price: float,
    spot: float,
    strike: float,
    rate: float,
    dividend: float,
    tau: float,
) -> float:
    """Invert the pricing map at one quote.

    The price must lie strictly inside the no-arbitrage band, where the
    map sigma -> price is a strictly increasing bijection, so the root
    is unique. Searches sigma in [1e-6, 5], doubling the upper end as
    needed, then polishes with one Newton step; the result reprices the
    quote to within 1e-10.

    Raises:
        NoArbitrageViolation: price at or outside the band.
        NoConvergence: bracket expansion exhausted or tolerance missed.
    """
    _validate(spot, strike, 1.0, tau)
    lo, hi = no_arbitrage_band(kind, spot, strike, rate, dividend, tau)
    if not (lo < price < hi):
        raise NoArbitrageViolation(
            f"price {price} outside the open band ({lo}, {hi}) for {kind.value} "
            f"strike {strike} tau {tau}"
        )

    def objective(vol: float) -> float:
        return _price(kind, spot, strike, rate, dividend, vol, tau) - price

    f_lo = objective(_VOL_LO)
    if f_lo >= 0.0:
        if f_lo == 0.0:
            return _VOL_LO
        raise NoConvergence(f"price {price} below the sigma={_VOL_LO} price; no root in bracket")
    vol_hi = _VOL_HI
    f_hi = objective(vol_hi)
    while f_hi < 0.0 and vol_hi < _VOL_HI_MAX:
        vol_hi *= 2.0
        f_hi = objective(vol_hi)
    if f_hi < 0.0:
        raise NoConvergence(f"price {price} above the sigma={vol_hi} price; bracket expansion failed")

    root = brentq(objective, _VOL_LO, vol_hi, xtol=1e-14, rtol=8.9e-16)
    # One Newton polish pushes the price residual to rounding level.
    residual = objective(root)
    slope = vega(spot, strike, rate, dividend, root, tau)
    if slope > 0.0 and math.isfinite(residual / slope):
        polished = root - residual / slope
        if _VOL_LO <= polished <= vol_hi and abs(objective(polished)) <= abs(residual):
            root = polished
    if abs(objective(root)) > _PRICE_TOL * max(1.0, abs(price)):
        raise NoConvergence(f"residual {objective(root)} exceeds price tolerance at sigma {root}")
    return root


def filter_liquidity(chain: DailyChain, min_ttm_days: int, min_volume: int) -> tuple:
    return tuple(q for q in chain.quotes if q.ttm_days >= min_ttm_days and q.volume >= min_volume)


def of_kind(chain: DailyChain, kind: OptionKind) -> tuple:
    return tuple(q for q in chain.quotes if q.kind == kind)


def trim_mask(chain: DailyChain, vols: np.ndarray, max_iv: float, min_price: float) -> np.ndarray:
    mids = np.array([q.mid for q in chain.quotes], dtype=float)
    return (mids >= min_price) & (vols <= max_iv)


def fill_implied_vols(chain: DailyChain, curve: DividendCurve):
    quotes = chain.quotes
    taus = [q.tau for q in quotes]
    by_tau = {tau: curve.value_at(tau) for tau in set(taus) if tau > 0.0}
    vols = implied_vols([q.kind for q in quotes], [q.mid for q in quotes], chain.env.spot,
                        [q.strike for q in quotes], chain.env.rate,
                        [by_tau.get(tau, 0.0) for tau in taus], taus)
    return vols, int(np.isnan(vols).sum())


def atm_pairs(chain: DailyChain) -> dict[float, list[tuple[float, float, float]]]:
    calls: dict[tuple, float] = {}
    puts: dict[tuple, float] = {}
    taus: dict[tuple, float] = {}
    for q in chain.quotes:
        key = (q.expiry, q.strike)
        taus[key] = q.tau
        if q.kind is OptionKind.CALL:
            calls[key] = q.mid
        else:
            puts[key] = q.mid
    pairs: dict[float, list[tuple[float, float, float]]] = {}
    for key in calls.keys() & puts.keys():
        _, strike = key
        tau = taus[key]
        if tau <= 0.0:
            continue
        if classify_moneyness(OptionKind.CALL, strike, chain.env, tau).label is not Moneyness.ATM:
            continue
        pairs.setdefault(tau, []).append((strike, calls[key], puts[key]))
    return pairs


def dividend_knots(chain: DailyChain) -> list[tuple[float, float]]:
    """The dividend curve's (tau, yield) knots as estimate_dividend_curve
    finds them: np.median of each maturity's implied dividends, over
    atm_pairs above."""
    knots = []
    for tau, legs in sorted(atm_pairs(chain).items()):
        estimates = []
        for strike, call_mid, put_mid in legs:
            try:
                estimates.append(implied_dividend(call_mid, put_mid, chain.env.spot, strike,
                                                  chain.env.rate, tau))
            except ValueError:
                continue
        if estimates:
            knots.append((tau, float(np.median(estimates))))
    return knots


def merge_duplicates(points: np.ndarray, values: np.ndarray,
                     tol: float = _DUPLICATE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Collapse coincident points (within tol per coordinate) to their mean value."""
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
    return merged_points, merged_values


class ScipyLinearInterpolator:
    """Barycentric-linear interpolant by scipy over the merged points."""

    def __init__(self, points: np.ndarray, values: np.ndarray):
        points, values = merge_duplicates(points, values)
        self._tri = Delaunay(points)
        self._interp = LinearNDInterpolator(self._tri, values)

    def contains(self, point) -> bool:
        return bool(self._tri.find_simplex(np.asarray(point, dtype=float)) >= 0)

    def evaluate(self, point):
        query = np.asarray(point, dtype=float).reshape(1, 2)
        value = float(self._interp(query)[0])
        if math.isnan(value):
            return OUTSIDE_HULL
        return value


def raw_normalized_domain(strikes, taus, spot: float) -> Callable[[float, float], bool]:
    """In-hull test over the points (strike/spot, tau) as given, built
    without merging them."""
    points = np.column_stack([np.asarray(strikes, dtype=float) / spot, taus])
    try:
        triangles = _Triangles(points)
    except DegenerateGeometry:
        # Collinear points: the segment of the 1-D fallback over the merged points.
        line = _Line(merge_duplicates(points, np.zeros(len(points)))[0])
        return lambda strike, tau: line.find(strike / spot, tau) is not None
    return lambda strike, tau: triangles.find(strike / spot, tau) is not None


def _parse_date(text: str, line: int, column: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ChainParseError(line, f"bad {column} {text!r}, expected YYYY-MM-DD") from None


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ChainParseError(line, f"bad {column} {text!r}") from None
    if not math.isfinite(value):
        raise ChainParseError(line, f"non-finite {column} {text!r}")
    return value


def _parse_int(text: str, line: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ChainParseError(line, f"bad {column} {text!r}") from None


_MAX_VOLUME = 2**63 - 1


def _check_row(fields: list[str], line: int, index: dict[str, int]):
    """One row's checks, in order; the first that fails raises its
    ChainParseError. Returns the row's date and (spot, rate, div_hist)."""
    if len(fields) != len(index):
        raise ChainParseError(line, "wrong number of fields")
    date = _parse_date(fields[index["date"]], line, "date")
    expiry = _parse_date(fields[index["expiry"]], line, "expiry")
    kind_text = fields[index["kind"]].strip()
    try:
        OptionKind(kind_text)
    except ValueError:
        raise ChainParseError(line, f"bad kind {kind_text!r}, expected C or P") from None
    strike, bid, ask = (_parse_float(fields[index[c]], line, c) for c in ("strike", "bid", "ask"))
    volume = _parse_int(fields[index["volume"]], line, "volume")
    spot, rate, div_hist = (_parse_float(fields[index[c]], line, c)
                            for c in ("spot", "rate", "div_hist"))
    if strike <= 0.0:
        raise ChainParseError(line, f"strike must be positive, got {strike}")
    if spot <= 0.0:
        raise ChainParseError(line, f"spot must be positive, got {spot}")
    if bid < 0.0:
        raise ChainParseError(line, f"bid must be non-negative, got {bid}")
    if ask < bid:
        raise ChainParseError(line, f"crossed quote: bid {bid} > ask {ask}")
    if volume < 0:
        raise ChainParseError(line, f"volume must be non-negative, got {volume}")
    if volume > _MAX_VOLUME:
        raise ChainParseError(line, f"volume must be at most {_MAX_VOLUME}, got {volume}")
    if expiry < date:
        raise ChainParseError(line, f"expiry {expiry} precedes quote date {date}")
    if "implied_vol" in index:
        text = fields[index["implied_vol"]].strip()
        if text:
            _parse_float(text, line, "implied_vol")
    return date, (spot, rate, div_hist)


def chain_file_error(path) -> ChainParseError | None:
    """The error of the first row of a chain file (one with a good header)
    that fails a check, or None when every row passes."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        index = {name.strip(): i for i, name in enumerate(next(reader))}
        envs: dict[dt.date, tuple[int, tuple[float, float, float]]] = {}
        for fields in reader:
            if not "".join(fields).strip():
                continue
            line = reader.line_num
            try:
                date, given = _check_row(fields, line, index)
            except ChainParseError as error:
                return error
            first_line, seen = envs.setdefault(date, (line, given))
            if seen != given:
                diffs = ", ".join(
                    f"{name} {old} != {new}"
                    for name, old, new in zip(("spot", "rate", "div_hist"), seen, given)
                    if old != new
                )
                return ChainParseError(
                    line, f"environment for {date} conflicts with line {first_line}: {diffs}"
                )
    return None


def itm_parity_records(chain: DailyChain, curve: DividendCurve) -> tuple[list[PricingError], int]:
    mids: dict[tuple, float] = {}
    for q in chain.quotes:
        mids[(q.kind, q.expiry, q.strike)] = q.mid

    other = {OptionKind.CALL: OptionKind.PUT, OptionKind.PUT: OptionKind.CALL}
    records: list[PricingError] = []
    skipped = 0
    for q in chain.quotes:
        if q.tau <= 0.0:
            continue
        if classify_moneyness(q.kind, q.strike, chain.env, q.tau).label is not Moneyness.ITM:
            continue
        counterpart = mids.get((other[q.kind], q.expiry, q.strike))
        if counterpart is None or q.mid <= 0.0:
            skipped += 1
            continue
        estimate = parity_price(
            q.kind, counterpart, chain.env.spot, q.strike, chain.env.rate,
            curve.value_at(q.tau), q.tau,
        )
        records.append(
            PricingError(
                date=chain.env.date,
                label="PARITY",
                strike=q.strike,
                tau=q.tau,
                true_price=q.mid,
                est_price=estimate,
                rel_error=abs(1.0 - estimate / q.mid),
                status=ErrorStatus.PRICED,
            )
        )
    return records, skipped


def cross_date_report(chains, spot_tolerance: float = DEFAULT_SPOT_TOLERANCE) -> list:
    chains = sorted(chains, key=lambda c: c.env.date)
    matches = []
    for i, a in enumerate(chains):
        for b in chains[i + 1:]:
            if abs(a.env.spot - b.env.spot) > spot_tolerance:
                continue
            mids_b: dict[tuple, float] = {}
            for q in b.quotes:
                mids_b[(q.kind, q.strike, q.ttm_days)] = q.mid
            for q in a.quotes:
                other = mids_b.get((q.kind, q.strike, q.ttm_days))
                if other is None:
                    continue
                matches.append(CrossDateMatch(date_a=a.env.date, date_b=b.env.date, kind=q.kind,
                                              strike=q.strike, ttm_days=q.ttm_days,
                                              price_a=q.mid, price_b=other))
    return matches
