"""Black-Scholes pricing with a continuous dividend yield.

With d+ = (log(S/K) + (r - q + sigma^2/2) t) / (sigma sqrt(t)) and
d- = d+ - sigma sqrt(t):

    call = S e^{-q t} Phi(d+) - K e^{-r t} Phi(d-)
    put  = K e^{-r t} Phi(-d-) - S e^{-q t} Phi(-d+)

The put form is the call-parity expression rearranged so out-of-the-money
puts do not lose precision to cancellation. The normal CDF is computed
from the complementary error function, accurate to the last bit well
into the tails.

Besides pricing, this module differentiates the map sigma -> price
(vega), exposes the sensitivity of the implied volatility to the
dividend yield, sqrt(t) Phi(d+) / phi(d+), which quantifies how much a
misjudged dividend distorts a fitted vol surface, and inverts the map
(implied volatility).

The inversion is array code: implied_vols inverts the quotes of any
number of days in one pass, one lane per quote, each lane with its own
spot and rate, and the scalar implied_vol is its one-element case.
fill_implied_vols_of_days hands it the quotes of many days at once, and
fill_implied_vols is its one-day case. Each lane brackets its root in
[1e-6, 5], doubling the upper end up to 160, and runs Brent's method
(Brent, Algorithms for Minimization without Derivatives, 1973) exactly
as scipy's brentq does: the same updates in the same order and the same
tolerances, with each lane keeping its own iterates and leaving the
active set when it converges.
One Newton step then polishes the root, and the result must reprice
the quote to within 1e-10 max(1, price). Inside the search the normal
CDF comes from scipy's ndtr on arrays, so a lane's price can differ
from bs_price in the last bits.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike
from scipy.special import ndtr

from .errors import NoArbitrageViolation, NoConvergence
from .market_data import DailyChain, OptionKind
from .parity import DividendCurve

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Implied-vol search: initial bracket, expansion cap, and the price-space
# tolerance the result must meet.
_VOL_LO = 1e-6
_VOL_HI = 5.0
_VOL_HI_MAX = 160.0
_PRICE_TOL = 1e-10

# Brent's method as scipy's brentq runs it.
_BRENT_XTOL = 1e-14
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 100


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _validate(spot: float, strike: float, vol: float, tau: float) -> None:
    if spot <= 0.0:
        raise ValueError(f"spot must be positive, got {spot}")
    if strike <= 0.0:
        raise ValueError(f"strike must be positive, got {strike}")
    if vol <= 0.0:
        raise ValueError(f"vol must be positive, got {vol}")
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")


def _d_plus(spot: float, strike: float, rate: float, dividend: float, vol: float, tau: float) -> float:
    srt = vol * math.sqrt(tau)
    return (math.log(spot / strike) + (rate - dividend + 0.5 * vol * vol) * tau) / srt


def _price(
    kind: OptionKind,
    spot: float,
    strike: float,
    rate: float,
    dividend: float,
    vol: float,
    tau: float,
) -> float:
    d1 = _d_plus(spot, strike, rate, dividend, vol, tau)
    d2 = d1 - vol * math.sqrt(tau)
    disc_spot = spot * math.exp(-dividend * tau)
    disc_strike = strike * math.exp(-rate * tau)
    if kind is OptionKind.CALL:
        value = disc_spot * _norm_cdf(d1) - disc_strike * _norm_cdf(d2)
    else:
        value = disc_strike * _norm_cdf(-d2) - disc_spot * _norm_cdf(-d1)
    return max(value, 0.0)


def bs_price(kind: OptionKind, spot: float, strike: float, rate: float, dividend: float, vol: float,
             tau: float) -> float:
    """Price one option. Raises ValueError on non-positive spot, strike,
    vol, or tau."""
    _validate(spot, strike, vol, tau)
    return _price(kind, spot, strike, rate, dividend, vol, tau)


def vega(spot: float, strike: float, rate: float, dividend: float, vol: float, tau: float) -> float:
    """d price / d vol; identical for calls and puts."""
    _validate(spot, strike, vol, tau)
    d1 = _d_plus(spot, strike, rate, dividend, vol, tau)
    return math.sqrt(tau) * spot * math.exp(-dividend * tau) * _norm_pdf(d1)


def iv_dividend_sensitivity(
    spot: float, strike: float, rate: float, dividend: float, vol: float, tau: float
) -> float:
    """Sensitivity of the call-quoted implied vol to the dividend yield.

    Holding the observed call price fixed, the implied vol as a function
    of the assumed dividend q satisfies

        d sigma / d q = sqrt(t) Phi(d+) / phi(d+),

    the ratio of the price's dividend and vol sensitivities. Always
    positive, and rapidly large in the right tail: underestimating the
    dividend inflates fitted vols most where d+ is big.
    """
    _validate(spot, strike, vol, tau)
    d1 = _d_plus(spot, strike, rate, dividend, vol, tau)
    return math.sqrt(tau) * _norm_cdf(d1) / _norm_pdf(d1)


def no_arbitrage_band(
    kind: OptionKind, spot: float, strike: float, rate: float, dividend: float, tau: float
) -> tuple[float, float]:
    """Open interval of prices attainable by some positive volatility."""
    disc_spot = spot * math.exp(-dividend * tau)
    disc_strike = strike * math.exp(-rate * tau)
    if kind is OptionKind.CALL:
        return max(disc_spot - disc_strike, 0.0), disc_spot
    return max(disc_strike - disc_spot, 0.0), disc_strike


def _lane_prices(vols: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Black-Scholes price minus the quoted price, lane by lane.

    lanes holds the per-lane constants made by implied_vols, one row
    each: w a, sqrt(t), w sqrt(t), w S e^{-q t}, w K e^{-r t} and the
    quote, where w is +1 for a call and -1 for a put and
    a = log(S/K) + (r - q) t. Then w d+ = w a / (sigma sqrt(t)) +
    w sigma sqrt(t) / 2 and the price is
    w S e^{-q t} Phi(w d+) - w K e^{-r t} Phi(w d-).
    """
    wa, sqrt_tau, w_sqrt_tau, w_disc_spot, w_disc_strike, quote = lanes
    w_srt = vols * w_sqrt_tau
    wd1 = wa / (vols * sqrt_tau) + 0.5 * w_srt
    value = w_disc_spot * ndtr(wd1) - w_disc_strike * ndtr(wd1 - w_srt)
    return np.maximum(value, 0.0) - quote


def _brentq_lanes(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lanes: np.ndarray,
    xa: np.ndarray,
    xb: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of f(x, lanes) by scipy's brentq, one lane per column.

    Each lane runs the update of scipy's brentq (zeros.c) in the same
    order, with xtol 1e-14, rtol 8.9e-16 and at most 100 iterations, so
    a lane given the same function values takes the same steps. fa and
    fb are f at xa and xb, of opposite signs, fa nonzero. Finished lanes
    leave the active set, and f sees the columns of lanes that remain.
    Returns the roots and f there; NaN where a lane did not converge.
    """
    n = xa.size
    roots = np.full(n, np.nan)
    f_roots = np.full(n, np.nan)
    if not n:
        return roots, f_roots
    index = np.arange(n)
    # xcur and fcur are updated in place; xblk, fblk, spre and scur are
    # set by the first iteration's sign change.
    xpre, fpre, xcur, fcur = xa, fa, xb.copy(), fb.copy()
    xblk, fblk, spre, scur = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    for _ in range(_BRENT_MAXITER):
        # A sign change makes the previous iterate the contrapoint.
        flip = np.signbit(fpre) != np.signbit(fcur)
        np.copyto(xblk, xpre, where=flip)
        np.copyto(fblk, fpre, where=flip)
        np.copyto(spre, xcur - xpre, where=flip)
        np.copyto(scur, spre, where=flip)
        # The contrapoint becomes xcur where its residual is smaller.
        swap = abs(fblk) < abs(fcur)
        xpre, fpre = np.where(swap, xcur, xpre), np.where(swap, fcur, fpre)
        np.copyto(xcur, xblk, where=swap)
        np.copyto(fcur, fblk, where=swap)
        np.copyto(xblk, xpre, where=swap)
        np.copyto(fblk, fpre, where=swap)

        # (xtol + rtol |xcur|) / 2, halved term by term: the same bits.
        delta = _BRENT_XTOL / 2.0 + _BRENT_RTOL / 2.0 * abs(xcur)
        to_blk = xblk - xcur
        sbis = to_blk * 0.5
        abs_sbis = abs(sbis)
        done = (fcur == 0.0) | (abs_sbis < delta)
        if np.count_nonzero(done):
            roots[index[done]] = xcur[done]
            f_roots[index[done]] = fcur[done]
            go = ~done
            if not np.count_nonzero(go):
                break
            index, lanes = index[go], lanes[:, go]
            xpre, fpre, xcur, fcur = xpre[go], fpre[go], xcur[go], fcur[go]
            xblk, fblk, spre, scur = xblk[go], fblk[go], spre[go], scur[go]
            delta, to_blk, sbis, abs_sbis = delta[go], to_blk[go], sbis[go], abs_sbis[go]

        # Interpolate where zeros.c would, else bisect. The step is the
        # secant where xpre is the contrapoint, else inverse quadratic
        # interpolation, each in zeros.c's operation order (the secant
        # with both differences negated, which changes no bits).
        abs_spre = abs(spre)
        interpolate = (abs_spre > delta) & (abs(fcur) < abs(fpre))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            to_pre = xpre - xcur
            f_to_pre = fpre - fcur
            dpre = f_to_pre / to_pre
            dblk = (fblk - fcur) / to_blk
            stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            secant = -fcur * to_pre / f_to_pre
        np.copyto(stry, secant, where=xpre == xblk)
        good = interpolate & (2.0 * abs(stry) < np.minimum(abs_spre, 3.0 * abs_sbis - delta))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

        xpre, fpre = xcur, fcur
        # sbis is nonzero on an active lane, so copysign is zeros.c's
        # (sbis > 0 ? delta : -delta).
        step = np.copysign(delta, sbis)
        np.copyto(step, scur, where=abs(scur) > delta)
        xcur = xcur + step
        fcur = f(xcur, lanes)
    return roots, f_roots


def implied_vols(
    kinds: Sequence[OptionKind],
    prices: ArrayLike,
    spot: float | ArrayLike,
    strikes: ArrayLike,
    rate: float | ArrayLike,
    dividends: ArrayLike,
    taus: ArrayLike,
) -> np.ndarray:
    """Invert the pricing map at every quote given in one array pass.

    kinds, prices, strikes, dividends and taus hold one entry per quote;
    spot and rate hold one value for all quotes or one per quote, so the
    quotes of several days can be inverted together. Each quote takes
    the steps of the scalar contract, lane by lane:
    the price must lie strictly inside the no-arbitrage band; a price
    equal to the sigma = 1e-6 price gives 1e-6 and one below it has no
    root; the upper end of the bracket starts at 5 and doubles up to
    160; Brent's method (scipy's brentq update) finds the root; one
    Newton step polishes it; and the result must reprice the quote to
    within 1e-10 max(1, price). The vol is NaN wherever a step fails or
    tau or the strike is not positive.
    """
    prices, strikes, dividends, taus = (
        np.asarray(x, dtype=float) for x in (prices, strikes, dividends, taus)
    )
    spots, rates = (np.broadcast_to(np.asarray(x, dtype=float), prices.shape) for x in (spot, rate))
    vols = np.full(prices.size, np.nan)
    valid = (0.0 < taus) & (taus < math.inf) & (0.0 < strikes) & (strikes < math.inf)
    index = np.flatnonzero(valid & (spots > 0.0))
    sign = np.array([1.0 if kinds[i] is OptionKind.CALL else -1.0 for i in index])
    spot, rate = spots[index], rates[index]
    strike, dividend, tau, quote = strikes[index], dividends[index], taus[index], prices[index]
    # The discounts come from math.exp, as in no_arbitrage_band, so the
    # band test decides exactly as the scalar one does.
    tau_list = tau.tolist()
    disc_spot = np.array([s * math.exp(-q * t)
                          for s, q, t in zip(spot.tolist(), dividend.tolist(), tau_list)])
    disc_strike = np.array([k * math.exp(-r * t)
                            for k, r, t in zip(strike.tolist(), rate.tolist(), tau_list)])
    sqrt_tau = np.sqrt(tau)
    lanes = np.array([
        sign * (np.log(spot / strike) + (rate - dividend) * tau),
        sqrt_tau,
        sign * sqrt_tau,
        sign * disc_spot,
        sign * disc_strike,
        quote,
    ])
    lo = np.maximum(sign * (disc_spot - disc_strike), 0.0)
    hi = np.where(sign > 0.0, disc_spot, disc_strike)
    inside = (lo < quote) & (quote < hi)

    # A price equal to the floor price inverts to the floor; one below it
    # has no root. The upper end doubles until the price there is not
    # below the quote.
    f_lo = _lane_prices(np.full(index.size, _VOL_LO), lanes)
    vols[index[inside & (f_lo == 0.0)]] = _VOL_LO
    vol_hi = np.full(index.size, _VOL_HI)
    f_hi = _lane_prices(vol_hi, lanes)
    grow = inside & (f_lo < 0.0) & (f_hi < 0.0)
    while np.count_nonzero(grow):
        vol_hi[grow] *= 2.0
        f_hi[grow] = _lane_prices(vol_hi[grow], lanes[:, grow])
        grow &= (f_hi < 0.0) & (vol_hi < _VOL_HI_MAX)
    search = inside & (f_lo < 0.0) & (f_hi >= 0.0)
    index, lanes = index[search], lanes[:, search]
    vol_hi, f_lo, f_hi = vol_hi[search], f_lo[search], f_hi[search]

    root, residual = _brentq_lanes(
        _lane_prices, lanes, np.full(index.size, _VOL_LO), vol_hi, f_lo, f_hi
    )

    # One Newton step pushes the price residual to rounding level; it is
    # kept where it stays in the bracket and reprices no worse. The vega
    # is sqrt(t) S e^{-q t} phi(d+), and |w S e^{-q t}| = S e^{-q t}.
    wa, sqrt_tau, w_sqrt_tau, w_disc_spot, _, quote = lanes
    wd1 = wa / (root * sqrt_tau) + 0.5 * root * w_sqrt_tau
    slope = sqrt_tau * abs(w_disc_spot) * np.exp(-0.5 * wd1 * wd1) / _SQRT_2PI
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        polished = root - residual / slope
    take = (polished >= _VOL_LO) & (polished <= vol_hi)
    f_polished = _lane_prices(np.where(take, polished, root), lanes)
    take &= abs(f_polished) <= abs(residual)
    root = np.where(take, polished, root)
    residual = np.where(take, f_polished, residual)
    ok = abs(residual) <= _PRICE_TOL * np.maximum(1.0, quote)
    vols[index[ok]] = root[ok]
    return vols


def implied_vol(
    kind: OptionKind,
    price: float,
    spot: float,
    strike: float,
    rate: float,
    dividend: float,
    tau: float,
) -> float:
    """Invert the pricing map at one quote: implied_vols on one element.

    The price must lie strictly inside the no-arbitrage band, where the
    map sigma -> price is a strictly increasing bijection, so the root
    is unique. The result reprices the quote to within
    1e-10 max(1, price).

    Raises:
        ValueError: non-positive spot, strike or tau.
        NoArbitrageViolation: price at or outside the band.
        NoConvergence: no root in the search bracket, or tolerance missed.
    """
    _validate(spot, strike, 1.0, tau)
    lo, hi = no_arbitrage_band(kind, spot, strike, rate, dividend, tau)
    if not (lo < price < hi):
        raise NoArbitrageViolation(
            f"price {price} outside the open band ({lo}, {hi}) for {kind.value} "
            f"strike {strike} tau {tau}"
        )
    vol = float(implied_vols((kind,), (price,), spot, (strike,), rate, (dividend,), (tau,))[0])
    if math.isnan(vol):
        raise NoConvergence(
            f"no vol in [{_VOL_LO}, {_VOL_HI_MAX}] reprices {price} within tolerance for "
            f"{kind.value} strike {strike} tau {tau}"
        )
    return vol


def fill_implied_vols(chain: DailyChain, curve: DividendCurve) -> tuple[np.ndarray, int]:
    """Implied vols of the chain's quotes, one per quote in quote order:
    fill_implied_vols_of_days on one day.

    The vol is NaN where a quote cannot be inverted (zero time to expiry,
    price at or outside the band); the second return value counts those
    quotes.
    """
    [vols] = fill_implied_vols_of_days([(chain, curve)])
    return vols, int(np.isnan(vols).sum())


def fill_implied_vols_of_days(
    days: Sequence[tuple[DailyChain, DividendCurve]],
) -> list[np.ndarray]:
    """Implied vols of the quotes of every (chain, dividend curve) day,
    one array per day in input order, one vol per quote in quote order.

    One implied_vols call inverts the quotes of all the days, each lane
    with its own day's spot and rate. Each day's curve is evaluated once
    per distinct positive tau of that day; a quote at tau <= 0 has no vol.
    """
    if not days:  # np.concatenate needs at least one array
        return []
    chains = [chain for chain, _ in days]
    dividends = []
    for chain, curve in days:
        taus = chain.taus.tolist()
        by_tau = {tau: curve.value_at(tau) for tau in set(taus) if tau > 0.0}
        dividends.extend(by_tau.get(tau, 0.0) for tau in taus)  # no vol exists at tau <= 0
    sizes = [len(chain) for chain in chains]
    vols = implied_vols(
        np.concatenate([chain.kinds for chain in chains]),
        np.concatenate([chain.mids for chain in chains]),
        np.repeat([chain.env.spot for chain in chains], sizes),
        np.concatenate([chain.strikes for chain in chains]),
        np.repeat([chain.env.rate for chain in chains], sizes),
        dividends,
        np.concatenate([chain.taus for chain in chains]),
    )
    return np.split(vols, np.cumsum(sizes)[:-1])
