"""Reference pricers, written apart from the package under test.

Black-Scholes uses its own normal CDF built on math.erfc. Variance-Gamma
integrates the conditional Black-Scholes price against the Gamma clock
density with a trapezoid rule in x = log(clock): after subtracting the
integrand's limit at zero clock, the integrand decays like e^{(tau+1/2)x}
on the left and like e^{-(alpha - w) e^x} on the right, so a fixed step
converges geometrically. A seeded Monte Carlo average of the same
conditional price backs the integral up.

self_check() runs at set-up and raises CheckFailed when a pricer breaks
put-call parity or disagrees with Monte Carlo.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

SQRT2 = math.sqrt(2.0)

# Log-clock trapezoid: step and left end. The right end is set per
# contract where the Gamma tail has decayed by e^-80.
_VG_STEP = 0.05
_VG_LOG_CLOCK_MIN = -80.0
_VG_TAIL = 80.0

_MC_SEED = 1506
# Drawn in chunks, so the check's arrays stay far below the workloads' memory.
_MC_CHUNKS = 20
_MC_CHUNK = 20_000


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / SQRT2)


def bs_price(is_call: bool, spot: float, strike: float, rate: float, dividend: float,
             vol: float, tau: float) -> float:
    """Closed-form Black-Scholes price with a continuous dividend yield."""
    srt = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate - dividend + 0.5 * vol * vol) * tau) / srt
    d2 = d1 - srt
    disc_spot = spot * math.exp(-dividend * tau)
    disc_strike = strike * math.exp(-rate * tau)
    if is_call:
        return disc_spot * norm_cdf(d1) - disc_strike * norm_cdf(d2)
    return disc_strike * norm_cdf(-d2) - disc_spot * norm_cdf(-d1)


def _vg_terms(spot, strike, rate, dividend, tau, theta, sigma, alpha):
    w = theta + 0.5 * sigma * sigma
    if not (sigma > 0.0 and alpha > w):
        raise ValueError("VG parameters outside theta + sigma^2/2 < alpha")
    eta = math.log1p(-w / alpha)
    a = math.log(spot / strike) + (rate - dividend + eta) * tau
    leg_spot = spot * math.exp((-dividend + eta) * tau)
    leg_strike = strike * math.exp(-rate * tau)
    return w, a, leg_spot, leg_strike


def _vg_conditional(is_call, clocks, w, a, leg_spot, leg_strike, theta, sigma):
    """Discounted price given the Gamma clock, and its limit at zero clock.
    Returns (spot-leg factor, strike-leg term, limit): the price is
    factor * e^{w g} + strike term."""
    scale = sigma * np.sqrt(clocks)
    d_minus = (a + theta * clocks) / scale
    d_plus = d_minus + scale
    if is_call:
        return leg_spot * ndtr(d_plus), -leg_strike * ndtr(d_minus), max(leg_spot - leg_strike, 0.0)
    return -leg_spot * ndtr(-d_plus), leg_strike * ndtr(-d_minus), max(leg_strike - leg_spot, 0.0)


def vg_price(is_call: bool, spot: float, strike: float, rate: float, dividend: float,
             tau: float, theta: float, sigma: float, alpha: float) -> float:
    """Variance-Gamma price: the conditional Black-Scholes price integrated
    against the clock density alpha^tau / Gamma(tau) g^(tau-1) e^(-alpha g)."""
    w, a, leg_spot, leg_strike = _vg_terms(spot, strike, rate, dividend, tau, theta, sigma, alpha)
    x_max = math.log(_VG_TAIL / (alpha - max(w, 0.0)))
    x = np.arange(_VG_LOG_CLOCK_MIN, x_max + _VG_STEP, _VG_STEP)
    g = np.exp(x)
    # Density of x = log g, kept in log space with the spot leg's growth.
    log_density = tau * math.log(alpha) - math.lgamma(tau) + tau * x - alpha * g
    spot_leg, strike_leg, limit = _vg_conditional(is_call, g, w, a, leg_spot, leg_strike,
                                                  theta, sigma)
    integrand = (spot_leg * np.exp(w * g + log_density)
                 + (strike_leg - limit) * np.exp(log_density))
    # The zero-clock limit integrates to itself; only the remainder is summed.
    return float(limit + _VG_STEP * math.fsum(integrand))


def vg_price_mc(is_call: bool, spot: float, strike: float, rate: float, dividend: float,
                tau: float, theta: float, sigma: float, alpha: float,
                seed: int = _MC_SEED) -> tuple[float, float]:
    """Seeded Monte Carlo mean of the conditional price, with its standard error."""
    w, a, leg_spot, leg_strike = _vg_terms(spot, strike, rate, dividend, tau, theta, sigma, alpha)
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    for _ in range(_MC_CHUNKS):
        clocks = np.maximum(rng.gamma(shape=tau, scale=1.0 / alpha, size=_MC_CHUNK), 1e-300)
        spot_leg, strike_leg, _ = _vg_conditional(is_call, clocks, w, a, leg_spot, leg_strike,
                                                  theta, sigma)
        values = spot_leg * np.exp(w * clocks) + strike_leg
        total += float(values.sum())
        total_sq += float(values @ values)
    n = _MC_CHUNKS * _MC_CHUNK
    mean = total / n
    variance = (total_sq - n * mean * mean) / (n - 1)
    return mean, math.sqrt(max(variance, 0.0) / n)


def yardstick() -> float:
    """A fixed numpy computation of the benchmark's own, timed after every
    repetition to gauge the host's speed at that moment. VG integrals track
    the host's drift in all four workloads better than pure-Python prices,
    which swing more than the workloads do."""
    total = 0.0
    for strike in np.linspace(80.0, 130.0, 24):
        total += vg_price(False, 100.0, float(strike), 0.02, 0.01, 0.5, 0.0, 0.3, 3.0)
    return total


def self_check() -> None:
    """Parity of both pricers on a grid, and VG against Monte Carlo on
    fixed contracts, so the check does not depend on the workload seed."""
    spot, rate, dividend = 100.0, 0.02, 0.012
    for strike in (60.0, 85.0, 100.0, 115.0, 140.0):
        for tau in (4 / 365, 30 / 365, 0.5, 2.0):
            forward_gap = spot * math.exp(-dividend * tau) - strike * math.exp(-rate * tau)
            for vol in (0.08, 0.25, 0.6):
                gap = (bs_price(True, spot, strike, rate, dividend, vol, tau)
                       - bs_price(False, spot, strike, rate, dividend, vol, tau))
                if abs(gap - forward_gap) > 1e-12 * spot:
                    raise CheckFailed(f"BS reference breaks parity at K={strike} tau={tau} "
                                      f"vol={vol}: {gap - forward_gap:.3e}")
            for theta, sigma, alpha in ((-0.1, 0.2, 2.0), (0.0, 0.3, 3.0), (-0.3, 0.25, 1.2)):
                gap = (vg_price(True, spot, strike, rate, dividend, tau, theta, sigma, alpha)
                       - vg_price(False, spot, strike, rate, dividend, tau, theta, sigma, alpha))
                if abs(gap - forward_gap) > 1e-10 * spot:
                    raise CheckFailed(f"VG reference breaks parity at K={strike} tau={tau} "
                                      f"params={(theta, sigma, alpha)}: {gap - forward_gap:.3e}")
    for is_call, strike, tau in ((False, 90.0, 30 / 365), (False, 105.0, 0.5),
                                 (True, 110.0, 1.0), (False, 100.0, 4 / 365)):
        exact = vg_price(is_call, spot, strike, rate, dividend, tau, -0.1, 0.2, 2.0)
        mean, stderr = vg_price_mc(is_call, spot, strike, rate, dividend, tau, -0.1, 0.2, 2.0)
        if abs(exact - mean) > 3.0 * stderr:
            raise CheckFailed(f"VG reference {exact} misses Monte Carlo {mean} +- {stderr} "
                              f"at K={strike} tau={tau}")
