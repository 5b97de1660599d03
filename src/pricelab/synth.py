"""Synthetic option chains from known models, for tests and benchmarks.

Each generated day quotes calls and puts on a strike-by-maturity grid,
priced by a constant-volatility lognormal model or a Variance-Gamma
model. With zero noise bid = ask = model price, so every derived
quantity (implied vol, dividend, parity) is recoverable exactly; with
noise the mid is scaled by a lognormal factor drawn from a per-day
seeded generator. A day is built as columns, in canonical quote order,
and no per-quote record.
"""

from __future__ import annotations

import datetime as dt
import math
from typing import Sequence

import numpy as np

from .black_scholes import bs_price
from .harness import day_seed
from .market_data import DAYS_PER_YEAR, DailyChain, MarketEnv, OptionKind, _quote_order
from .variance_gamma import VgParams, vg_price_quadrature

DEFAULT_MATURITIES_DAYS = (30, 91, 182, 365)
DEFAULT_VOLUME = 1000


def synth_chain(
    model: str,
    *,
    spot: float = 100.0,
    rate: float = 0.02,
    dividend: float = 0.01,
    sigma: float = 0.2,
    theta: float = -0.1,
    alpha: float = 2.0,
    strikes: Sequence[float] | None = None,
    maturities_days: Sequence[int] = DEFAULT_MATURITIES_DAYS,
    start_date: dt.date = dt.date(2012, 1, 3),
    n_days: int = 1,
    noise: float = 0.0,
    seed: int = 0,
    volume: int = DEFAULT_VOLUME,
) -> list[DailyChain]:
    """Generate n_days consecutive weekday chains.

    model is "BS" (constant vol sigma) or "VG" (theta, sigma, alpha).
    The environment's div_hist equals the generating dividend, so
    moneyness classification and vol inversion see the true yield.
    Strikes default to thirteen points spanning 70 to 130 percent of
    spot. noise scales the mid by exp(noise * z) with z standard normal,
    drawn from a generator seeded per (seed, date).
    """
    model = model.upper()
    if model not in ("BS", "VG"):
        raise ValueError(f"unknown model {model!r}, expected BS or VG")
    if strikes is None:
        strikes = [float(s) for s in np.linspace(0.7 * spot, 1.3 * spot, 13)]
    if not strikes or min(strikes) <= 0.0:
        raise ValueError("strikes must be positive")
    if any(m <= 0 for m in maturities_days):
        raise ValueError("maturities must be positive day counts")
    if n_days < 1:
        raise ValueError("n_days must be at least one")
    if noise < 0.0:
        raise ValueError("noise must be non-negative")

    vg_params = VgParams(theta, sigma, alpha) if model == "VG" else None
    # Each day prices its quotes, and draws their noise, in this order.
    grid = [(kind, strike, days) for days in maturities_days for strike in strikes
            for kind in (OptionKind.CALL, OptionKind.PUT)]
    kinds = np.array([kind for kind, _, _ in grid], dtype=object)
    grid_strikes = np.array([strike for _, strike, _ in grid], dtype=float)
    ttm_days = np.array([days for _, _, days in grid], dtype=np.int64)

    chains = []
    for date in np.busday_offset(start_date, np.arange(n_days), roll="forward").tolist():
        rng = np.random.default_rng(day_seed(seed, date)) if noise > 0.0 else None
        prices = []
        for kind, strike, days in grid:
            tau = days / DAYS_PER_YEAR
            if model == "BS":
                price = bs_price(kind, spot, strike, rate, dividend, sigma, tau)
            else:
                price = vg_price_quadrature(kind, spot, strike, rate, dividend, tau, vg_params)
            if rng is not None:
                price *= math.exp(noise * rng.standard_normal())
            prices.append(price)
        prices = np.array(prices, dtype=float)
        expiries = np.datetime64(date, "D") + ttm_days
        env = MarketEnv(date=date, spot=spot, rate=rate, div_hist=dividend)
        chain = DailyChain._of_columns(env, kinds, grid_strikes, expiries, ttm_days, prices,
                                       prices, np.full(len(grid), volume, dtype=np.int64),
                                       np.full(len(grid), math.nan))
        # Canonical quote order, so generated chains match their own
        # saved-and-reloaded form exactly.
        chains.append(chain.select(_quote_order(kinds, grid_strikes, expiries)))
    return chains
