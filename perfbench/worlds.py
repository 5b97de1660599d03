"""Seeded input generators: option chains and query grids.

Everything here is a pure function of the seed and the size. Prices come
from the reference pricers in reference.py, never from the package under
test.

Black-Scholes worlds quote calls and puts on fixed expiry dates, from a
few days to two years out. Strikes sit on a grid of 2.5% of the first
day's spot, between 60% and 140% of it, and each expiry lists the strikes
within about three standard deviations of the money, as exchanges do.
The spot moves from day to day. The implied vol is affine in
(strike/spot, tau), so linear interpolation of vols reproduces it
exactly. Each quote has a symmetric bid/ask spread around its
closed-form price, and one in eight trades under the volume floor.

Variance-Gamma worlds quote puts only, every one liquid, with noiseless
prices from the reference integral and maturities well above 3 days.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

START_DATE = dt.date(2012, 1, 3)
DAYS_PER_YEAR = 365.0
EXPIRY_OFFSETS_DAYS = (9, 16, 37, 65, 100, 191, 373, 737)
VG_MATURITIES_DAYS = (42, 91, 182)
# The model triple is fixed: from the package's default start, vg_calibrate
# stalls or lands in a wrong basin for many others (see the README).
VG_PARAMS = (0.0, 0.3, 3.0)
VG_RATE = 0.015
VG_DIVIDEND = 0.01
VOLUME_FLOOR = 100
THIN_SHARE = 0.12
MIN_PRICE = 0.125


@dataclass(frozen=True)
class Quote:
    is_call: bool
    strike: float
    ttm_days: int
    bid: float
    ask: float
    volume: int

    @property
    def tau(self) -> float:
        return self.ttm_days / DAYS_PER_YEAR

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)


@dataclass(frozen=True)
class Day:
    """One trading day and the model that priced it: vol_coeffs (level,
    skew, term) for Black-Scholes, or vg_params (theta, sigma, alpha)."""

    date: dt.date
    spot: float
    rate: float
    dividend: float
    div_hist: float
    quotes: tuple[Quote, ...]
    vol_coeffs: tuple[float, float, float] | None = None
    vg_params: tuple[float, float, float] | None = None

    def vol_at(self, strike: float, tau: float) -> float:
        level, skew, term = self.vol_coeffs
        return level + skew * (strike / self.spot - 1.0) + term * tau

    def price(self, is_call: bool, strike: float, tau: float, vol: float | None = None) -> float:
        """Reference price of any contract under this day's model."""
        if self.vg_params is not None:
            return reference.vg_price(is_call, self.spot, strike, self.rate, self.dividend,
                                      tau, *self.vg_params)
        if vol is None:
            vol = self.vol_at(strike, tau)
        return reference.bs_price(is_call, self.spot, strike, self.rate, self.dividend, vol, tau)


def weekdays(count: int) -> list[dt.date]:
    days, current = [], START_DATE
    while len(days) < count:
        if current.weekday() < 5:
            days.append(current)
        current += dt.timedelta(days=1)
    return days


def _spread(price: float) -> tuple[float, float]:
    half = min(max(0.005, 0.015 * price), price)
    return price - half, price + half


def bs_world(seed: int, n_days: int) -> list[Day]:
    """The seed moves prices, not the shape of the chain: every day lists the
    same strikes and expiries, and the same number of calls and of puts
    trade thin, so the work changes little from seed to seed."""
    rng = np.random.default_rng([seed, 1])
    spot0 = float(rng.uniform(95.0, 105.0))
    grid = [spot0 * (0.6 + 0.025 * i) for i in range(33)]
    rate = float(rng.uniform(0.01, 0.025))
    dividend = float(rng.uniform(0.005, 0.02))
    coeffs = (float(rng.uniform(0.22, 0.25)), float(rng.uniform(-0.2, -0.14)),
              float(rng.uniform(-0.01, 0.01)))
    expiries = [START_DATE + dt.timedelta(days=d) for d in EXPIRY_OFFSETS_DAYS]
    days = []
    spot = spot0
    for date in weekdays(n_days):
        if days:
            spot *= math.exp(0.006 * float(rng.standard_normal()))
        day = Day(date, spot, rate, dividend, dividend + float(rng.uniform(-0.002, 0.002)),
                  (), vol_coeffs=coeffs)
        quotes = []
        for expiry in expiries:
            ttm = (expiry - date).days
            if ttm < 2:
                continue
            tau = ttm / DAYS_PER_YEAR
            width = 0.9 * math.sqrt(tau) + 0.05
            for strike in grid:
                if abs(math.log(strike / spot0)) > width:
                    continue
                vol = day.vol_at(strike, tau)
                for is_call in (True, False):
                    bid, ask = _spread(day.price(is_call, strike, tau, vol))
                    quotes.append(Quote(is_call, strike, ttm, bid, ask,
                                        int(rng.integers(VOLUME_FLOOR, 3000))))
        for is_call in (True, False):
            kind = [i for i, q in enumerate(quotes) if q.is_call == is_call]
            for i in rng.choice(kind, size=round(THIN_SHARE * len(kind)), replace=False):
                quotes[i] = dataclasses.replace(quotes[i],
                                                volume=int(rng.integers(0, VOLUME_FLOOR)))
        days.append(dataclasses.replace(day, quotes=tuple(quotes)))
    return days


def vg_world(seed: int, n_days: int, n_strikes: int) -> list[Day]:
    """The seed sets each day's spot and nothing else: strikes are fixed
    shares of spot and prices are homogeneous in (spot, strike), so the
    calibration problem, and its work, is the same for every seed."""
    rng = np.random.default_rng([seed, 2])
    days = []
    for date in weekdays(n_days):
        spot = float(rng.uniform(80.0, 120.0))
        day = Day(date, spot, VG_RATE, VG_DIVIDEND, VG_DIVIDEND, (), vg_params=VG_PARAMS)
        quotes = []
        for ttm in VG_MATURITIES_DAYS:
            for ratio in np.linspace(0.9, 1.15, n_strikes):
                strike = float(spot * ratio)
                price = day.price(False, strike, ttm / DAYS_PER_YEAR)
                quotes.append(Quote(False, strike, ttm, price, price, 1000))
        days.append(dataclasses.replace(day, quotes=tuple(quotes)))
    return days


def query_grid(seed: int, day: Day, n_strikes: int, n_taus: int) -> list[tuple[float, float]]:
    """A jittered (strike, tau) grid reaching well past the quoted region on
    every side, so queries fall inside and outside the training hull and
    none sits exactly on its boundary."""
    rng = np.random.default_rng([seed, 3, day.date.toordinal()])
    d_strike = 1.1 * day.spot / n_strikes
    d_tau = 900.0 / DAYS_PER_YEAR / n_taus
    strikes = 0.5 * day.spot + d_strike * (np.arange(n_strikes) + 0.5)
    taus = d_tau * (np.arange(n_taus) + 0.5)
    queries = []
    for strike in strikes:
        for tau in taus:
            queries.append((float(strike + d_strike * rng.uniform(-0.4, 0.4)),
                            float(tau + d_tau * rng.uniform(-0.4, 0.4))))
    return queries


def write_chain_csv(days: list[Day], path: Path) -> None:
    """The chain file schema that pricelab reads, floats in repr form."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "kind", "strike", "expiry", "bid", "ask", "volume",
                         "spot", "rate", "div_hist"])
        for day in days:
            for q in day.quotes:
                expiry = day.date + dt.timedelta(days=q.ttm_days)
                writer.writerow([day.date.isoformat(), "C" if q.is_call else "P",
                                 repr(q.strike), expiry.isoformat(), repr(q.bid), repr(q.ask),
                                 str(q.volume), repr(day.spot), repr(day.rate),
                                 repr(day.div_hist)])


def kept_puts(day: Day) -> list[Quote]:
    """The puts that survive the liquidity filter and the trim: the test and
    training quotes of the evaluate protocol."""
    return [q for q in day.quotes
            if not q.is_call and q.volume >= VOLUME_FLOOR and q.mid >= MIN_PRICE]
