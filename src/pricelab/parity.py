"""Put-call parity with a dividend yield, and what it buys you.

For European options on the same strike and expiry,

    C - P = S e^{-q tau} - K e^{-r tau},

so a call/put pair reveals the market's dividend yield:

    q = -(1/tau) log[(C - P + K e^{-r tau}) / S],

which implied_dividend(call_mid, put_mid, spot, strike, rate, tau)
computes, taking the market in parity_price's order. At-the-money pairs
give the cleanest read (their prices carry the most time value relative
to intrinsic), so the per-day dividend curve is the per-maturity median
over ATM pairs. The same identity prices an illiquid in-the-money
option off its liquid out-of-the-money counterpart; itm_parity_audit,
which pricelab audit runs, measures how well that works over any number
of (chain, curve) days. Both read a contract's quote from
DailyChain.contract_mids, the one place that picks it: where a day
quotes a contract more than once, its last quote counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NoAtmPairs
from .market_data import DailyChain, MarketEnv, OptionKind
from .reporting import ErrorReport, ErrorStatus, PricingError, aggregate

# Moneyness band: with M = log(K / forward), a quote is at the money
# when M is within [log 0.95, log 1.05].
ATM_LO = math.log(0.95)
ATM_HI = math.log(1.05)


class Moneyness(enum.Enum):
    ITM = "ITM"
    ATM = "ATM"
    OTM = "OTM"


@dataclass(frozen=True)
class MoneynessClass:
    value: float
    label: Moneyness


def parity_price(
    kind: OptionKind,
    counterpart_mid: float,
    spot: float,
    strike: float,
    rate: float,
    dividend: float,
    tau: float,
) -> float:
    """Price an option of the given kind from its opposite-kind counterpart.

    Returns the parity value as-is: a negative value (crossed or stale
    inputs) is returned, not raised."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    carry = spot * math.exp(-dividend * tau) - strike * math.exp(-rate * tau)
    if kind is OptionKind.CALL:
        return counterpart_mid + carry
    return counterpart_mid - carry


def implied_dividend(call_mid: float, put_mid: float, spot: float, strike: float, rate: float,
                     tau: float) -> float:
    """Dividend yield implied by the call and put mids of one strike and expiry.

    Raises ValueError when C - P + K e^{-r tau} is non-positive (crossed
    or stale quotes make the log argument invalid)."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    argument = (call_mid - put_mid + strike * math.exp(-rate * tau)) / spot
    if argument <= 0.0:
        raise ValueError(f"parity log argument {argument} is non-positive; quotes are inconsistent")
    return -math.log(argument) / tau


def forward_price(spot: float, rate: float, dividend: float, tau: float) -> float:
    """Forward of the underlying at horizon tau."""
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    return spot * math.exp((rate - dividend) * tau)


def _log_moneyness(strike: float, forward: float) -> float:
    if strike <= 0.0:
        raise ValueError(f"strike must be positive, got {strike}")
    return math.log(strike / forward)


def _at_the_money(value: float) -> bool:
    """Whether a log-moneyness lies in the ATM band."""
    return ATM_LO <= value <= ATM_HI


def _moneyness(kind: OptionKind, value: float) -> Moneyness:
    """The bucket of a log-moneyness: calls are in the money below the
    band and out above it; puts the reverse."""
    if _at_the_money(value):
        return Moneyness.ATM
    if value < ATM_LO:
        return Moneyness.ITM if kind is OptionKind.CALL else Moneyness.OTM
    return Moneyness.OTM if kind is OptionKind.CALL else Moneyness.ITM


def _forwards(env: MarketEnv, taus: Iterable[float]) -> dict[float, float]:
    """classify_moneyness's forward at each distinct positive tau."""
    return {tau: forward_price(env.spot, env.rate, env.div_hist, tau)
            for tau in set(taus) if tau > 0.0}


def classify_moneyness(kind: OptionKind, strike: float, env: MarketEnv, tau: float) -> MoneynessClass:
    """Log-moneyness against the day's forward, bucketed to ITM/ATM/OTM.

    The forward uses the environment's rate and historical dividend, so
    classification never depends on the option-implied dividend it is
    often used to estimate.
    """
    value = _log_moneyness(strike, forward_price(env.spot, env.rate, env.div_hist, tau))
    return MoneynessClass(value, _moneyness(kind, value))


class DividendCurve:
    """Piecewise-linear dividend yield in tau, constant outside the knots."""

    def __init__(self, taus, yields):
        taus = np.asarray(taus, dtype=float)
        yields = np.asarray(yields, dtype=float)
        if taus.size == 0:
            raise ValueError("a dividend curve needs at least one knot")
        if taus.size != yields.size:
            raise ValueError("knot and yield counts differ")
        order = np.argsort(taus)
        taus, yields = taus[order], yields[order]
        if not np.all(np.diff(taus) > 0.0):  # false at a NaN knot too
            raise ValueError("knot maturities must be strictly increasing")
        self.taus = taus
        self.yields = yields

    def value_at(self, tau: float) -> float:
        return float(np.interp(tau, self.taus, self.yields))

    def __repr__(self) -> str:
        knots = ", ".join(f"{t:g}: {q:g}" for t, q in zip(self.taus, self.yields))
        return f"DividendCurve({{{knots}}})"


def _atm_pairs(chain: DailyChain) -> dict[float, list[tuple[float, float, float]]]:
    """ATM call/put pairs keyed by tau, as (strike, call mid, put mid): the
    contracts quoted in both kinds, at their contract mids."""
    mids = chain.contract_mids()
    calls, puts = mids[OptionKind.CALL], mids[OptionKind.PUT]
    paired = calls.keys() & puts.keys()
    forwards = _forwards(chain.env, (tau for tau, _ in paired))
    pairs: dict[float, list[tuple[float, float, float]]] = {}
    for key in paired:
        tau, strike = key
        if tau > 0.0 and _at_the_money(_log_moneyness(strike, forwards[tau])):
            pairs.setdefault(tau, []).append((strike, calls[key], puts[key]))
    return pairs


def estimate_dividend_curve(chain: DailyChain) -> DividendCurve:
    """Per-maturity median implied dividend over the day's ATM pairs.

    Raises NoAtmPairs when no maturity has a usable pair."""
    env = chain.env
    pairs = _atm_pairs(chain)
    knots: list[tuple[float, float]] = []
    for tau in sorted(pairs):
        estimates = []
        for strike, call_mid, put_mid in pairs[tau]:
            try:
                estimates.append(implied_dividend(call_mid, put_mid, env.spot, strike, env.rate, tau))
            except ValueError:
                continue
        if estimates:
            knots.append((tau, float(np.median(estimates))))
    if not knots:
        raise NoAtmPairs(f"no at-the-money call/put pairs on {env.date}")
    return DividendCurve([t for t, _ in knots], [q for _, q in knots])


def historical_curve(env: MarketEnv) -> DividendCurve:
    """The flat curve at env.div_hist, for a day without ATM pairs: one
    knot, so value_at returns div_hist exactly at every tau."""
    return DividendCurve([0.0], [env.div_hist])


def itm_parity_records(chain: DailyChain, curve: DividendCurve) -> tuple[list[PricingError], int]:
    """Per-quote parity audit records plus the skipped-ITM count. Each ITM
    quote is priced off its counterpart's contract mid."""
    env = chain.env
    mids = chain.contract_mids()
    counterparts = {OptionKind.CALL: mids[OptionKind.PUT], OptionKind.PUT: mids[OptionKind.CALL]}
    taus = chain.taus.tolist()
    forwards = _forwards(env, taus)
    records: list[PricingError] = []
    skipped = 0
    for kind, strike, mid, tau in zip(chain.kinds.tolist(), chain.strikes.tolist(),
                                      chain.mids.tolist(), taus):
        if tau <= 0.0:
            continue
        if _moneyness(kind, _log_moneyness(strike, forwards[tau])) is not Moneyness.ITM:
            continue
        counterpart = counterparts[kind].get((tau, strike))
        if counterpart is None or mid <= 0.0:
            skipped += 1
            continue
        estimate = parity_price(kind, counterpart, env.spot, strike, env.rate,
                                curve.value_at(tau), tau)
        records.append(PricingError(date=env.date, label="PARITY", strike=strike, tau=tau,
                                    true_price=mid, est_price=estimate,
                                    rel_error=abs(1.0 - estimate / mid), status=ErrorStatus.PRICED))
    return records, skipped


def itm_parity_audit(days: Iterable[tuple[DailyChain, DividendCurve]]) -> ErrorReport:
    """Reprice every in-the-money quote of each (chain, curve) day off its
    out-of-the-money counterpart via parity and report the relative errors
    of all the days together.

    A counterpart is the opposite kind on the same expiry and strike;
    sharing the log-moneyness, it is out of the money exactly when the
    audited quote is in. Unmatched or zero-mid ITM quotes are skipped
    and counted in the report's extra column.
    """
    audits = [itm_parity_records(chain, curve) for chain, curve in days]
    records = [record for day_records, _ in audits for record in day_records]
    skipped = sum(day_skipped for _, day_skipped in audits)
    return aggregate(records, "all", label="PARITY", extra={"unmatched_itm": float(skipped)})
