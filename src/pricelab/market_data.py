"""Option-chain data model and CSV persistence.

A chain file is one CSV holding any number of trading days. Required
columns, in any order:

    date,kind,strike,expiry,bid,ask,volume,spot,rate,div_hist

The file is UTF-8, and a leading byte-order mark is ignored. The header
names each required column exactly once and nothing else but the
optional implied_vol column; spaces around a name are ignored.
Every other non-blank line is a row with exactly as many fields as the
header, and blank lines are skipped. Dates are ISO (YYYY-MM-DD), kind is
C or P, and the per-day market environment (spot, rate, div_hist) must
repeat identically on every row of that day. The implied_vol column is
written back when requested, blank where the input has none. It only
passes through: pricelab inverts its own vols and never reads it.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ChainParseError

# Calendar-day year fraction used everywhere a maturity in days becomes
# a year fraction.
DAYS_PER_YEAR = 365.0

_REQUIRED_COLUMNS = (
    "date",
    "kind",
    "strike",
    "expiry",
    "bid",
    "ask",
    "volume",
    "spot",
    "rate",
    "div_hist",
)
_OPTIONAL_COLUMNS = ("implied_vol",)

# Liquidity-filter defaults: drop quotes expiring in under a day or with
# volume under 100 contracts. Bounds are inclusive for retention.
DEFAULT_MIN_TTM_DAYS = 1
DEFAULT_MIN_VOLUME = 100

# Trim defaults: drop quotes priced under 1/8 or with implied vol above
# 0.7. Bounds are inclusive for retention.
DEFAULT_MAX_IV = 0.7
DEFAULT_MIN_PRICE = 0.125


class OptionKind(enum.Enum):
    CALL = "C"
    PUT = "P"


@dataclass(frozen=True)
class OptionQuote:
    """One quoted option: static terms plus the day's bid/ask/volume."""

    kind: OptionKind
    strike: float
    expiry: dt.date
    ttm_days: int
    bid: float
    ask: float
    volume: int
    implied_vol: float | None = None  # the CSV's optional column, only passed through

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)

    @property
    def tau(self) -> float:
        """Time to expiry in years."""
        return self.ttm_days / DAYS_PER_YEAR


@dataclass(frozen=True)
class MarketEnv:
    """Per-day market environment: spot, flat short rate, and the
    historical dividend-yield estimate, which parity.historical_curve
    turns into the day's curve when no option-implied one is available."""

    date: dt.date
    spot: float
    rate: float
    div_hist: float


@dataclass(frozen=True)
class DailyChain:
    """All quotes of one trading day plus that day's environment."""

    env: MarketEnv
    quotes: tuple[OptionQuote, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.quotes)

    def of_kind(self, kind: OptionKind) -> "DailyChain":
        return DailyChain(self.env, tuple(q for q in self.quotes if q.kind == kind))


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


def quote_sort_key(q: OptionQuote):
    """Canonical within-day quote order: kind, then expiry, then strike.
    Loading and saving both normalize to it, so chain files have one
    well-defined byte representation."""
    return (q.kind.value, q.expiry, q.strike)


def load_chains(path: str | Path) -> list[DailyChain]:
    """Parse a chain CSV into per-day chains, sorted by date.

    Checks the header once, then each row's width, fields (prices, volume,
    date ordering) and environment against its day's first row; any
    violation raises ChainParseError with the offending line number.
    """
    days: dict[dt.date, tuple[MarketEnv, int, list[OptionQuote]]] = {}

    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ChainParseError(1, "empty file, expected a header row")
        names = [name.strip() for name in header]
        missing = [c for c in _REQUIRED_COLUMNS if c not in names]
        unexpected = [c for c in names if c not in _REQUIRED_COLUMNS + _OPTIONAL_COLUMNS]
        repeated = list(dict.fromkeys(c for i, c in enumerate(names) if c in names[:i]))
        if missing or unexpected or repeated:
            raise ChainParseError(
                1,
                f"bad header: missing {missing or 'none'}, unexpected {unexpected or 'none'}, "
                f"repeated {repeated or 'none'}",
            )
        index = {name: i for i, name in enumerate(names)}
        (i_date, i_kind, i_strike, i_expiry, i_bid, i_ask, i_volume,
         i_spot, i_rate, i_div_hist) = (index[c] for c in _REQUIRED_COLUMNS)
        i_iv = index.get("implied_vol")

        for fields in reader:
            if not fields:
                continue  # a blank line
            line = reader.line_num
            if len(fields) != len(names):
                raise ChainParseError(line, "wrong number of fields")
            date = _parse_date(fields[i_date], line, "date")
            expiry = _parse_date(fields[i_expiry], line, "expiry")
            kind_text = fields[i_kind].strip()
            try:
                kind = OptionKind(kind_text)
            except ValueError:
                raise ChainParseError(line, f"bad kind {kind_text!r}, expected C or P") from None

            strike = _parse_float(fields[i_strike], line, "strike")
            bid = _parse_float(fields[i_bid], line, "bid")
            ask = _parse_float(fields[i_ask], line, "ask")
            volume = _parse_int(fields[i_volume], line, "volume")
            spot = _parse_float(fields[i_spot], line, "spot")
            rate = _parse_float(fields[i_rate], line, "rate")
            div_hist = _parse_float(fields[i_div_hist], line, "div_hist")

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
            ttm_days = (expiry - date).days
            if ttm_days < 0:
                raise ChainParseError(line, f"expiry {expiry} precedes quote date {date}")

            iv: float | None = None
            if i_iv is not None:
                text = fields[i_iv].strip()
                if text:
                    iv = _parse_float(text, line, "implied_vol")

            if date not in days:
                days[date] = (MarketEnv(date, spot, rate, div_hist), line, [])
            env, first_line, quotes = days[date]
            seen, given = (env.spot, env.rate, env.div_hist), (spot, rate, div_hist)
            if seen != given:
                diffs = ", ".join(
                    f"{name} {old} != {new}"
                    for name, old, new in zip(("spot", "rate", "div_hist"), seen, given)
                    if old != new
                )
                raise ChainParseError(
                    line, f"environment for {date} conflicts with line {first_line}: {diffs}"
                )
            quotes.append(OptionQuote(kind=kind, strike=strike, expiry=expiry, ttm_days=ttm_days,
                                      bid=bid, ask=ask, volume=volume, implied_vol=iv))

    return [
        DailyChain(env, tuple(sorted(quotes, key=quote_sort_key)))
        for env, _, quotes in sorted(days.values(), key=lambda day: day[0].date)
    ]


def save_chains(chains: Iterable[DailyChain], path: str | Path, include_iv: bool = False) -> None:
    """Write chains back out in the input schema.

    Floats are written with shortest round-trip repr, so load(save(x))
    reproduces x exactly. Pass include_iv=True to append the implied_vol
    column (blank for quotes without one).
    """
    path = Path(path)
    columns = list(_REQUIRED_COLUMNS) + (["implied_vol"] if include_iv else [])
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for chain in sorted(chains, key=lambda c: c.env.date):
            env = chain.env
            for q in sorted(chain.quotes, key=quote_sort_key):
                row = [
                    env.date.isoformat(),
                    q.kind.value,
                    repr(float(q.strike)),
                    q.expiry.isoformat(),
                    repr(float(q.bid)),
                    repr(float(q.ask)),
                    str(q.volume),
                    repr(float(env.spot)),
                    repr(float(env.rate)),
                    repr(float(env.div_hist)),
                ]
                if include_iv:
                    row.append("" if q.implied_vol is None else repr(float(q.implied_vol)))
                writer.writerow(row)


def filter_liquidity(
    chain: DailyChain,
    min_ttm_days: int = DEFAULT_MIN_TTM_DAYS,
    min_volume: int = DEFAULT_MIN_VOLUME,
) -> DailyChain:
    """Drop quotes expiring too soon or too thinly traded (inclusive bounds)."""
    kept = tuple(
        q for q in chain.quotes if q.ttm_days >= min_ttm_days and q.volume >= min_volume
    )
    return DailyChain(chain.env, kept)


def trim_mask(
    chain: DailyChain,
    vols: np.ndarray,
    max_iv: float = DEFAULT_MAX_IV,
    min_price: float = DEFAULT_MIN_PRICE,
) -> np.ndarray:
    """True for each quote the trim keeps, in quote order: mid at least
    min_price and vol (one per quote, as fill_implied_vols returns them) at
    most max_iv. A quote whose vol is NaN (not invertible) is not kept."""
    vols = np.asarray(vols, dtype=float)
    if vols.shape != (len(chain.quotes),):
        raise ValueError(f"{vols.size} vols for {len(chain.quotes)} quotes")
    mids = np.array([q.mid for q in chain.quotes], dtype=float)
    return (mids >= min_price) & (vols <= max_iv)  # False for a NaN vol
