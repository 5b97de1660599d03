"""Option-chain data model and CSV persistence.

A chain file is one CSV holding any number of trading days. Required
columns, in any order:

    date,kind,strike,expiry,bid,ask,volume,spot,rate,div_hist

The file is UTF-8, and a leading byte-order mark is ignored. The header
names each required column exactly once and nothing else but the
optional implied_vol column; spaces around a name are ignored.
Every other non-blank line is a row with exactly as many fields as the
header. Blank lines are skipped, and so is a row whose every field is
blank, as a spreadsheet writes an empty row of bare commas. Dates are ISO
(YYYY-MM-DD), kind is C or P, volume fits in 64 bits, and the per-day
market environment (spot, rate, div_hist) must repeat identically on
every row of that day. The implied_vol column is written back when
requested, blank where the input has none. It only passes through:
pricelab inverts its own vols and never reads it.

A DailyChain holds a day's quotes as columns, one array per field, and
nothing else, however it was built; the filters and the protocol work on
masks and slices of them. load_chains parses a file a block of rows at a
time, each block a column at a time, and builds no per-quote object, nor
does synth_chain. Each row check is written once, as a mask over a
block's rows in one ordered table: the first row that any mask rejects
names the error, with the message of its first failing check.
DailyChain.quotes is the same quotes as OptionQuote records, for callers
that want one object per quote: it builds them from the columns on each
call. DailyChain.contract_mids is the one table of a day's contracts, and
the one place that picks their quotes.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
_MAX_VOLUME = int(np.iinfo(np.int64).max)
_EPOCH = dt.date(1970, 1, 1).toordinal()

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


def _datetime64(ordinals: list[int]) -> np.ndarray:
    """datetime64[D] of the dates with these date.toordinal() values."""
    return (np.array(ordinals, dtype=np.int64) - _EPOCH).view("datetime64[D]")


class DailyChain:
    """All quotes of one trading day, as columns, plus that day's environment.

    Entry i of every column belongs to quote i: kinds (OptionKind
    members), strikes, expiries (datetime64[D]), ttm_days, bids, asks,
    volumes (int64) and implied_vols (NaN where the quote has none). The
    columns are read-only, and they are all a chain holds, however it was
    built: DailyChain(env, quotes) takes OptionQuote records, keeps their
    columns and drops the records, and .quotes builds records from the
    columns on each call. Two chains are equal when their environments
    and columns are.
    """

    _COLUMNS = ("kinds", "strikes", "expiries", "ttm_days", "bids", "asks", "volumes",
                "implied_vols")

    def __init__(self, env: MarketEnv, quotes: Iterable[OptionQuote] = ()):
        quotes = tuple(quotes)
        self._set_columns(
            env,
            np.array([q.kind for q in quotes], dtype=object),
            np.array([q.strike for q in quotes], dtype=float),
            _datetime64([q.expiry.toordinal() for q in quotes]),
            np.array([q.ttm_days for q in quotes], dtype=np.int64),
            np.array([q.bid for q in quotes], dtype=float),
            np.array([q.ask for q in quotes], dtype=float),
            np.array([q.volume for q in quotes], dtype=np.int64),
            np.array([math.nan if q.implied_vol is None else q.implied_vol for q in quotes],
                     dtype=float),
        )

    @classmethod
    def _of_columns(cls, env: MarketEnv, *columns: np.ndarray) -> "DailyChain":
        chain = cls.__new__(cls)
        chain._set_columns(env, *columns)
        return chain

    def _set_columns(self, env: MarketEnv, *columns: np.ndarray) -> None:
        self.env = env
        for name, column in zip(self._COLUMNS, columns, strict=True):
            column.flags.writeable = False
            setattr(self, name, column)

    @property
    def quotes(self) -> tuple[OptionQuote, ...]:
        """The quotes as OptionQuote records, in column order, built from
        the columns on each call: the chain keeps none."""
        vols = [None if math.isnan(v) else v for v in self.implied_vols.tolist()]
        return tuple(map(
            OptionQuote, self.kinds.tolist(), self.strikes.tolist(), self.expiries.tolist(),
            self.ttm_days.tolist(), self.bids.tolist(), self.asks.tolist(),
            self.volumes.tolist(), vols,
        ))

    @property
    def mids(self) -> np.ndarray:
        """Mid prices from the columns, rounded as OptionQuote.mid rounds them."""
        return 0.5 * (self.bids + self.asks)

    @property
    def taus(self) -> np.ndarray:
        """Times to expiry in years from the columns, rounded as OptionQuote.tau rounds them."""
        return self.ttm_days / DAYS_PER_YEAR

    def __len__(self) -> int:
        return len(self.strikes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DailyChain):
            return NotImplemented
        return self.env == other.env and all(
            np.array_equal(getattr(self, name), getattr(other, name),
                           equal_nan=name == "implied_vols")
            for name in self._COLUMNS
        )

    def __repr__(self) -> str:
        return f"DailyChain({self.env!r}, <{len(self)} quotes>)"

    def select(self, which: np.ndarray) -> "DailyChain":
        """The chain of the quotes that which picks, a boolean mask or an
        index array, in that order."""
        return DailyChain._of_columns(self.env,
                                      *(getattr(self, name)[which] for name in self._COLUMNS))

    def of_kind(self, kind: OptionKind) -> "DailyChain":
        return self.select(self.kinds == kind)

    def contract_mids(self) -> dict[OptionKind, dict[tuple[float, float], float]]:
        """The day's mid of each contract, {kind: {(tau, strike): mid}}: in
        one day, tau names the expiry. Where a contract is quoted more than
        once, its last quote counts."""
        taus, strikes, mids = self.taus, self.strikes, self.mids
        # dict keeps the last value of a repeated key.
        return {kind: dict(zip(zip(taus[of].tolist(), strikes[of].tolist()), mids[of].tolist()))
                for kind in OptionKind for of in [self.kinds == kind]}


def quote_sort_key(q: OptionQuote):
    """Canonical within-day quote order, for callers that hold records:
    kind, then expiry, then strike. Chains hold columns, which the package
    puts in this order with _quote_order; no package code sorts records."""
    return (q.kind.value, q.expiry, q.strike)


def _quote_order(kinds: np.ndarray, strikes: np.ndarray, expiries: np.ndarray,
                 *major: np.ndarray) -> np.ndarray:
    """The stable sort that puts quotes in canonical order: by the major
    keys (the most significant last), then kind (calls first), expiry and
    strike. Loading, saving and synth_chain all order quotes by it, so
    chain files have one well-defined byte representation."""
    return np.lexsort((strikes, expiries, kinds == OptionKind.PUT, *major))


# Rows parsed per block. One block's text is alive at a time, so a parse
# needs memory for the columns and one block, whatever the file's length.
_BLOCK_ROWS = 512

# The environment of each day met so far: its first row's line number and
# (spot, rate, div_hist).
_Envs = dict[dt.date, tuple[int, tuple[float, float, float]]]


def _read_distinct(texts: Sequence[str], read: Callable[[str], object],
                   default: object) -> tuple[list, np.ndarray]:
    """read of each text, each distinct text read once, and the mask of the
    texts that read rejects with ValueError, which read as default."""
    value: dict[str, object] = {}
    rejected: set[str] = set()
    for text in set(texts):
        try:
            value[text] = read(text)
        except ValueError:
            value[text] = default
            rejected.add(text)
    bad = (np.array([text in rejected for text in texts]) if rejected
           else np.zeros(len(texts), dtype=bool))
    return [value[text] for text in texts], bad


def _parse_block(names: list[str], rows: list[list[str]], lines: list[int],
                 envs: _Envs) -> tuple[np.ndarray, ...]:
    """The block's dates and then DailyChain's columns, parsed and checked
    a column at a time. Adds the days that the block starts to envs.

    checks holds each check once, as the mask of the rows it rejects and
    the message of such a row, in the order a row takes them: each
    column's parse, then the values, the implied vol and the day's
    environment, which is its first row's (from envs for the days of
    earlier blocks). The block's first rejected row raises ChainParseError
    with the message of its first failing check."""
    text = dict(zip(names, zip(*rows)))
    checks: list[tuple[np.ndarray, Callable[[int], str]]] = []

    def iso_dates(name: str) -> np.ndarray:
        # date.fromisoformat, unlike numpy, reads 20120103 as a date and rejects NaT.
        ordinals, bad = _read_distinct(
            text[name], lambda t: dt.date.fromisoformat(t.strip()).toordinal(), _EPOCH)
        checks.append((bad, lambda i: f"bad {name} {text[name][i]!r}, expected YYYY-MM-DD"))
        return _datetime64(ordinals)

    def numbers(name: str, to_number: type = float,
                present: np.ndarray | bool = True) -> np.ndarray:
        texts = text[name]
        try:
            values = np.array(texts, dtype=np.int64 if to_number is int else float)
            bad = np.zeros(len(texts), dtype=bool)
        except (ValueError, OverflowError):  # OverflowError: an int beyond int64
            # Only a column that numpy rejects is read a text at a time, to find
            # the texts that fail. Ints stay Python ints, so that a volume
            # beyond int64 keeps its value.
            values, bad = _read_distinct(texts, to_number, 0)
            values = np.array(values, dtype=object if to_number is int else float)
        checks.append((bad, lambda i: f"bad {name} {texts[i]!r}"))
        if to_number is float:
            checks.append((~np.isfinite(values) & present,
                           lambda i: f"non-finite {name} {texts[i]!r}"))
        return values

    dates, expiries = iso_dates("date"), iso_dates("expiry")
    kinds, bad = _read_distinct(text["kind"], lambda t: OptionKind(t.strip()), None)
    checks.append((bad, lambda i: f"bad kind {text['kind'][i].strip()!r}, expected C or P"))
    kinds = np.array(kinds, dtype=object)
    strikes, bids, asks = numbers("strike"), numbers("bid"), numbers("ask")
    volumes = numbers("volume", int)
    spots, rates, div_hists = numbers("spot"), numbers("rate"), numbers("div_hist")

    ttm_days = (expiries - dates).astype(np.int64)
    checks += [
        (strikes <= 0.0, lambda i: f"strike must be positive, got {strikes[i]}"),
        (spots <= 0.0, lambda i: f"spot must be positive, got {spots[i]}"),
        (bids < 0.0, lambda i: f"bid must be non-negative, got {bids[i]}"),
        (asks < bids, lambda i: f"crossed quote: bid {bids[i]} > ask {asks[i]}"),
        (volumes < 0, lambda i: f"volume must be non-negative, got {volumes[i]}"),
        (volumes > _MAX_VOLUME,
         lambda i: f"volume must be at most {_MAX_VOLUME}, got {volumes[i]}"),
        (ttm_days < 0, lambda i: f"expiry {expiries[i]} precedes quote date {dates[i]}"),
    ]
    if "implied_vol" in text:
        vol_texts = [t.strip() for t in text["implied_vol"]]
        text["implied_vol"] = [t or "nan" for t in vol_texts]  # blank: no vol, not a fault
        vols = numbers("implied_vol", present=np.array([bool(t) for t in vol_texts]))
    else:
        vols = np.full(len(rows), math.nan)

    days, first, day_of_row = np.unique(dates, return_index=True, return_inverse=True)
    started = {day: (lines[i], (float(spots[i]), float(rates[i]), float(div_hists[i])))
               for day, i in zip(days.tolist(), first.tolist()) if day not in envs}
    known = [envs.get(day) or started[day] for day in days.tolist()]
    row_envs = np.column_stack([spots, rates, div_hists])
    expected = np.array([env for _, env in known])[day_of_row]

    def conflict(i: int) -> str:
        first_line, seen = known[day_of_row[i]]
        diffs = ", ".join(f"{name} {old} != {new}" for name, old, new
                          in zip(("spot", "rate", "div_hist"), seen, row_envs[i].tolist())
                          if old != new)
        return f"environment for {dates[i]} conflicts with line {first_line}: {diffs}"

    checks.append(((row_envs != expected).any(axis=1), conflict))
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(bad.argmax())
        raise ChainParseError(lines[i], next(message(i) for mask, message in checks if mask[i]))
    envs.update(started)
    # astype: a volume column read a text at a time holds Python ints.
    return (dates, kinds, strikes, expiries, ttm_days, bids, asks,
            volumes.astype(np.int64, copy=False), vols)


def _parsed_blocks(reader, names: list[str], envs: _Envs) -> Iterator[tuple[np.ndarray, ...]]:
    """_parse_block of the non-blank rows after the header, _BLOCK_ROWS rows
    at a time. A row of the wrong width raises once the rows before it in
    its block have passed their checks."""
    rows: list[list[str]] = []
    lines: list[int] = []
    for fields in reader:
        if not "".join(fields).strip():
            continue  # a blank line, or an empty spreadsheet row
        if len(fields) != len(names):
            if rows:
                _parse_block(names, rows, lines, envs)
            raise ChainParseError(reader.line_num, "wrong number of fields")
        rows.append(fields)
        lines.append(reader.line_num)
        if len(rows) == _BLOCK_ROWS:
            yield _parse_block(names, rows, lines, envs)
            rows, lines = [], []
    if rows:
        yield _parse_block(names, rows, lines, envs)


def load_chains(path: str | Path) -> list[DailyChain]:
    """Parse a chain CSV into per-day chains, sorted by date.

    Checks the header once, then every row's width, fields (prices,
    volume, date ordering) and environment against its day's first row,
    column by column; any violation raises ChainParseError naming the
    first offending line.
    """
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
        envs: _Envs = {}
        blocks = list(_parsed_blocks(reader, names, envs))
    if not blocks:
        return []

    dates, *columns = (np.concatenate(column) for column in zip(*blocks))
    kinds, strikes, expiries = columns[:3]
    days, day_of_row = np.unique(dates, return_inverse=True)
    order = _quote_order(kinds, strikes, expiries, day_of_row)
    columns = [column[order] for column in columns]
    stops = np.cumsum(np.bincount(day_of_row)).tolist()
    return [
        DailyChain._of_columns(MarketEnv(day, *envs[day][1]),
                               *(column[start:stop] for column in columns))
        for day, start, stop in zip(days.tolist(), [0] + stops[:-1], stops)
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
            date, spot, rate, div_hist = (env.date.isoformat(), repr(float(env.spot)),
                                          repr(float(env.rate)), repr(float(env.div_hist)))
            order = _quote_order(chain.kinds, chain.strikes, chain.expiries)
            picked = (chain.kinds, chain.strikes, chain.expiries, chain.bids, chain.asks,
                      chain.volumes, chain.implied_vols)
            for kind, strike, expiry, bid, ask, volume, vol in zip(
                    *(column[order].tolist() for column in picked)):
                row = [date, kind.value, repr(strike), expiry.isoformat(), repr(bid), repr(ask),
                       str(volume), spot, rate, div_hist]
                if include_iv:
                    row.append("" if math.isnan(vol) else repr(vol))
                writer.writerow(row)


def filter_liquidity(
    chain: DailyChain,
    min_ttm_days: int = DEFAULT_MIN_TTM_DAYS,
    min_volume: int = DEFAULT_MIN_VOLUME,
) -> DailyChain:
    """Drop quotes expiring too soon or too thinly traded (inclusive bounds)."""
    return chain.select((chain.ttm_days >= min_ttm_days) & (chain.volumes >= min_volume))


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
    if vols.shape != (len(chain),):
        raise ValueError(f"{vols.size} vols for {len(chain)} quotes")
    return (chain.mids >= min_price) & (vols <= max_iv)  # False for a NaN vol
