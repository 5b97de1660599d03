"""Out-of-sample evaluation protocol.

Each trading day is split 90/10 into training and test quotes with a
seed derived deterministically from (master seed, date), every label is
fit on the training side and asked to price the test side, and each test
quote becomes one PricingError record. evaluate_day is the one place a
day's fits run: it builds the day's one TrainingSet and fits every label
through it, so its implied vols are inverted once (in trim mode they are
prepare_day's own) and each distinct set of training points is
triangulated once. Aggregation slices the records by partition (all,
in-hull, outside-hull, price above one dollar).

The protocol is reproducible end to end: the same input file and master
seed produce byte-identical report files, regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .black_scholes import fill_implied_vols
from .errors import NoAtmPairs
from .estimators import (ESTIMATOR_ERRORS, FAILED_PREDICTION, EstimatorLabel, TrainingSet,
                         predict, prediction_status)
from .market_data import (
    DEFAULT_MAX_IV,
    DEFAULT_MIN_PRICE,
    DEFAULT_MIN_TTM_DAYS,
    DEFAULT_MIN_VOLUME,
    DailyChain,
    OptionKind,
    filter_liquidity,
    trim_mask,
)
from .parity import DividendCurve, estimate_dividend_curve, historical_curve
from .reporting import PARTITIONS, ErrorReport, PricingError, aggregate, write_report_csv

DEFAULT_MASTER_SEED = 20120103
DEFAULT_TRAIN_FRACTION = 0.9
DEFAULT_SPOT_TOLERANCE = 0.05
_BOOLEANS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def day_seed(master_seed: int, date: dt.date) -> int:
    """Stable 63-bit seed for one day, independent of platform and run."""
    digest = hashlib.sha256(f"{master_seed}:{date.isoformat()}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class DaySplit:
    """Index split of one day's quote list into train and test."""

    train: tuple[int, ...]
    test: tuple[int, ...]


def split_day(
    n_quotes: int,
    date: dt.date,
    master_seed: int = DEFAULT_MASTER_SEED,
    fraction: float = DEFAULT_TRAIN_FRACTION,
) -> DaySplit:
    """Random index split: ceil(fraction * n) training quotes, capped at
    n - 1 whenever n >= 2 so the test side is never empty."""
    if n_quotes < 1:
        raise ValueError("cannot split an empty day")
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n_train = math.ceil(fraction * n_quotes)
    if n_quotes >= 2:
        n_train = min(n_train, n_quotes - 1)
    order = np.random.default_rng(day_seed(master_seed, date)).permutation(n_quotes)
    return DaySplit(
        train=tuple(sorted(int(i) for i in order[:n_train])),
        test=tuple(sorted(int(i) for i in order[n_train:])),
    )


def _require_each_once(what: str, names: Sequence[str]) -> None:
    """Raise ValueError unless names lists at least one name, and none twice."""
    if not names:
        raise ValueError(f"at least one {what} is required")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"{what}s listed more than once: {', '.join(repeated)}")


@dataclass(frozen=True)
class ProtocolConfig:
    master_seed: int = DEFAULT_MASTER_SEED
    fraction: float = DEFAULT_TRAIN_FRACTION
    labels: tuple[str, ...] = ("LI", "BS", "NW", "NWCV", "LIB")
    kind: OptionKind = OptionKind.PUT
    trim: bool = False
    min_ttm_days: int = DEFAULT_MIN_TTM_DAYS
    min_volume: int = DEFAULT_MIN_VOLUME
    max_iv: float = DEFAULT_MAX_IV
    min_price: float = DEFAULT_MIN_PRICE
    partitions: tuple[str, ...] = ("all", "hull", "nohull", "gt1")
    workers: int = 1

    def __post_init__(self):
        _require_each_once("label", [label.value for label in self.resolved_labels()])
        for name in self.partitions:
            if name not in PARTITIONS:
                raise ValueError(f"unknown partition {name!r}, expected one of {sorted(PARTITIONS)}")
        _require_each_once("partition", self.partitions)
        if not (0.0 < self.fraction < 1.0):
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    def resolved_labels(self) -> tuple[EstimatorLabel, ...]:
        return tuple(EstimatorLabel(name) for name in self.labels)


def prepare_day(
    chain: DailyChain, config: ProtocolConfig
) -> tuple[DailyChain, DividendCurve, np.ndarray | None]:
    """Shape one raw day for evaluation.

    Applies the liquidity filter, estimates the dividend curve from the
    filtered chain (both kinds; historical_curve when no ATM pairs exist),
    keeps the requested kind, optionally inverts its vols and trims, then
    keeps the positive-mid quotes. The returned chain is exactly what
    split indices refer to. With the trim on, the vols it inverted come
    back too, one per returned quote (none is NaN, the trim drops those);
    without it the vols are None.
    """
    liquid = filter_liquidity(chain, config.min_ttm_days, config.min_volume)
    try:
        curve = estimate_dividend_curve(liquid)
    except NoAtmPairs:
        curve = historical_curve(liquid.env)
    day = liquid.of_kind(config.kind)
    keep = day.mids > 0.0
    vols = None
    if config.trim:
        vols, _ = fill_implied_vols(day, curve)
        keep &= trim_mask(day, vols, config.max_iv, config.min_price)
        vols = vols[keep]
    return day.select(keep), curve, vols


def evaluate_day(
    labels: Sequence[EstimatorLabel],
    day: DailyChain,
    split: DaySplit,
    curve: DividendCurve,
    vols: np.ndarray | None = None,
) -> list[PricingError]:
    """Fit each label on the day's training quotes and price its test quotes.

    curve is the day's dividend curve, as prepare_day returns it. vols,
    when given, holds one implied vol per quote of the day, as prepare_day
    returns them with the trim on; the fits reuse the training side's
    instead of inverting their own. Every label fits on one
    TrainingSet of the training side, and LIB's fictitious strikes span
    the whole day's strikes. The split must hold each index of the day
    exactly once, on one side; any other split raises ValueError.

    One record per test quote and label, label by label. A fit failure
    (too few quotes, stalled calibration, degenerate geometry) marks that
    label's whole day FAILED rather than raising, and so does a test quote
    at tau <= 0, which no estimator prices; per-query failures are
    likewise recorded, not thrown.
    """
    if sorted(split.train + split.test) != list(range(len(day))):
        raise ValueError("split indices do not match the day's quote list")
    kinds = set(day.kinds.tolist())
    if len(kinds) != 1:
        raise ValueError("evaluate_day expects a prepared single-kind day")
    if vols is not None and len(vols) != len(day):
        raise ValueError(f"{len(vols)} vols for a day of {len(day)} quotes")
    labels = [EstimatorLabel(label) for label in labels]
    train = np.array(split.train, dtype=np.intp)
    training = TrainingSet(kinds.pop(), day.select(train), curve,
                           None if vols is None else vols[train])
    lib_strike_range = (float(day.strikes.min()), float(day.strikes.max()))
    test = np.array(split.test, dtype=np.intp)
    held_out = list(zip(day.strikes[test].tolist(), day.taus[test].tolist(),
                        day.mids[test].tolist()))

    records: list[PricingError] = []
    for label in labels:
        try:
            estimator = training.fit(label, lib_strike_range)
        except ESTIMATOR_ERRORS:
            estimator = None
        for strike, tau, mid in held_out:
            prediction = (FAILED_PREDICTION if estimator is None or tau <= 0.0
                          else predict(estimator, strike, tau))
            est_price = prediction.price
            records.append(
                PricingError(
                    date=day.env.date, label=label.value, strike=strike, tau=tau,
                    true_price=mid, est_price=est_price,
                    rel_error=None if est_price is None else abs(1.0 - est_price / mid),
                    status=prediction_status(prediction),
                )
            )
    return records


def _evaluate_one_day(args) -> list[PricingError]:
    chain, config = args
    day, curve, vols = prepare_day(chain, config)
    if len(day) < 2:
        return []
    split = split_day(len(day), day.env.date, config.master_seed, config.fraction)
    return evaluate_day(config.resolved_labels(), day, split, curve, vols)


@dataclass
class ProtocolResult:
    config: ProtocolConfig
    errors: list[PricingError]
    reports: dict[tuple[str, str], ErrorReport] = field(default_factory=dict)

    def report(self, label: str, partition: str) -> ErrorReport:
        return self.reports[(label, partition)]

    def write(self, out_dir: str | Path) -> list[Path]:
        """One CSV per (label, partition), deterministically ordered and
        formatted, so reruns are byte-identical."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for (label, partition) in sorted(self.reports):
            path = out_dir / f"report_{label}_{partition}.csv"
            write_report_csv(self.reports[(label, partition)], path)
            written.append(path)
        return written


def run_protocol(chains: Sequence[DailyChain], config: ProtocolConfig = ProtocolConfig()) -> ProtocolResult:
    """Evaluate every label over every day and aggregate by partition.

    Days run independently (optionally across a worker pool, at most one
    process per day and per CPU); results are collected in input order,
    so the outcome does not depend on scheduling.
    """
    jobs = [(chain, config) for chain in sorted(chains, key=lambda c: c.env.date)]
    workers = min(config.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_day = list(pool.map(_evaluate_one_day, jobs))
    else:
        per_day = [_evaluate_one_day(job) for job in jobs]

    errors = [record for day_records in per_day for record in day_records]
    result = ProtocolResult(config=config, errors=errors)
    for label in config.labels:
        label_records = [e for e in errors if e.label == label]
        for partition in config.partitions:
            result.reports[(label, partition)] = aggregate(label_records, partition, label=label)
    return result


@dataclass(frozen=True)
class CrossDateMatch:
    """The same contract quoted on two days with nearly equal spots."""

    date_a: dt.date
    date_b: dt.date
    kind: OptionKind
    strike: float
    ttm_days: int
    price_a: float
    price_b: float

    @property
    def diff(self) -> float:
        return self.price_b - self.price_a


def cross_date_report(
    chains: Sequence[DailyChain], spot_tolerance: float = DEFAULT_SPOT_TOLERANCE
) -> list[CrossDateMatch]:
    """Stability check: for every pair of days whose spots differ by at
    most the tolerance, list the earlier day's quotes whose contract (kind,
    strike, days to expiry) the later day quotes too, with the later day's
    contract mid and the price difference."""
    chains = sorted(chains, key=lambda c: c.env.date)
    # Each day's (kind, strike, ttm_days, tau, mid) of every quote.
    quotes = [list(zip(c.kinds.tolist(), c.strikes.tolist(), c.ttm_days.tolist(),
                       c.taus.tolist(), c.mids.tolist())) for c in chains]
    contract_mids = [c.contract_mids() for c in chains]
    matches: list[CrossDateMatch] = []
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            a, b = chains[i], chains[j]
            if abs(a.env.spot - b.env.spot) > spot_tolerance:
                continue
            for kind, strike, ttm, tau, mid in quotes[i]:
                other = contract_mids[j][kind].get((tau, strike))
                if other is not None:
                    matches.append(CrossDateMatch(date_a=a.env.date, date_b=b.env.date, kind=kind,
                                                  strike=strike, ttm_days=ttm, price_a=mid,
                                                  price_b=other))
    return matches


def _lookup(table: dict, text: str):
    try:
        return table[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(table)}") from None


# How the text of each config key becomes its ProtocolConfig value.
_CASTS = {
    "master_seed": int,
    "fraction": float,
    "labels": lambda t: tuple(s.strip().upper() for s in t.split(",") if s.strip()),
    "kind": lambda t: _lookup({"put": OptionKind.PUT, "call": OptionKind.CALL}, t),
    "trim": lambda t: _lookup(_BOOLEANS, t),
    "min_ttm_days": int,
    "min_volume": int,
    "max_iv": float,
    "min_price": float,
    "partitions": lambda t: tuple(s.strip() for s in t.split(",") if s.strip()),
    "workers": int,
}


def read_config(path: str | Path) -> dict[str, str]:
    """The key=value lines of a config file (hash comments allowed), as
    {key: text}; apply_config casts them. A key set twice raises
    ValueError naming both lines."""
    settings: dict[str, str] = {}
    lines: dict[str, int] = {}
    text = Path(path).read_text(encoding="utf-8-sig")  # utf-8-sig drops a leading BOM
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {number} {raw_line!r}, expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ValueError(f"config key {key!r} set twice, on lines {lines[key]} and {number}")
        settings[key], lines[key] = value.strip(), number
    return settings


def apply_config(settings: dict[str, str], base: ProtocolConfig = ProtocolConfig()) -> ProtocolConfig:
    """base with each {key: text} setting cast by _CASTS, the same way for a
    config file's line and a command-line flag: kind is put or call, trim
    true/false, 1/0 or yes/no, and labels and partitions comma lists. A
    text that does not cast raises ValueError naming its key."""
    updates: dict = {}
    for key, text in settings.items():
        if key not in _CASTS:
            raise ValueError(f"unknown config key {key!r}")
        updates[key] = cast_text(key, _CASTS[key], text)
    return dataclasses.replace(base, **updates)


def cast_text(name: str, cast, text: str):
    """cast(text), or a ValueError naming the key, flag or variable and
    its text."""
    try:
        return cast(text)
    except ValueError as exc:
        raise ValueError(f"bad {name} {text!r}: {exc}") from None
