"""The four workloads: inputs, the timed body, and the checks.

Each workload runs pricelab as a user does: in-process, serial
(workers=1), with no thread-count variable set. run() is the timed body.
The warm-up output goes through first_check(), which checks it against
the reference pricers and the properties of each method and keeps it as
the reference; check() then requires every later repetition to equal it.
Both return Counts for one repetition.

An operation is one test quote priced by one label, or one predict call
in price-grid. A FAILED record counts as failed, and so does an exception
that escapes the program.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import worlds
from reference import CheckFailed, bs_price
from pricelab import cli, estimators, harness, market_data, parity
from pricelab.errors import PricelabError
from pricelab.estimators import PredictStatus
from pricelab.market_data import DailyChain, MarketEnv, OptionKind, OptionQuote
from pricelab.reporting import ErrorStatus

HULL_LABELS = ("LI", "LIB", "BS", "NW", "BSNW")
ALL_LABELS = ("LI", "LIB", "BS", "NW", "BSNW", "NWCV", "BSNWCV")
PARTITIONS = ("all", "hull", "nohull", "gt1")
# The protocol split of the VG workload does not follow the seed: which
# quotes are held out changes the work of a calibration by several percent.
VG_MASTER_SEED = 20120103
# evaluate-all runs on one world whatever the seed. On some seeds LOO-CV
# picks bandwidths below the quote spacing and a held-out quote then fails
# with NumericalUnderflow. On this world BSNWCV fails that way on three
# quotes, the same three in every run.
EVALUATE_ALL_WORLD_SEED = 7
# Queries closer than this to a hull boundary, in (strike/spot, tau), are
# not held to either side of it.
HULL_MARGIN = 1e-6


@dataclass(frozen=True)
class Counts:
    attempted: int
    failed: int
    priced: int


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def n_test(n: int) -> int:
    """Held-out count of the protocol's 90/10 split of n quotes."""
    if n < 2:
        return 0
    return n - min(math.ceil(0.9 * n), n - 1)


def to_chain(day: worlds.Day) -> DailyChain:
    quotes = [OptionQuote(OptionKind.CALL if q.is_call else OptionKind.PUT, q.strike,
                          day.date + dt.timedelta(days=q.ttm_days), q.ttm_days,
                          q.bid, q.ask, q.volume)
              for q in day.quotes]
    quotes.sort(key=market_data.quote_sort_key)
    return DailyChain(MarketEnv(day.date, day.spot, day.rate, day.div_hist), tuple(quotes))


def record_counts(records) -> Counts:
    failed = sum(1 for r in records if r.status is ErrorStatus.FAILED)
    priced = sum(1 for r in records
                 if r.status in (ErrorStatus.PRICED, ErrorStatus.EXTRAPOLATED))
    return Counts(len(records), failed, priced)


class Workload:
    reference_counts: Counts
    expected_ops: int

    def failed_repetition(self) -> Counts:
        """Counts of a repetition that an exception ended."""
        return Counts(self.expected_ops, self.expected_ops, 0)

    def warm_up(self):
        """The first repetition, whose output first_check() takes."""
        return self.run()


class Evaluate(Workload):
    """pricelab evaluate --trim on a chain CSV, through cli.main."""

    def __init__(self, labels: tuple[str, ...], n_days: int, world_seed: int | None = None):
        self.labels = labels
        self.n_days = n_days
        self.world_seed = world_seed

    def setup(self, seed: int, workdir: Path) -> None:
        if self.world_seed is not None:
            seed = self.world_seed
        self.days = worlds.bs_world(seed, self.n_days)
        self.chain_path = workdir / "chains.csv"
        self.report_dir = workdir / "reports"
        worlds.write_chain_csv(self.days, self.chain_path)
        self.n_held_out = sum(n_test(len(worlds.kept_puts(day))) for day in self.days)
        self.expected_ops = self.n_held_out * len(self.labels)
        self.argv = ["evaluate", "--input", str(self.chain_path), "--trim",
                     "--labels", ",".join(self.labels), "--output-dir", str(self.report_dir),
                     "--seed", str(seed)]

    def run(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def warm_up(self):
        """run(), also keeping the ProtocolResult that cli.main discards."""
        captured = []
        original = cli.run_protocol

        def capture(*args, **kwargs):
            captured.append(original(*args, **kwargs))
            return captured[-1]

        cli.run_protocol = capture
        try:
            status = self.run()
        finally:
            cli.run_protocol = original
        return status, captured

    def _reports(self) -> dict[str, bytes]:
        return {path.name: path.read_bytes()
                for path in sorted(self.report_dir.glob("report_*.csv"))}

    def _clear_reports(self) -> None:
        """Delete the reports, so that the next repetition must write them again."""
        for path in self.report_dir.glob("report_*.csv"):
            path.unlink()

    def first_check(self, output) -> Counts:
        status, captured = output
        require(status == 0 and len(captured) == 1, f"evaluate exited with status {status}")
        records = captured[0].errors
        self.reference_reports = self._reports()
        expected = {f"report_{label}_{part}.csv" for label in self.labels for part in PARTITIONS}
        require(set(self.reference_reports) == expected, "missing or extra report files")
        self._clear_reports()

        days = {day.date: day for day in self.days}
        by_label = {label: [r for r in records if r.label == label] for label in self.labels}
        held_out = None
        for label, rows in by_label.items():
            keys = sorted((r.date, r.strike, r.tau) for r in rows)
            require(len(keys) == self.n_held_out,
                    f"{label} priced {len(keys)} held-out quotes, expected {self.n_held_out}")
            require(held_out is None or keys == held_out,
                    f"{label} held out other quotes than {self.labels[0]}")
            held_out = keys
            stats = {part: self._report_stats(label, part) for part in PARTITIONS}
            failed = sum(1 for r in rows if r.status is ErrorStatus.FAILED)
            require(stats["all"]["count"] == stats["hull"]["count"] + stats["nohull"]["count"]
                    + failed, f"{label}: count(all) != count(hull) + count(nohull) + failed")
            require(stats["all"]["count"] == len(rows), f"{label}: report count != records")

        errors = []
        for r in by_label["BS"]:
            if r.status is ErrorStatus.PRICED:
                true = days[r.date].price(False, r.strike, r.tau)
                errors.append(abs(r.est_price / true - 1.0))
        require(bool(errors), "BS priced no held-out quote inside its hull")
        mean_error = sum(errors) / len(errors)
        require(mean_error < 1e-6, f"BS hull mean relative error {mean_error:.3e} >= 1e-6")
        require(abs(self._report_stats("BS", "hull")["mean"] / 100.0 - mean_error) < 1e-6,
                "BS hull report mean disagrees with its records")

        priced = {label: {(r.date, r.strike, r.tau) for r in rows
                          if r.status is ErrorStatus.PRICED}
                  for label, rows in by_label.items()}
        require(priced["LI"] <= priced["LIB"], "LIB skipped a quote that LI priced")
        self.reference_counts = record_counts(records)
        return self.reference_counts

    def _report_stats(self, label: str, partition: str) -> dict[str, float]:
        text = self.reference_reports[f"report_{label}_{partition}.csv"].decode()
        stats = {}
        for row in csv.reader(io.StringIO(text)):
            if row and row[0] in ("count", "mean"):
                stats[row[0]] = float(row[1]) if row[1] else float("nan")
        return stats

    def check(self, status: int) -> Counts:
        if status != 0:
            return self.failed_repetition()
        reports = self._reports()
        self._clear_reports()
        require(reports == self.reference_reports, "report CSVs differ between two repetitions")
        return self.reference_counts


class _Hull:
    """Convex hull of 2-D points by Andrew's monotone chain, counter-clockwise,
    with the signed distance of query points to it: positive inside."""

    def __init__(self, points):
        pts = sorted(set(points))
        lower, upper = [], []
        for chain, seq in ((lower, pts), (upper, pts[::-1])):
            for p in seq:
                while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                    chain.pop()
                chain.append(p)
        self.start = np.array(lower[:-1] + upper[:-1])
        edge = np.roll(self.start, -1, axis=0) - self.start
        self.inward = np.column_stack([-edge[:, 1], edge[:, 0]]) / np.hypot(
            edge[:, 0], edge[:, 1])[:, None]

    def signed_distance(self, queries: np.ndarray) -> np.ndarray:
        offsets = queries[:, None, :] - self.start[None, :, :]
        return np.min(np.einsum("qek,ek->qe", offsets, self.inward), axis=1)


def silverman(column: np.ndarray) -> float:
    """Silverman's rule of thumb, 0.9 min(sd, IQR/1.34) n^(-1/5)."""
    q1, q3 = np.percentile(column, [25.0, 75.0])
    return 0.9 * min(float(np.std(column, ddof=1)), float(q3 - q1) / 1.34) * len(column) ** -0.2


def kernel_mean(strikes, taus, values, bandwidths, strike: float, tau: float) -> float:
    """Gaussian-kernel weighted mean of values at (strike, tau)."""
    z = ((strike - strikes) / bandwidths[0]) ** 2 + ((tau - taus) / bandwidths[1]) ** 2
    weights = np.exp(-0.5 * (z - z.min()))
    return float(weights @ values / weights.sum())


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _attempt(fn, *args):
    """One operation; an exception escaping the program is its failure."""
    try:
        return fn(*args)
    except Exception:
        return None


class PriceGrid(Workload):
    """The steps of pricelab price on calls, once per day and label, then
    predict over a dense query grid inside and outside the hull."""

    def __init__(self, n_days: int, n_strikes: int, n_taus: int):
        self.n_days = n_days
        self.grid = (n_strikes, n_taus)

    def setup(self, seed: int, workdir: Path) -> None:
        self.days = worlds.bs_world(seed, self.n_days)
        self.chains = [to_chain(day) for day in self.days]
        self.queries = [worlds.query_grid(seed, day, *self.grid) for day in self.days]
        self.expected_ops = sum(len(q) for q in self.queries) * len(HULL_LABELS)

    def run(self):
        output = []
        for chain, queries in zip(self.chains, self.queries):
            liquid = market_data.filter_liquidity(chain)
            try:
                curve = parity.estimate_dividend_curve(liquid)
            except PricelabError:
                curve = None
            calls = liquid.of_kind(OptionKind.CALL).quotes
            for label in HULL_LABELS:
                estimator = _attempt(estimators.fit, estimators.EstimatorLabel(label),
                                     OptionKind.CALL, calls, liquid.env, curve)
                output.append([None if estimator is None
                               else _attempt(estimators.predict, estimator, k, t)
                               for k, t in queries])
        return output

    def first_check(self, output) -> Counts:
        require(len(output) == len(self.days) * len(HULL_LABELS), "missing predictions")
        rows = iter(output)
        for day, queries in zip(self.days, self.queries):
            results = dict(zip(HULL_LABELS, (next(rows) for _ in HULL_LABELS)))
            self._check_day(day, np.array(queries), results)
        self.reference = [[None if p is None else (p.status, p.price, p.extrapolated)
                           for p in row] for row in output]
        self.reference_counts = self._counts(output)
        return self.reference_counts

    def _check_day(self, day, queries, results) -> None:
        train = [q for q in day.quotes
                 if q.is_call and q.volume >= worlds.VOLUME_FLOOR and q.ttm_days >= 1]
        points = [(q.strike / day.spot, q.tau) for q in train]
        strikes = [q.strike for q in train]
        hull = _Hull(points)
        lib_hull = _Hull(points + [(min(strikes) / day.spot, 0.0),
                                   (max(strikes) / day.spot, 0.0)])
        scaled = np.column_stack([queries[:, 0] / day.spot, queries[:, 1]])
        depth = hull.signed_distance(scaled)
        lib_depth = lib_hull.signed_distance(scaled)
        mids = [q.mid for q in train]
        train_strikes = np.array(strikes)
        train_taus = np.array([q.tau for q in train])
        bandwidths = silverman(train_strikes), silverman(train_taus)
        vols = [day.vol_at(q.strike, q.tau) for q in train]
        where = f"price-grid {day.date}"

        for i, (strike, tau) in enumerate(queries):
            inside, outside = depth[i] > HULL_MARGIN, depth[i] < -HULL_MARGIN
            p = {label: results[label][i] for label in HULL_LABELS}
            at = f"{where} query ({strike:.6g}, {tau:.6g})"
            for label in ("LI", "BS"):
                if outside and p[label] is not None:
                    require(p[label].status is PredictStatus.OUTSIDE_HULL,
                            f"{label} priced {at} outside its hull")
            if lib_depth[i] < -HULL_MARGIN and p["LIB"] is not None:
                require(p["LIB"].status is PredictStatus.OUTSIDE_HULL,
                        f"LIB priced {at} outside its hull")
            if inside:
                require(p["LI"] is not None and p["LI"].status is PredictStatus.PRICED,
                        f"LI did not price {at} inside its hull")
                bs = p["BS"]
                if bs is not None and bs.status is PredictStatus.PRICED:
                    true = day.price(True, strike, tau)
                    require(abs(bs.price / true - 1.0) <= 1e-6,
                            f"BS price {bs.price} at {at} is off the closed form {true}")
            nw = p["NW"]
            if nw is not None and nw.status is PredictStatus.PRICED:
                require(min(mids) * (1 - 1e-12) <= nw.price <= max(mids) * (1 + 1e-12),
                        f"NW price {nw.price} at {at} leaves the training price range")
                expected = kernel_mean(train_strikes, train_taus, np.array(mids), bandwidths,
                                       strike, tau)
                require(abs(nw.price - expected) <= 1e-9 * max(1.0, expected),
                        f"NW price {nw.price} at {at} differs from the kernel mean {expected}")
            bsnw = p["BSNW"]
            if bsnw is not None and bsnw.status is PredictStatus.PRICED:
                low = bs_price(True, day.spot, strike, day.rate, day.dividend, min(vols), tau)
                high = bs_price(True, day.spot, strike, day.rate, day.dividend, max(vols), tau)
                require(low * (1 - 1e-9) - 1e-12 <= bsnw.price <= high * (1 + 1e-9) + 1e-12,
                        f"BSNW price {bsnw.price} at {at} leaves [{low}, {high}]")
            if inside or outside:
                for label in ("NW", "BSNW"):
                    if p[label] is not None and p[label].status is PredictStatus.PRICED:
                        require(p[label].extrapolated == outside,
                                f"{label} extrapolation flag wrong at {at}")

    @staticmethod
    def _counts(output) -> Counts:
        flat = [p for row in output for p in row]
        failed = sum(1 for p in flat if p is None or p.status is PredictStatus.FAILED)
        priced = sum(1 for p in flat if p is not None and p.status is PredictStatus.PRICED)
        return Counts(len(flat), failed, priced)

    def check(self, output) -> Counts:
        require([[None if p is None else (p.status, p.price, p.extrapolated) for p in row]
                 for row in output] == self.reference, "predictions differ between repetitions")
        return self.reference_counts


class VgEvaluate(Workload):
    """run_protocol with the VG label on put chains of the VG model."""

    def __init__(self, n_days: int, n_strikes: int):
        self.n_days = n_days
        self.n_strikes = n_strikes

    def setup(self, seed: int, workdir: Path) -> None:
        self.days = worlds.vg_world(seed, self.n_days, self.n_strikes)
        self.chains = [to_chain(day) for day in self.days]
        self.config = harness.ProtocolConfig(labels=("VG",), trim=True,
                                             master_seed=VG_MASTER_SEED)
        self.expected_ops = sum(n_test(len(worlds.kept_puts(day))) for day in self.days)

    def run(self):
        return harness.run_protocol(self.chains, self.config).errors

    def first_check(self, records) -> Counts:
        require(len(records) == self.expected_ops,
                f"VG priced {len(records)} held-out puts, expected {self.expected_ops}")
        days = {day.date: day for day in self.days}
        for r in records:
            if r.status is ErrorStatus.FAILED:
                continue
            true = days[r.date].price(False, r.strike, r.tau)
            require(abs(r.est_price / true - 1.0) <= 1e-4,
                    f"VG price {r.est_price} of the put ({r.strike}, {r.tau}) on {r.date} "
                    f"is off the reference {true}")
        self.reference = records
        self.reference_counts = record_counts(records)
        return self.reference_counts

    def check(self, records) -> Counts:
        require(records == self.reference, "VG records differ between repetitions")
        return self.reference_counts


def make(name: str, smoke: bool = False) -> Workload:
    """The workload of that name, at its benchmark size or its smoke size."""
    if name == "evaluate-hull":
        return Evaluate(HULL_LABELS, 2 if smoke else 6)
    if name == "evaluate-all":
        return Evaluate(ALL_LABELS, 2 if smoke else 6, EVALUATE_ALL_WORLD_SEED)
    if name == "price-grid":
        return PriceGrid(1, 12, 10) if smoke else PriceGrid(2, 40, 30)
    if name == "vg-evaluate":
        return VgEvaluate(1, 3) if smoke else VgEvaluate(1, 5)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("evaluate-hull", "evaluate-all", "price-grid", "vg-evaluate")
