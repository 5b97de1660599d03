"""Release acceptance gate.

Each test covers one acceptance criterion end to end, prints a single
ACCEPTANCE line (run with -s to see them), and enforces the criterion's
runtime budget. Tolerances here are the contract; loosening them is a
release decision, not a test fix.
"""

import contextlib
import math
import time
from collections import defaultdict

import numpy as np
import pytest

import pricelab.kernel as kernel
from oracles import cv_grid, cv_objective_at, gamma_expectation
from pricelab.black_scholes import (
    bs_price,
    implied_vol,
    iv_dividend_sensitivity,
)
from pricelab.errors import NoArbitrageViolation
from pricelab.harness import ProtocolConfig, run_protocol
from pricelab.kernel import (
    Bandwidths,
    NwModel,
    loo_cv_bandwidths,
    nw_estimate,
    silverman_bandwidths,
)
from pricelab.market_data import OptionKind
from pricelab.parity import estimate_dividend_curve, itm_parity_audit
from pricelab.reporting import CDF_THRESHOLDS, ErrorStatus
from pricelab.synth import synth_chain
from pricelab.variance_gamma import (
    VgParams,
    vg_calibrate,
    vg_price_mc,
    vg_price_quadrature,
)

CALL, PUT = OptionKind.CALL, OptionKind.PUT

# Every Nelder-Mead search a criterion runs, LOO-CV's and VG's, is run
# again through scipy at teardown and must give its result bit for bit.
pytestmark = pytest.mark.usefixtures("simplex_searches")

# Criteria 7 and 8 share one synthetic world and one protocol run; the
# first test to need it pays the cost and the stash serves the other.
_WORLD: dict = {}


@pytest.fixture(autouse=True)
def cv_grids_match_the_brute_force_grid(monkeypatch):
    """Every LOO-CV grid a criterion searches (criterion 6's selector, and
    NWCV's and BSNWCV's in the protocol runs) must be the brute-force
    grid's, bit for bit."""
    screened = kernel._cv_grid

    def checked(points, values, objective):
        grid = screened(points, values, objective)
        expected = cv_grid(points, values)
        assert (grid[0], grid[1].hex()) == (expected[0], expected[1].hex())
        return grid

    monkeypatch.setattr(kernel, "_cv_grid", checked)


@contextlib.contextmanager
def criterion(number, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.1f}s over {budget_s}s budget)")
        raise AssertionError(f"{name} took {elapsed:.1f}s, budget {budget_s}s")
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_1_bs_round_trip():
    with criterion(1, "bs-round-trip", budget_s=1.0):
        spot, rate, dividend = 100.0, 0.02, 0.01
        degenerate = []
        worst = 0.0
        for ratio in np.linspace(0.7, 1.3, 10):
            for vol in np.linspace(0.05, 0.7, 10):
                for tau in np.linspace(0.02, 2.0, 5):
                    kind = PUT if ratio < 1.0 else CALL  # quote out of the money
                    strike = spot * float(ratio)
                    price = bs_price(kind, spot, strike, rate, dividend, float(vol), float(tau))
                    if price == 0.0:
                        # The quote collapsed onto the arbitrage bound: no
                        # float64 inverter can recover a vol from it.
                        with pytest.raises(NoArbitrageViolation):
                            implied_vol(kind, price, spot, strike, rate, dividend, float(tau))
                        degenerate.append((float(ratio), float(vol), float(tau)))
                        continue
                    got = implied_vol(kind, price, spot, strike, rate, dividend, float(tau))
                    worst = max(worst, abs(got - float(vol)))
        assert worst <= 1e-8
        assert degenerate == [(0.7, 0.05, 0.02)]


def test_2_bs_identity_and_dividend_sensitivity():
    with criterion(2, "bs-identity-and-dividend-sensitivity", budget_s=5.0):
        rng = np.random.default_rng(20120103)
        n = 10_000
        spot = rng.uniform(20.0, 200.0, n)
        strike = spot * rng.uniform(0.75, 1.3, n)
        rate = rng.uniform(-0.01, 0.08, n)
        dividend = rng.uniform(0.0, 0.05, n)
        vol = rng.uniform(0.08, 0.7, n)
        tau = rng.uniform(0.05, 2.5, n)
        srt = vol * np.sqrt(tau)
        d1 = (np.log(spot / strike) + (rate - dividend + 0.5 * vol**2) * tau) / srt
        d2 = d1 - srt
        lhs = spot * np.exp(-dividend * tau - 0.5 * d1 * d1)
        rhs = strike * np.exp(-rate * tau - 0.5 * d2 * d2)
        assert float(np.max(np.abs(lhs / rhs - 1.0))) <= 1e-12

        h = 1e-6
        for _ in range(100):
            s = float(rng.uniform(50.0, 200.0))
            strike = s * float(rng.uniform(0.95, 1.25))
            rate = float(rng.uniform(-0.01, 0.08))
            dividend = float(rng.uniform(0.0, 0.06))
            vol = float(rng.uniform(0.15, 0.8))
            tau = float(rng.uniform(0.25, 2.5))
            price = bs_price(CALL, s, strike, rate, dividend, vol, tau)
            up = implied_vol(CALL, price, s, strike, rate, dividend + h, tau)
            dn = implied_vol(CALL, price, s, strike, rate, dividend - h, tau)
            assert iv_dividend_sensitivity(s, strike, rate, dividend, vol, tau) == pytest.approx(
                (up - dn) / (2.0 * h), rel=1e-5)


def test_3_implied_dividend_recovery():
    with criterion(3, "implied-dividend-recovery", budget_s=1.0):
        for q in (0.0, 0.01, 0.03):
            chain = synth_chain("bs", dividend=q)[0]
            curve = estimate_dividend_curve(chain)
            assert float(np.max(np.abs(curve.yields - q))) <= 1e-10
            audit = itm_parity_audit([(chain, curve)])
            assert audit.n_errors > 0
            assert audit.mean < 1e-10  # percent, so stricter than fractional
            assert audit.extra["unmatched_itm"] == 0.0


def test_4_vg_identities_and_monte_carlo():
    with criterion(4, "vg-identities-and-mc", budget_s=30.0):
        rng = np.random.default_rng(20120103)
        spot, rate, dividend = 100.0, 0.02, 0.01
        triples = []
        while len(triples) < 20:
            theta = float(rng.uniform(-0.3, 0.3))
            sigma = float(rng.uniform(0.1, 0.6))
            alpha = float(rng.uniform(0.8, 6.0))
            # Admissible with margin, and square-integrable so the Monte
            # Carlo standard error below is meaningful.
            if theta + 0.5 * sigma**2 < alpha - 0.05 and 2.0 * theta + sigma**2 < alpha - 0.05:
                triples.append(VgParams(theta, sigma, alpha))

        agree = 0
        for i, params in enumerate(triples):
            w = params.theta + 0.5 * params.sigma**2
            for tau in (0.25, 1.0):
                mgf = gamma_expectation(None, tau, params.alpha, log_f=lambda g: w * g)
                assert abs(mgf * math.exp(params.eta * tau) - 1.0) <= 1e-8

            strike = spot * float(rng.uniform(0.85, 1.2))
            tau = float(rng.uniform(0.3, 1.5))
            call = vg_price_quadrature(CALL, spot, strike, rate, dividend, tau, params)
            put = vg_price_quadrature(PUT, spot, strike, rate, dividend, tau, params)
            carry = spot * math.exp(-dividend * tau) - strike * math.exp(-rate * tau)
            assert abs(call - put - carry) <= 1e-8

            kind = PUT if i % 2 else CALL
            quad = put if i % 2 else call
            mc = vg_price_mc(kind, spot, strike, rate, dividend, tau, params,
                             n=10_000, seed=i)
            agree += abs(mc.price - quad) <= 3.0 * mc.stderr
        assert agree >= 19


def test_5_vg_calibration_self_consistency(vg_day):
    with criterion(5, "vg-calibration-self-consistency", budget_s=60.0):
        env = vg_day.env
        quotes = [(q.strike, q.tau, q.mid) for q in vg_day.quotes if q.kind is PUT]
        assert len(quotes) == 40 and all(p >= 0.5 for _, _, p in quotes)
        params, objective = vg_calibrate(
            quotes, PUT, env.spot, env.rate, env.div_hist, init=(0.0, 0.3, 2.0)
        )
        assert objective <= 1e-8
        for strike, tau, mid in quotes:
            refit = vg_price_quadrature(PUT, env.spot, strike, env.rate,
                                        env.div_hist, tau, params)
            assert refit == pytest.approx(mid, rel=1e-4)


def test_6_kernel_regression_properties():
    with criterion(6, "kernel-regression-properties", budget_s=30.0):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            strikes = rng.uniform(50.0, 150.0, n)
            taus = rng.uniform(0.05, 2.0, n)
            values = rng.uniform(0.5, 30.0, n)
            eps = silverman_bandwidths(np.column_stack([strikes, taus]))
            model = NwModel(strikes, taus, values, eps)
            k, t = float(rng.uniform(40.0, 160.0)), float(rng.uniform(0.01, 2.5))
            est = nw_estimate(model, k, t)
            assert values.min() - 1e-12 <= est <= values.max() + 1e-12
            # The estimate is the weighted-least-squares constant, so the
            # weighted residuals must sum to zero.
            weights = np.exp(-0.5 * ((k - strikes) / eps.eps1) ** 2
                             - 0.5 * ((t - taus) / eps.eps2) ** 2)
            resid = float(np.sum(weights * (values - est)))
            assert abs(resid) <= 1e-10 * float(np.sum(weights)) * max(1.0, abs(est))

            wide = NwModel(strikes, taus, values, Bandwidths(1e9, 1e9))
            assert nw_estimate(wide, k, t) == pytest.approx(float(values.mean()), rel=1e-9)

            center = float(rng.uniform(80.0, 120.0))
            mirrored = NwModel(2.0 * center - strikes, taus, values, eps)
            assert nw_estimate(mirrored, 2.0 * center - k, t) == pytest.approx(est, rel=1e-12)

        lone = NwModel([100.0], [0.5], [7.25], Bandwidths(5.0, 0.5))
        for k, t in [(100.0, 0.5), (93.0, 0.1), (110.0, 1.5)]:
            assert nw_estimate(lone, k, t) == 7.25

        # 32 values with unit standard deviation and interquartile range
        # exactly 1.34: min(1, 1.34/1.34) = 1, and 0.9 / 32^(1/5) = 0.45.
        outer = math.sqrt((31.0 - 20.0 * 0.67**2) / 12.0)
        column = np.array([-outer] * 6 + [-0.67] * 10 + [0.67] * 10 + [outer] * 6)
        eps = silverman_bandwidths(np.column_stack([column, column]))
        assert eps.eps1 == pytest.approx(0.45, abs=1e-12)
        assert eps.eps2 == pytest.approx(0.45, abs=1e-12)

        strikes, taus = (a.ravel() for a in np.meshgrid(
            np.linspace(80.0, 120.0, 9), np.linspace(0.1, 2.0, 5)))
        smooth = 10.0 * (strikes / 100.0 - 1.0) ** 2 + taus + 2.0
        noisy = smooth * np.exp(0.05 * np.random.default_rng(11).standard_normal(strikes.size))
        points = np.column_stack([strikes, taus])
        chosen = loo_cv_bandwidths(points, noisy)
        assert cv_objective_at(points, noisy, chosen) <= (
            cv_objective_at(points, noisy, silverman_bandwidths(points)) + 1e-15
        )


def world_protocol():
    if "result" not in _WORLD:
        _WORLD["chains"] = synth_chain("bs", n_days=20, dividend=0.01)
        _WORLD["config"] = ProtocolConfig(trim=True, labels=("LI", "BS", "NW", "NWCV", "LIB"))
        _WORLD["result"] = run_protocol(_WORLD["chains"], _WORLD["config"])
    return _WORLD["config"], _WORLD["result"]


def test_7_synthetic_world_protocol(tmp_path):
    with criterion(7, "synthetic-world-protocol", budget_s=300.0):
        config, result = world_protocol()

        bs_hull = result.report("BS", "hull")
        assert bs_hull.mean / 100.0 < 1e-6  # report means are percentages
        assert bs_hull.cdf[1.0] == 1.0
        for label in ("LI", "NW", "NWCV"):
            assert result.report(label, "all").mean > 0.0

        failures = defaultdict(int)
        for record in result.errors:
            failures[record.label] += record.status is ErrorStatus.FAILED
        for label in config.labels:
            counts = {p: result.report(label, p).count for p in config.partitions}
            assert counts["all"] == counts["hull"] + counts["nohull"] + failures[label]
            assert counts["gt1"] <= counts["all"]
            for report in (result.report(label, p) for p in config.partitions):
                if report.n_errors == 0:
                    assert all(v != v for v in report.cdf.values())
                    continue
                levels = [report.cdf[t] for t in CDF_THRESHOLDS]
                assert all(0.0 <= v <= 1.0 for v in levels)
                assert all(a <= b for a, b in zip(levels, levels[1:]))

        rerun = run_protocol(_WORLD["chains"], config)
        first = result.write(tmp_path / "a")
        second = rerun.write(tmp_path / "b")
        assert [p.name for p in first] == [p.name for p in second]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))


def test_8_hull_accounting_and_augmentation():
    with criterion(8, "hull-accounting-and-augmentation"):
        config, result = world_protocol()

        by_day = defaultdict(list)
        for record in result.errors:
            by_day[(record.label, record.date)].append(record)
        days = {date for _, date in by_day}
        assert len(days) == 20
        for (label, date), records in by_day.items():
            tally = defaultdict(int)
            for record in records:
                tally[record.status] += 1
            in_hull = tally[ErrorStatus.PRICED]
            outside = tally[ErrorStatus.OUTSIDE_HULL] + tally[ErrorStatus.EXTRAPOLATED]
            assert len(records) == in_hull + outside + tally[ErrorStatus.FAILED]
            # Every label prices the same held-out queries on each day.
            queries = {(r.strike, r.tau) for r in records}
            assert queries == {(r.strike, r.tau) for r in by_day[("LI", date)]}

        promoted = 0
        for date in days:
            li = {(r.strike, r.tau) for r in by_day[("LI", date)]
                  if r.status is ErrorStatus.PRICED}
            lib = {(r.strike, r.tau) for r in by_day[("LIB", date)]
                   if r.status is ErrorStatus.PRICED}
            assert li <= lib
            promoted += len(lib - li)
        # The augmented hull must reach quotes the plain hull missed,
        # and never lose one it had.
        assert promoted > 0

# Per-label status counts on the acceptance world, as
# (priced, extrapolated, outside_hull, failed). Integer counts do not
# depend on the machine, so any drift of the hull test shows here.
_PINNED_STATUS_COUNTS = {
    "LI": (69, 0, 11, 0),
    "LIB": (77, 0, 3, 0),
    "BS": (69, 0, 11, 0),
    "NW": (69, 11, 0, 0),
    "NWCV": (69, 11, 0, 0),
    "BSNW": (69, 11, 0, 0),
    "BSNWCV": (69, 11, 0, 0),
}


def test_hull_accounting_counts_are_pinned():
    config, result = world_protocol()
    extra = run_protocol(_WORLD["chains"], ProtocolConfig(trim=True, labels=("BSNW", "BSNWCV")))
    statuses = (ErrorStatus.PRICED, ErrorStatus.EXTRAPOLATED,
                ErrorStatus.OUTSIDE_HULL, ErrorStatus.FAILED)
    tally = defaultdict(int)
    for record in result.errors + extra.errors:
        tally[(record.label, record.status)] += 1
    counts = {label: tuple(tally[(label, status)] for status in statuses)
              for label in _PINNED_STATUS_COUNTS}
    assert counts == _PINNED_STATUS_COUNTS
