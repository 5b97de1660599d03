"""Protocol plumbing: splits, day preparation, evaluation records,
multi-day runs, cross-date matching, and config files."""

from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

import oracles
import pricelab.kernel as kernel
from pricelab.black_scholes import fill_implied_vols
from pricelab.estimators import TrainingSet, fit, predict, prediction_status
from pricelab.harness import (
    DEFAULT_MASTER_SEED,
    DaySplit,
    ProtocolConfig,
    apply_config,
    cross_date_report,
    day_seed,
    evaluate_day,
    prepare_day,
    read_config,
    run_protocol,
    split_day,
)
from pricelab.market_data import (
    DailyChain,
    MarketEnv,
    OptionKind,
    OptionQuote,
    filter_liquidity,
    trim_mask,
)
from pricelab.parity import estimate_dividend_curve, historical_curve
from pricelab.reporting import ErrorStatus, PricingError
from pricelab.synth import synth_chain
from pricelab.variance_gamma import VgParams, vg_price_quadrature

CALL, PUT = OptionKind.CALL, OptionKind.PUT
DAY = date(2012, 1, 3)
NON_VG_LABELS = ("LI", "LIB", "BS", "NW", "NWCV", "BSNW", "BSNWCV")


@pytest.fixture(scope="module")
def noisy_days():
    """Three noisy days with one-week to one-year expiries: 9 to 23 quotes a
    day of each kind fail to invert, and the trim drops others by price and
    by vol."""
    return synth_chain(
        "bs", n_days=3, dividend=0.01, noise=0.02, seed=5,
        strikes=[float(k) for k in np.arange(70.0, 131.0, 2.5)],
        maturities_days=(7, 30, 91, 182, 365),
    )


def make_quote(kind, strike, ttm_days, mid, volume=1000):
    return OptionQuote(
        kind=kind, strike=strike, expiry=DAY + timedelta(days=ttm_days),
        ttm_days=ttm_days, bid=mid, ask=mid, volume=volume,
    )


def test_day_seed_stable_and_distinct():
    seed = day_seed(DEFAULT_MASTER_SEED, DAY)
    assert seed == day_seed(DEFAULT_MASTER_SEED, DAY)
    assert 0 <= seed < 2**63
    assert seed != day_seed(DEFAULT_MASTER_SEED, DAY + timedelta(days=1))
    assert seed != day_seed(DEFAULT_MASTER_SEED + 1, DAY)


def test_split_day_partitions_indices():
    split = split_day(100, DAY)
    assert len(split.train) == 90 and len(split.test) == 10
    assert sorted(split.train + split.test) == list(range(100))
    assert set(split.train).isdisjoint(split.test)
    assert split == split_day(100, DAY)
    assert split.train != tuple(range(90))  # actually shuffled


def test_split_day_sizes():
    assert len(split_day(10, DAY).train) == 9
    # ceil would take everything; the cap keeps one test quote.
    two = split_day(2, DAY)
    assert len(two.train) == 1 and len(two.test) == 1
    lone = split_day(1, DAY)
    assert len(lone.train) == 1 and len(lone.test) == 0
    assert len(split_day(3, DAY).train) == 2


def test_split_day_contracts():
    with pytest.raises(ValueError):
        split_day(0, DAY)
    with pytest.raises(ValueError):
        split_day(10, DAY, fraction=1.0)
    with pytest.raises(ValueError):
        split_day(10, DAY, fraction=0.0)


def test_prepare_day_keeps_requested_kind(bs_days):
    config = ProtocolConfig()
    day, curve, _ = prepare_day(bs_days[0], config)
    assert curve is not None
    assert len(day) == 52
    assert all(q.kind is PUT and q.mid > 0.0 for q in day.quotes)

    calls = prepare_day(bs_days[0], ProtocolConfig(kind=CALL))[0]
    assert all(q.kind is CALL for q in calls.quotes)


def test_prepare_day_trim_drops_cheap_quotes(bs_days):
    plain, _, _ = prepare_day(bs_days[0], ProtocolConfig())
    trimmed, _, _ = prepare_day(bs_days[0], ProtocolConfig(trim=True))
    assert len(trimmed) < len(plain)
    contract = lambda q: (q.kind, q.strike, q.ttm_days)
    assert {contract(q) for q in trimmed.quotes} <= {contract(q) for q in plain.quotes}
    assert all(q.mid >= 0.125 for q in trimmed.quotes)


@pytest.mark.parametrize("kind", [PUT, CALL])
def test_prepare_day_trims_the_kind_as_a_trim_of_both_kinds_would(noisy_days, kind):
    config = ProtocolConfig(trim=True, kind=kind)
    for chain in noisy_days:
        liquid = filter_liquidity(chain)
        curve = estimate_dividend_curve(liquid)
        vols, _ = fill_implied_vols(liquid, curve)
        assert np.isnan(vols[[q.kind is kind for q in liquid.quotes]]).any()
        kept = trim_mask(liquid, vols).tolist()
        expected = tuple(q for q, k in zip(liquid.quotes, kept)
                         if k and q.kind is kind and q.mid > 0.0)
        day, day_curve, _ = prepare_day(chain, config)
        assert day == DailyChain(chain.env, expected)
        assert day_curve.taus.tolist() == curve.taus.tolist()
        assert day_curve.yields.tolist() == curve.yields.tolist()


@pytest.mark.parametrize("kind", [PUT, CALL])
def test_prepare_day_hands_over_the_vols_of_the_quotes_it_keeps(noisy_days, kind):
    for chain in noisy_days:
        day, curve, vols = prepare_day(chain, ProtocolConfig(trim=True, kind=kind))
        assert vols.tobytes() == fill_implied_vols(day, curve)[0].tobytes()
        assert len(vols) == len(day) and not np.isnan(vols).any()
        assert prepare_day(chain, ProtocolConfig(kind=kind))[2] is None
        # BS and BSNW fitted on the protocol's training set, with these
        # vols, drop the quotes they drop when they invert on their own.
        split = split_day(len(day), day.env.date)
        train = [day.quotes[i] for i in split.train]
        training = TrainingSet(kind, DailyChain(day.env, train), curve, vols[list(split.train)])
        for label in ("BS", "BSNW"):
            shared = training.fit(label)
            alone = fit(label, kind, train, day.env, curve)
            assert shared.meta["dropped_noninvertible"] == alone.meta["dropped_noninvertible"] == 0


@pytest.fixture(scope="module")
def calls_day():
    """A noisy day of VG calls alone, so it has no ATM call/put pair, with
    a div_hist of 3% against the 1% that priced it, so the fallback shows
    in every BS-family and VG price. The trim drops 7 of its 52 calls."""
    chain = synth_chain("vg", theta=0.0, sigma=0.3, alpha=3.0,
                        strikes=[float(k) for k in np.arange(80.0, 141.0, 5.0)],
                        maturities_days=(30, 91, 182, 365), noise=0.01, seed=3)[0]
    calls = tuple(q for q in chain.quotes if q.kind is CALL)
    return DailyChain(replace(chain.env, div_hist=0.03), calls)


@pytest.mark.parametrize("trim", [False, True])
def test_prepare_day_without_atm_pairs_returns_the_historical_curve(calls_day, trim):
    _, curve, _ = prepare_day(calls_day, ProtocolConfig(kind=CALL, trim=trim))
    assert curve.taus.tolist() == [0.0]
    assert curve.yields.tolist() == [0.03]


@pytest.mark.parametrize("trim", [False, True])
def test_run_protocol_without_atm_pairs_prices_on_the_historical_curve(calls_day, trim):
    labels = ("BS", "BSNW", "VG")
    result = run_protocol([calls_day], ProtocolConfig(labels=labels, kind=CALL, trim=trim))
    # The same day by hand, each label fitted on an explicit historical curve.
    env, curve = calls_day.env, historical_curve(calls_day.env)
    quotes = filter_liquidity(calls_day).quotes
    if trim:
        vols, _ = fill_implied_vols(DailyChain(env, quotes), curve)
        kept = trim_mask(DailyChain(env, quotes), vols).tolist()
        quotes = tuple(q for q, k in zip(quotes, kept) if k)
    assert trim == (len(quotes) == 45)
    split = split_day(len(quotes), env.date)
    expected = []
    for label in labels:
        estimator = fit(label, CALL, [quotes[i] for i in split.train], env, curve)
        for q in (quotes[i] for i in split.test):
            prediction = predict(estimator, q.strike, q.tau)
            assert prediction.price is not None
            expected.append(PricingError(env.date, label, q.strike, q.tau, q.mid,
                                         prediction.price, abs(1.0 - prediction.price / q.mid),
                                         prediction_status(prediction)))
    assert result.errors == expected


def test_prepare_day_liquidity_filter(bs_days):
    thin = ProtocolConfig(min_volume=2000)
    day, _, _ = prepare_day(bs_days[0], thin)
    assert len(day) == 0


def test_evaluate_day_records(bs_days):
    config = ProtocolConfig()
    day, curve, _ = prepare_day(bs_days[0], config)
    split = split_day(len(day), day.env.date)
    records = evaluate_day(["BS"], day, split, curve)
    assert len(records) == len(split.test)
    assert {r.label for r in records} == {"BS"}
    priced = [r for r in records if r.status is ErrorStatus.PRICED]
    assert priced
    # Flat-vol world: the vol surface is constant, so in-hull repricing
    # is exact up to inversion noise.
    assert all(r.rel_error < 1e-6 for r in priced)
    for r in records:
        if r.status in (ErrorStatus.OUTSIDE_HULL, ErrorStatus.FAILED):
            assert r.est_price is None and r.rel_error is None
        else:
            assert r.est_price is not None and r.rel_error is not None


def test_evaluate_day_rejects_bad_inputs(bs_days):
    config = ProtocolConfig()
    day, curve, _ = prepare_day(bs_days[0], config)
    with pytest.raises(ValueError):
        evaluate_day(["LI"], day, split_day(200, day.env.date), curve)
    mixed_split = split_day(len(bs_days[0]), DAY)
    with pytest.raises(ValueError):
        evaluate_day(["LI"], bs_days[0], mixed_split, curve)


@pytest.mark.parametrize("train, test", [
    (range(1, 13), (0, -1)),
    (range(1, 13), (0, 0)),
    (range(13), (0,)),
    (range(1, 13), (0, 13)),
    (range(2, 13), (0,)),
], ids=["negative index", "repeated index", "index on both sides", "index out of range",
        "missing index"])
def test_evaluate_day_needs_each_index_exactly_once(train, test):
    [chain] = synth_chain("bs", maturities_days=(30,))
    day = chain.of_kind(PUT)
    assert len(day) == 13
    curve = historical_curve(day.env)
    evaluate_day(["LI"], day, DaySplit(tuple(range(1, 13)), (0,)), curve)
    with pytest.raises(ValueError, match="split indices"):
        evaluate_day(["LI"], day, DaySplit(tuple(train), test), curve)


def test_evaluate_day_marks_whole_day_failed_on_fit_error():
    env = MarketEnv(date=DAY, spot=100.0, rate=0.02, div_hist=0.01)
    quotes = tuple(
        make_quote(PUT, strike, 30, mid) for strike, mid in [(95.0, 1.0), (100.0, 2.5), (105.0, 6.0)]
    )
    day = DailyChain(env, quotes)
    split = split_day(3, DAY)
    records = evaluate_day(["LI"], day, split, historical_curve(env))  # LI needs 3, gets 2
    assert len(records) == 1
    assert records[0].status is ErrorStatus.FAILED
    assert records[0].est_price is None


def test_evaluate_day_vg_prices_with_a_one_day_put_in_training():
    # The 1-day put's clock is singular at zero; the log-clock trapezoid
    # prices it, so calibration recovers the model and the held-out put,
    # left of the training hull, prices flagged as extrapolated.
    env = MarketEnv(date=DAY, spot=100.0, rate=0.02, div_hist=0.01)
    params = VgParams(0.0, 0.3, 3.0)
    terms = [(95.0, 1), (100.0, 30), (105.0, 30), (100.0, 91), (95.0, 91)]
    quotes = tuple(
        make_quote(PUT, strike, days,
                   vg_price_quadrature(PUT, 100.0, strike, 0.02, 0.01, days / 365.0, params))
        for strike, days in terms
    )
    split = DaySplit(train=(0, 1, 2, 3), test=(4,))
    [record] = evaluate_day(["VG"], DailyChain(env, quotes), split, historical_curve(env))
    assert record.status is ErrorStatus.EXTRAPOLATED
    assert record.rel_error < 1e-6


def test_an_expiring_test_quote_is_recorded_failed():
    # min_ttm_days = 0 lets puts expiring today into a prepared day. No
    # estimator prices at tau 0, so their records are FAILED for every
    # label, and the other held-out put gets the record it gets without them.
    [chain] = synth_chain("bs")
    puts = chain.of_kind(PUT).quotes
    expiring = tuple(make_quote(PUT, k, 0, k - 100.0 + 0.05) for k in (105.0, 110.0))
    train, n = tuple(range(1, len(puts))), len(puts)
    curve = historical_curve(chain.env)
    records = evaluate_day(NON_VG_LABELS, DailyChain(chain.env, puts + expiring),
                           DaySplit(train, (0, n, n + 1)), curve)
    alone = evaluate_day(NON_VG_LABELS, DailyChain(chain.env, puts),
                         DaySplit(train, (0,)), curve)
    assert records[::3] == alone
    held = [r for i, r in enumerate(records) if i % 3]
    assert len(held) == 2 * len(NON_VG_LABELS)
    assert all(r.status is ErrorStatus.FAILED and r.tau == 0.0 for r in held)


@pytest.mark.parametrize("trim", [False, True])
def test_run_protocol_vg_calibrates_every_day_from_the_default_start(trim):
    # Every day of this world must calibrate from the default start, so
    # no held-out put comes back FAILED.
    chains = synth_chain("vg", n_days=4, theta=-0.1, sigma=0.25, alpha=2.0)
    result = run_protocol(chains, ProtocolConfig(labels=("VG",), trim=trim))
    assert result.errors
    assert all(r.status is not ErrorStatus.FAILED for r in result.errors)


def test_run_protocol_aggregates(bs_days):
    config = ProtocolConfig()
    result = run_protocol(bs_days[:6], config)
    assert set(result.reports) == {
        (label, partition) for label in config.labels for partition in config.partitions
    }
    counts = {label: result.report(label, "all").count for label in config.labels}
    assert len(set(counts.values())) == 1  # every label saw the same test quotes
    assert counts["LI"] == 5 * 6  # 52 prepared quotes per day leave 5 test quotes
    bs_hull = result.report("BS", "hull")
    assert bs_hull.n_errors > 0
    assert bs_hull.mean < 1e-4  # percent


# (count, n_errors, mean, median, max) of each non-VG label's reports on
# noisy_days with the trim on. A change that means to move a reported
# number says so, and updates this table with the reason.
_PINNED_REPORTS = {
    ("LI", "all"): (23, 22, 5.261932566574822, 2.898962381816661, 30.14063988329354),
    ("LI", "nohull"): (1, 0, None, None, None),
    ("LIB", "all"): (23, 23, 7.565474591550788, 3.097115428271602, 58.24339914102205),
    ("LIB", "nohull"): (0, 0, None, None, None),
    ("BS", "all"): (23, 22, 2.3003997468131785, 1.7782184108170007, 9.451843841576569),
    ("BS", "nohull"): (1, 0, None, None, None),
    ("NW", "all"): (23, 23, 82.08728486657921, 12.4109435514543, 1007.8146614578253),
    ("NW", "nohull"): (1, 1, 1007.8146614578253, 1007.8146614578253, 1007.8146614578253),
    ("NWCV", "all"): (23, 23, 22.604713996889547, 4.255081373849312, 331.61506100109915),
    ("NWCV", "nohull"): (1, 1, 331.61506100109915, 331.61506100109915, 331.61506100109915),
    ("BSNW", "all"): (23, 23, 2.452964008884445, 1.8850965932117214, 9.568510808394691),
    ("BSNW", "nohull"): (1, 1, 9.568510808394691, 9.568510808394691, 9.568510808394691),
    ("BSNWCV", "all"): (23, 23, 2.039224717978078, 1.3368317618475567, 5.607623260063854),
    ("BSNWCV", "nohull"): (1, 1, 4.777410367307322, 4.777410367307322, 4.777410367307322),
}


def test_run_protocol_reports_stay_pinned(noisy_days):
    config = ProtocolConfig(labels=NON_VG_LABELS, trim=True, partitions=("all", "nohull"))
    result = run_protocol(noisy_days, config)
    assert set(result.reports) == set(_PINNED_REPORTS)
    for key, (count, n_errors, *stats) in _PINNED_REPORTS.items():
        report = result.reports[key]
        assert (report.count, report.n_errors) == (count, n_errors), key
        got = (report.mean, report.median, report.max)
        for value, pinned in zip(got, stats):
            assert value == (None if pinned is None else pytest.approx(pinned, rel=1e-10)), key


@pytest.mark.parametrize("trim", [False, True])
def test_run_protocol_gives_the_reports_of_a_brute_force_cv_grid(noisy_days, monkeypatch,
                                                                 tmp_path, trim):
    # The grid screen scores few candidates exactly; the fits, records and
    # reports must be those of scoring every candidate.
    config = ProtocolConfig(labels=NON_VG_LABELS, trim=trim)
    screened = run_protocol(noisy_days, config)
    monkeypatch.setattr(kernel, "_cv_grid",
                        lambda points, values, objective: oracles.cv_grid(points, values))
    brute = run_protocol(noisy_days, config)
    assert screened.errors == brute.errors
    assert screened.reports.keys() == brute.reports.keys()
    written = zip(screened.write(tmp_path / "screened"), brute.write(tmp_path / "brute"))
    assert all(a.read_bytes() == b.read_bytes() for a, b in written)


def test_run_protocol_deterministic_and_parallel(bs_days):
    config = ProtocolConfig(labels=("LI", "NW"))
    serial = run_protocol(bs_days[:4], config)
    again = run_protocol(bs_days[:4], config)
    assert serial.errors == again.errors
    parallel = run_protocol(bs_days[:4], ProtocolConfig(labels=("LI", "NW"), workers=2))
    assert parallel.errors == serial.errors
    # Every non-VG label, trimmed or not: a day's fits share one training
    # set in whichever process runs the day.
    for trim in (False, True):
        one = run_protocol(bs_days[:4], ProtocolConfig(labels=NON_VG_LABELS, trim=trim))
        two = run_protocol(bs_days[:4], ProtocolConfig(labels=NON_VG_LABELS, trim=trim, workers=2))
        assert one.errors and two.errors == one.errors


def test_vg_reports_do_not_depend_on_warnings_or_the_worker_count(tmp_path, monkeypatch):
    # The suite turns every RuntimeWarning into an error, in this process
    # and, through the environment, in worker processes however started.
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    days = synth_chain("vg", n_days=3)
    one = run_protocol(days, ProtocolConfig(labels=("VG",), trim=True))
    two = run_protocol(days, ProtocolConfig(labels=("VG",), trim=True, workers=2))
    assert one.errors and two.errors == one.errors
    written = list(zip(one.write(tmp_path / "one"), two.write(tmp_path / "two")))
    assert written and all(a.read_bytes() == b.read_bytes() for a, b in written)


@pytest.mark.parametrize(
    "workers, n_days, cpus, pool_size",
    [(64, 3, 16, 3), (64, 5, 4, 4), (3, 5, 16, 3), (8, 5, None, None), (8, 1, 16, None)],
)
def test_run_protocol_clamps_workers_to_days_and_cpus(bs_days, monkeypatch,
                                                      workers, n_days, cpus, pool_size):
    import pricelab.harness as harness

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    config = ProtocolConfig(labels=("LI",), workers=workers)
    result = run_protocol(bs_days[:n_days], config)
    # A pool of one process is no pool: the days run in this process.
    assert sizes == ([] if pool_size is None else [pool_size])
    assert result.errors == run_protocol(bs_days[:n_days], ProtocolConfig(labels=("LI",))).errors


def test_run_protocol_rejects_unknown_partition(bs_days):
    with pytest.raises(ValueError):
        run_protocol(bs_days[:1], ProtocolConfig(partitions=("all", "bogus")))


def test_protocol_result_write_round_trip(bs_days, tmp_path):
    from pricelab.reporting import read_report_csv

    config = ProtocolConfig(labels=("LI",))
    result = run_protocol(bs_days[:2], config)
    first = result.write(tmp_path / "a")
    assert [p.name for p in first] == [
        f"report_LI_{partition}.csv" for partition in sorted(config.partitions)
    ]
    for path in first:
        partition = path.stem.split("_")[-1]
        report = result.report("LI", partition)
        loaded = read_report_csv(path)
        if report.n_errors > 0:
            assert loaded == report
        else:  # NaN cdf entries defeat ==
            assert (loaded.count, loaded.n_errors) == (report.count, report.n_errors)
            assert all(value != value for value in loaded.cdf.values())
    second = result.write(tmp_path / "b")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_cross_date_report_matches_contracts():
    env_a = MarketEnv(date=DAY, spot=100.0, rate=0.02, div_hist=0.01)
    env_b = MarketEnv(date=DAY + timedelta(days=1), spot=100.04, rate=0.02, div_hist=0.01)
    env_c = MarketEnv(date=DAY + timedelta(days=2), spot=101.0, rate=0.02, div_hist=0.01)
    shared = dict(kind=CALL, strike=100.0, ttm_days=30)
    chain_a = DailyChain(env_a, (make_quote(mid=5.0, **shared),))
    chain_b = DailyChain(
        env_b, (make_quote(mid=5.5, **shared), make_quote(PUT, 100.0, 30, 1.0))
    )
    chain_c = DailyChain(env_c, (make_quote(mid=9.0, **shared),))

    matches = cross_date_report([chain_b, chain_a, chain_c])
    assert len(matches) == 1
    match = matches[0]
    assert (match.date_a, match.date_b) == (env_a.date, env_b.date)
    assert match.diff == pytest.approx(0.5)
    # Everything matches a far-away spot only when the tolerance allows.
    assert len(cross_date_report([chain_a, chain_c], spot_tolerance=5.0)) == 1


def test_cross_date_report_skips_a_contract_quoted_on_one_day():
    env_a = MarketEnv(date=DAY, spot=100.0, rate=0.02, div_hist=0.01)
    env_b = MarketEnv(date=DAY + timedelta(days=1), spot=100.0, rate=0.02, div_hist=0.01)
    chain_a = DailyChain(env_a, (make_quote(CALL, 100.0, 30, 5.0), make_quote(CALL, 95.0, 30, 8.0),
                                 make_quote(PUT, 100.0, 31, 3.0)))
    chain_b = DailyChain(env_b, (make_quote(CALL, 100.0, 30, 5.5),))
    [match] = cross_date_report([chain_a, chain_b])
    assert (match.kind, match.strike, match.ttm_days) == (CALL, 100.0, 30)


def test_cross_date_report_zero_noise_world(bs_days):
    matches = cross_date_report(bs_days[:2])
    assert len(matches) == 104
    assert all(m.diff == 0.0 for m in matches)


def test_load_config(tmp_path):
    path = tmp_path / "protocol.cfg"
    path.write_text(
        """
        # evaluation settings
        master_seed = 7
        fraction = 0.8
        labels = li, nw   # mixed case on purpose
        kind = call
        trim = true
        min_ttm_days = 2
        min_volume = 50
        max_iv = 0.9
        min_price = 0.05
        partitions = all, hull
        workers = 3
        """
    )
    config = apply_config(read_config(path))
    assert config.master_seed == 7
    assert config.fraction == 0.8
    assert config.labels == ("LI", "NW")
    assert config.kind is CALL
    assert config.trim is True
    assert config.min_ttm_days == 2
    assert config.min_volume == 50
    assert config.max_iv == 0.9
    assert config.min_price == 0.05
    assert config.partitions == ("all", "hull")
    assert config.workers == 3


def test_load_config_partial_keeps_base(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("master_seed=99\n")
    config = apply_config(read_config(path))
    base = ProtocolConfig()
    assert config.master_seed == 99
    assert config.labels == base.labels
    assert config.kind is base.kind


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("master_seed 7\n", "key=value"),
        ("workers = 1\n\nmaster_seed 7\n", "bad config line 3 'master_seed 7'"),
        ("unknown_key=3\n", "unknown config key"),
        ("kind=straddle\n", "bad kind"),
        ("trim = ture\n", "bad trim 'ture'"),
        ("labels = LI,XX\n", "'XX' is not a valid EstimatorLabel"),
        ("fraction = 2\n", "fraction must be in"),
        ("partitions = all,bogus\n", "unknown partition 'bogus'"),
        ("workers = 0\n", "workers must be at least 1"),
        ("labels = LI, BS, li\n", "labels listed more than once: LI"),
        ("labels =\n", "at least one label"),
    ],
)
def test_load_config_rejects_bad_input(tmp_path, text, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=fragment):
        apply_config(read_config(path))


def test_read_config_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbflabels = LI\nworkers = 2\n")
    assert read_config(path) == {"labels": "LI", "workers": "2"}


def test_read_config_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("labels = LI\n# the comment line counts\n\nlabels = NW\n")
    with pytest.raises(ValueError, match="config key 'labels' set twice, on lines 1 and 4"):
        read_config(path)


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(labels=("LI", "XX")), "'XX' is not a valid EstimatorLabel"),
        (dict(fraction=0.0), "fraction must be in"),
        (dict(fraction=1.0), "fraction must be in"),
        (dict(partitions=("bogus",)), "unknown partition 'bogus'"),
        (dict(workers=0), "workers must be at least 1"),
        # A repeated label would fit each day twice and count every record twice.
        (dict(labels=("NW", "LI", "NW")), "labels listed more than once: NW"),
        (dict(labels=()), "at least one label"),
        (dict(partitions=()), "at least one partition is required"),
        (dict(partitions=("all", "hull", "all")), "partitions listed more than once: all"),
    ],
)
def test_protocol_config_rejects_bad_values(overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        ProtocolConfig(**overrides)


@pytest.mark.parametrize("text, value", [("yes", True), ("1", True), ("No", False), ("0", False)])
def test_load_config_trim_spellings(tmp_path, text, value):
    path = tmp_path / "trim.cfg"
    path.write_text(f"trim = {text}\n")
    assert apply_config(read_config(path)).trim is value
