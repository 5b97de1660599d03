"""A day's labels fitted on one TrainingSet against each label fitted
alone: the same outcome bit for bit, with one vol inversion and one
triangulation per distinct point set per day."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.spatial

import pricelab.black_scholes as black_scholes
import pricelab.kernel as kernel
import pricelab.surface as surface
from pricelab.errors import NoAtmPairs
from pricelab.estimators import ESTIMATOR_ERRORS, EstimatorLabel, TrainingSet, fit, predict
from pricelab.harness import ProtocolConfig, evaluate_day, prepare_day, run_protocol, split_day
from pricelab.market_data import DailyChain, OptionKind, OptionQuote, filter_liquidity
from pricelab.parity import estimate_dividend_curve, historical_curve
from pricelab.synth import synth_chain

PUT = OptionKind.PUT
NON_VG_LABELS = ("LI", "LIB", "BS", "NW", "NWCV", "BSNW", "BSNWCV")


def noisy_chain():
    """A noisy day with one-week to one-year expiries, on which some puts
    admit no implied vol."""
    return synth_chain(
        "bs", dividend=0.01, noise=0.02, seed=5,
        strikes=[float(k) for k in np.arange(70.0, 131.0, 2.5)],
        maturities_days=(7, 30, 91, 182, 365),
    )[0]


def protocol_training(trim):
    """The training side of the noisy day as the protocol prepares it, and
    the vols that prepare_day hands over."""
    day, curve, vols = prepare_day(noisy_chain(), ProtocolConfig(trim=trim))
    split = split_day(len(day), day.env.date)
    train = [day.quotes[i] for i in split.train]
    strikes = [q.strike for q in day.quotes]
    train_vols = None if vols is None else vols[list(split.train)]
    return day.env, train, curve, train_vols, (min(strikes), max(strikes))


def puts_day(**kwargs):
    chain = filter_liquidity(synth_chain("bs", dividend=0.01, **kwargs)[0])
    try:
        curve = estimate_dividend_curve(chain)
    except NoAtmPairs:
        curve = historical_curve(chain.env)
    return chain.env, list(chain.of_kind(PUT).quotes), curve


def with_duplicates(quotes):
    """Every third quote listed twice, the copy a little dearer."""
    copies = [replace(q, bid=q.bid * 1.01, ask=q.ask * 1.01) for q in quotes[::3]]
    return quotes + copies


def with_expiring(quotes, env):
    """The quotes plus an expiring put at its intrinsic value."""
    expiring = OptionQuote(PUT, 110.0, env.date, 0, 10.0, 10.0, 1000)
    return [expiring] + quotes


def queries(quotes, spot):
    """The training points (vertices of the hull among them), the midpoints
    of the hull's edges, and a grid reaching well outside the hull; only
    those at positive tau, the ones predict accepts."""
    points = np.array([(q.strike / spot, q.tau) for q in quotes])
    found = [tuple(p) for p in points]
    try:
        hull = scipy.spatial.ConvexHull(points)
        found += [tuple((points[i] + points[j]) / 2) for i, j in hull.simplices]
    except scipy.spatial.QhullError:  # collinear: the segment between each pair of neighbours
        ordered = points[np.lexsort((points[:, 1], points[:, 0]))]
        found += [tuple(p) for p in (ordered[1:] + ordered[:-1]) / 2]
    lo, hi = points.min(axis=0), points.max(axis=0)
    span = np.maximum(hi - lo, 0.05)
    for x in np.linspace(lo[0] - 0.3 * span[0], hi[0] + 0.3 * span[0], 7):
        for y in np.linspace(max(lo[1] - 0.3 * span[1], 0.01), hi[1] + 0.3 * span[1], 7):
            found.append((x, y))
    return [(x * spot, y) for x, y in found if y > 0.0]


def outcome(label, quotes, env, curve, lib_range, grid, training=None):
    """The fit's meta and each query's prediction, prices as hex; or the
    class and message of the fit's failure. The label is fitted on the
    training set when one is given, else on a set of its own."""
    try:
        estimator = (TrainingSet(PUT, DailyChain(env, quotes), curve) if training is None
                     else training).fit(label, lib_range)
    except ESTIMATOR_ERRORS as exc:
        return type(exc), str(exc)
    predictions = [predict(estimator, k, t) for k, t in grid]
    return estimator.meta, [(p.status, None if p.price is None else p.price.hex(), p.extrapolated)
                            for p in predictions]


def days():
    env, train, curve, vols, lib_range = protocol_training(trim=True)
    yield "trimmed", env, train, curve, vols, lib_range
    env, train, curve, vols, lib_range = protocol_training(trim=False)
    yield "untrimmed with NaN vols", env, train, curve, vols, lib_range
    env, quotes, curve = puts_day(maturities_days=(91,))
    yield "single maturity", env, quotes, curve, None, None
    env, quotes, curve = puts_day()
    yield "duplicate quotes", env, with_duplicates(quotes), curve, None, None
    yield "an expiring quote", env, with_expiring(quotes, env), curve, None, None
    yield "two quotes", env, [quotes[0], quotes[-1]], curve, None, None


# The labels that fit, where not all do: on one maturity the kernel labels
# find no spread in tau, and on two quotes only the Silverman kernel labels
# have enough.
FITTED = {
    "single maturity": {"LI", "LIB", "BS", "VG"},
    "two quotes": {"NW", "BSNW"},
}


@pytest.mark.parametrize("case", [case[0] for case in days()])
def test_a_shared_fit_equals_a_standalone_fit_bit_for_bit(case):
    _, env, quotes, curve, vols, lib_range = next(day for day in days() if day[0] == case)
    training = TrainingSet(PUT, DailyChain(env, quotes), curve, vols)
    grid = queries(quotes, env.spot)
    shared = {label: outcome(label, quotes, env, curve, lib_range, grid, training)
              for label in EstimatorLabel}
    alone = {label: outcome(label, quotes, env, curve, lib_range, grid) for label in EstimatorLabel}
    assert shared == alone

    fitted = {label.value for label, result in alone.items() if isinstance(result[0], dict)}
    assert fitted == FITTED.get(case, {label.value for label in EstimatorLabel})
    # The grid reaches outside the hull: some queries there are declined or
    # flagged.
    flags = {(s, e) for label in fitted for s, _, e in alone[EstimatorLabel(label)][1]}
    assert len(flags) > 1
    if case == "untrimmed with NaN vols":
        assert np.isnan(training.vols).any()
        assert alone[EstimatorLabel.BS][0]["dropped_noninvertible"] > 0
    if case == "an expiring quote":
        assert alone[EstimatorLabel.LI][0]["n_train"] == len(quotes)


def test_a_training_set_keeps_its_kind_and_checks_its_vols():
    env, quotes, curve = puts_day()
    # Quotes of another kind are left out of the set, and so out of its fits.
    calls = [replace(q, kind=OptionKind.CALL) for q in quotes[:3]]
    mixed = DailyChain(env, quotes + calls)
    assert TrainingSet(PUT, mixed, curve).fit("LI").meta["n_train"] == len(quotes)
    assert fit("LI", PUT, quotes + calls, env, curve).meta["n_train"] == len(quotes)
    with pytest.raises(ValueError):
        TrainingSet(PUT, DailyChain(env, quotes), curve, np.zeros(len(quotes) + 1))
    # The protocol raises too, rather than recording the day FAILED, though
    # the training side's slice of the vols would have the right length.
    day = DailyChain(env, tuple(quotes))
    split = split_day(len(quotes), env.date)
    with pytest.raises(ValueError):
        evaluate_day(["LI"], day, split, curve, np.zeros(len(quotes) + 1))


@pytest.fixture
def counts(monkeypatch):
    """Calls of the vol inversion, of the Delaunay build and of the LOO-CV
    grid pass."""
    tally = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(black_scholes, "implied_vols",
                        counting("inversions", black_scholes.implied_vols))
    monkeypatch.setattr(surface, "_triangulate", counting("triangulations", surface._triangulate))
    monkeypatch.setattr(kernel, "_cv_grid", counting("cv_grids", kernel._cv_grid))
    return tally


@pytest.mark.parametrize("trim, noise, labels, per_day", [
    # prepare_day inverts; the fits reuse its vols. One geometry is shared
    # by LI, BS, NW and the rest, and LIB's has the expiring row too. NWCV
    # and BSNWCV each make one CV grid pass.
    (True, 0.0, NON_VG_LABELS, {"inversions": 1, "triangulations": 2, "cv_grids": 2}),
    (True, 0.02, NON_VG_LABELS, {"inversions": 1, "triangulations": 2, "cv_grids": 2}),
    # Without the trim the training vols are inverted once, on first use.
    (False, 0.0, NON_VG_LABELS, {"inversions": 1, "triangulations": 2, "cv_grids": 2}),
    (False, 0.0, ("LI", "NW", "NWCV"), {"triangulations": 1, "cv_grids": 1}),
    # Some vols are NaN: the vol labels share a geometry of their own, and
    # BSNWCV searches on other points than NWCV.
    (False, 0.02, NON_VG_LABELS, {"inversions": 1, "triangulations": 3, "cv_grids": 2}),
    # BSNWCV inverts the vols in either order, and NWCV never needs them.
    (False, 0.0, ("BSNWCV", "NWCV"), {"inversions": 1, "triangulations": 1, "cv_grids": 2}),
    (False, 0.0, ("NWCV", "BSNWCV"), {"inversions": 1, "triangulations": 1, "cv_grids": 2}),
])
def test_a_day_inverts_once_and_triangulates_each_point_set_once(counts, trim, noise, labels,
                                                                 per_day):
    # The noisy chains run down to a week, where some puts admit no vol.
    maturities = (7, 30, 91, 182, 365) if noise else (30, 91, 182, 365)
    chains = synth_chain("bs", n_days=2, dividend=0.01, noise=noise, seed=5,
                         maturities_days=maturities)
    counts.clear()
    result = run_protocol(chains, ProtocolConfig(labels=labels, trim=trim))
    assert result.errors
    # The dividend curve inverts no vols: these are prepare_day's and the fits'.
    assert dict(counts) == {name: 2 * n for name, n in per_day.items()}


def test_a_lone_fit_inverts_and_triangulates_only_for_its_label(counts):
    env, quotes, curve = puts_day()
    counts.clear()
    fit("LI", PUT, quotes, env, curve=curve)
    assert dict(counts) == {"triangulations": 1}
    fit("BSNW", PUT, quotes, env, curve=curve)
    assert dict(counts) == {"triangulations": 2, "inversions": 1}
    TrainingSet(PUT, DailyChain(env, quotes), curve).fit("LIB", (60.0, 140.0))
    assert dict(counts) == {"triangulations": 3, "inversions": 1}
    counts.clear()
    # NWCV alone searches the prices only: it inverts no vol to score them.
    fit("NWCV", PUT, quotes, env, curve=curve)
    assert dict(counts) == {"triangulations": 1, "cv_grids": 1}


# Each CV label makes one grid pass, even where its Silverman seed then
# fails (on one maturity); on two quotes neither has enough to search.
CV_PASSES = {"two quotes": 0}


@pytest.mark.parametrize("case", [case[0] for case in days()])
def test_a_shared_cv_grid_gives_each_label_its_standalone_fit(counts, case):
    _, env, quotes, curve, vols, lib_range = next(day for day in days() if day[0] == case)
    cv_labels = (EstimatorLabel.NWCV, EstimatorLabel.BSNWCV)
    training = TrainingSet(PUT, DailyChain(env, quotes), curve, vols)
    grid = queries(quotes, env.spot)
    counts.clear()
    shared = {label: outcome(label, quotes, env, curve, lib_range, grid, training)
              for label in cv_labels}
    assert counts["cv_grids"] == CV_PASSES.get(case, 2)
    alone = {label: outcome(label, quotes, env, curve, lib_range, grid) for label in cv_labels}
    assert shared == alone


def test_targets_of_other_zero_patterns_get_grid_passes_of_their_own(counts):
    env, quotes, curve = puts_day()
    vols, _ = black_scholes.fill_implied_vols(DailyChain(env, tuple(quotes)), curve)
    # A put quoted at zero keeps its vol: the price search leaves out a row
    # that the vol search keeps.
    at = int(np.flatnonzero(~np.isnan(vols))[0])
    quotes = quotes[:at] + [replace(quotes[at], bid=0.0, ask=0.0)] + quotes[at + 1:]
    labels = (EstimatorLabel.NWCV, EstimatorLabel.BSNWCV)
    training = TrainingSet(PUT, DailyChain(env, quotes), curve, vols)
    grid = queries(quotes, env.spot)
    counts.clear()
    shared = [outcome(label, quotes, env, curve, None, grid, training) for label in labels]
    assert counts["cv_grids"] == 2
    alone = [outcome(label, quotes, env, curve, None, grid,
                     TrainingSet(PUT, DailyChain(env, quotes), curve, vols))
             for label in labels]
    assert shared == alone
    assert all(isinstance(result[0], dict) for result in shared)


# Each order of the two CV labels makes two grid passes a day and
# triangulates each point set once: one a day, unless some vols are NaN,
# when BSNWCV searches on other points than NWCV.
@pytest.mark.parametrize("trim, noise, point_sets", [
    (True, 0.02, 2), (False, 0.0, 2), (False, 0.02, 4),
])
def test_the_order_of_the_cv_labels_changes_no_record(counts, tmp_path, trim, noise, point_sets):
    maturities = (7, 30, 91, 182, 365) if noise else (30, 91, 182, 365)
    chains = synth_chain("bs", n_days=2, dividend=0.01, noise=noise, seed=5,
                         maturities_days=maturities)
    results, found = [], []
    for labels in (("NWCV", "BSNWCV"), ("BSNWCV", "NWCV")):
        counts.clear()
        results.append(run_protocol(chains, ProtocolConfig(labels=labels, trim=trim)))
        found.append((counts["cv_grids"], counts["triangulations"]))
    assert found == [(4, point_sets), (4, point_sets)]
    first, second = results
    assert sorted(first.errors, key=repr) == sorted(second.errors, key=repr)
    written = [{path.name: path.read_bytes() for path in result.write(tmp_path / str(i))}
               for i, result in enumerate(results)]
    assert written[0] == written[1]
