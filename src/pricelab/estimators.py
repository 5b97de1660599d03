"""The pricing estimators under evaluation, behind one fit/predict surface.

Every label but VG smooths a target over the day's training quotes:

    label   target       smoother
    LI      price        LI: linear interpolation in normalized coordinates
    LIB     price        LI, on quotes augmented with fictitious expiring options
    BS      implied vol  LI
    NW      price        NW: kernel regression on raw (strike, tau), Silverman bandwidths
    NWCV    price        NW, bandwidths by leave-one-out cross-validation
    BSNW    implied vol  NW
    BSNWCV  implied vol  NWCV
    VG      Variance-Gamma parametric fit

The implied-vol target smooths Black-Scholes vols (quotes that admit none
are dropped) and reprices them with the day's dividend curve.

LI-smoothed labels are hull-domain estimators: outside the convex hull
of their training samples (in normalized coordinates) they return the
OUTSIDE_HULL marker. NW and VG answer every query but flag extrapolation
whenever the query leaves that same hull, so downstream reports can
split errors by hull membership.

A TrainingSet holds a day's training quotes as arrays together with the
work their fits share: the implied vols, inverted once, and one
NormalizedGeometry per distinct point set, which both LI's interpolant
and the kernel labels' hull test come from. NWCV and BSNWCV each run
their own LOO-CV search. TrainingSet.fit(label) fits one label on the
set, so the labels of one day fitted on one TrainingSet share that work;
fit is its one-label case, on a set of its own quotes, and does only
what its label needs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence, Sized

import numpy as np

from .black_scholes import bs_price, fill_implied_vols
from .errors import DegenerateDispersion, InsufficientData, PricelabError
from .kernel import NwModel, loo_cv_bandwidths, nw_estimate, silverman_bandwidths
from .market_data import DailyChain, MarketEnv, OptionKind, OptionQuote
from .parity import DividendCurve, historical_curve
from .reporting import ErrorStatus
from .surface import OUTSIDE_HULL, NormalizedGeometry, augment_zero_maturity
from .variance_gamma import vg_calibrate, vg_price_quadrature

# What fits and predictions raise on data they cannot handle; callers record FAILED.
ESTIMATOR_ERRORS = (PricelabError, ValueError, ArithmeticError)


class EstimatorLabel(enum.Enum):
    LI = "LI"
    BS = "BS"
    NW = "NW"
    NWCV = "NWCV"
    BSNW = "BSNW"
    BSNWCV = "BSNWCV"
    VG = "VG"
    LIB = "LIB"


class PredictStatus(enum.Enum):
    PRICED = "priced"
    OUTSIDE_HULL = "outside_hull"
    FAILED = "failed"


@dataclass(frozen=True)
class Prediction:
    """price is set exactly when status is PRICED; extrapolated marks a
    priced query outside the training hull (unrestricted labels only)."""

    price: float | None
    status: PredictStatus
    extrapolated: bool = False


# The predictions without a price; frozen, so every query shares them.
FAILED_PREDICTION = Prediction(None, PredictStatus.FAILED)
_OUTSIDE_HULL_PREDICTION = Prediction(None, PredictStatus.OUTSIDE_HULL)


@dataclass(frozen=True)
class PricingEstimator:
    """A fitted estimator: immutable, so predictions are safe to run
    concurrently. meta records fitting diagnostics (dropped quotes,
    coordinate conventions, selected bandwidths, fitted parameters).
    hull_fn is the training-hull test of a label that prices outside the
    hull; it is None for a hull-domain label, whose price_fn already
    returns OUTSIDE_HULL there, so a price from it is inside the hull."""

    label: EstimatorLabel
    price_fn: Callable[[float, float], float | object] = field(repr=False)
    hull_fn: Callable[[float, float], bool] | None = field(repr=False)
    meta: dict = field(default_factory=dict)


def _require(quotes: Sized, label: EstimatorLabel, minimum: int) -> None:
    if len(quotes) < minimum:
        raise InsufficientData(
            f"{label.value} needs at least {minimum} usable quotes, got {len(quotes)}"
        )


_PRICE, _VOL = "price", "implied vol"


class TrainingSet:
    """A day's training quotes of one kind, as arrays, and the work that
    every label's fit on them shares.

    chain holds the quotes of the kind at tau >= 0 of the chain given, in
    its order; strikes, taus and mids are its columns. curve is the day's
    dividend curve. vols, when passed, holds one implied vol per quote of
    the chain given (NaN where none exists), as fill_implied_vols gives
    them; otherwise they are inverted on first use. geometry(mask)
    triangulates a subset of the points on first use and hands the same
    geometry to every later fit on that subset. A TrainingSet lives for
    one day's fits: fit(label) fits each on it.
    """

    def __init__(self, kind: OptionKind, chain: DailyChain, curve: DividendCurve,
                 vols: np.ndarray | None = None):
        keep = (chain.kinds == kind) & (chain.taus >= 0.0)
        if vols is not None and len(vols) != len(keep):
            raise ValueError(f"{len(vols)} vols for {len(keep)} quotes")
        self.kind, self.env, self.curve = kind, chain.env, curve
        self.chain = chain.select(keep)
        self.strikes, self.taus, self.mids = self.chain.strikes, self.chain.taus, self.chain.mids
        self._vols = None if vols is None else np.asarray(vols, dtype=float)[keep]
        self._geometries: dict[bytes, NormalizedGeometry] = {}

    @property
    def vols(self) -> np.ndarray:
        """One implied vol per quote, NaN where none exists."""
        if self._vols is None:
            self._vols, _ = fill_implied_vols(self.chain, self.curve)
        return self._vols

    def geometry(self, mask: np.ndarray) -> NormalizedGeometry:
        """The normalized geometry of the points where mask is set."""
        key = mask.tobytes()
        if key not in self._geometries:
            self._geometries[key] = NormalizedGeometry(
                self.strikes[mask], self.taus[mask], self.env.spot)
        return self._geometries[key]

    def fit(self, label: EstimatorLabel,
            lib_strike_range: tuple[float, float] | None = None) -> PricingEstimator:
        """Fit one estimator to these quotes.

        The set's curve supplies the dividend yield by maturity for the
        implied-vol routes and VG. lib_strike_range widens the
        fictitious-strike span for LIB beyond the training quotes (pass the
        full day's range when the quotes are a training subset).

        Raises InsufficientData when too few usable quotes remain for the
        label, DegenerateDispersion, with the label in front, when its
        bandwidth rule has no spread to rule on, and propagates calibration
        or geometry failures.
        """
        label = EstimatorLabel(label)
        kind, env, dividend_at = self.kind, self.env, self.curve.value_at
        meta: dict = {"n_train": len(self.chain)}
        if label is EstimatorLabel.VG:
            return _fit_vg(self, meta)

        target, smoother = _RECIPES[label]
        usable = self.taus > 0.0 if smoother.positive_tau else np.full(len(self.taus), True)
        values, value_scale = self.mids, env.spot
        if target is _VOL:
            values, value_scale = self.vols, 1.0
            meta["dropped_noninvertible"] = int(np.isnan(values).sum())
            usable &= ~np.isnan(values)
        strikes, taus, values = self.strikes[usable], self.taus[usable], values[usable]
        _require(values, label, smoother.min_quotes)
        if label is EstimatorLabel.LIB:
            if lib_strike_range is None:
                lib_strike_range = (float(strikes.min()), float(strikes.max()))
            expiring, payoffs = augment_zero_maturity(kind, env.spot, lib_strike_range)
            meta["n_fictitious"] = len(payoffs)
            strikes = np.concatenate([strikes, expiring])
            taus = np.concatenate([taus, np.zeros(len(payoffs))])
            values = np.concatenate([values, payoffs])
            geometry = partial(NormalizedGeometry, strikes, taus, env.spot)
        else:
            geometry = partial(self.geometry, usable)

        try:
            value_at, hull_fn, smoother_meta = smoother.build(geometry, strikes, taus, values,
                                                              value_scale)
        except DegenerateDispersion as error:
            raise DegenerateDispersion(f"{label.value}: {error}") from None
        meta.update(smoother_meta)
        if target is _PRICE:
            return PricingEstimator(label, value_at, hull_fn, meta)

        def price_fn(strike: float, tau: float):
            vol = value_at(strike, tau)
            if vol is OUTSIDE_HULL:
                return OUTSIDE_HULL
            return bs_price(kind, env.spot, strike, env.rate, dividend_at(tau), vol, tau)

        return PricingEstimator(label, price_fn, hull_fn, meta)


class _Smoother(NamedTuple):
    """Fits values at (strike, tau) points, from at least min_quotes
    quotes, all at positive tau when positive_tau is set. build(geometry,
    strikes, taus, values, value_scale), with geometry() giving the
    points' NormalizedGeometry, returns the value function, the hull test
    (None when the value function answers OUTSIDE_HULL outside the hull)
    and the fit's meta entries."""

    min_quotes: int
    positive_tau: bool
    build: Callable


def _li(geometry, strikes, taus, values, value_scale):
    surf = geometry().surface(values, value_scale)
    return surf.value_at, None, {"coords": "normalized"}


def _nw(select_bandwidths):
    """The kernel smoother, its bandwidths by select_bandwidths(points,
    values, meta), which may add its own meta entries."""
    def build(geometry, strikes, taus, values, value_scale):
        meta = {"coords": "raw"}
        bandwidths = select_bandwidths(np.column_stack([strikes, taus]), values, meta)
        model = NwModel(strikes, taus, values, bandwidths)
        meta["bandwidths"] = (bandwidths.eps1, bandwidths.eps2)
        return partial(nw_estimate, model), geometry().in_domain, meta

    return build


_LI = _Smoother(3, False, _li)
_NW = _Smoother(1, True, _nw(lambda points, values, meta: silverman_bandwidths(points)))
# Called through the module global, which tracers and tests may rebind.
_NWCV = _Smoother(3, True, _nw(
    lambda points, values, meta: loo_cv_bandwidths(points, values, meta)))

# Every label but VG, as (target, smoother). LIB also augments its quotes.
_RECIPES = {
    EstimatorLabel.LI: (_PRICE, _LI),
    EstimatorLabel.LIB: (_PRICE, _LI),
    EstimatorLabel.BS: (_VOL, _LI),
    EstimatorLabel.NW: (_PRICE, _NW),
    EstimatorLabel.NWCV: (_PRICE, _NWCV),
    EstimatorLabel.BSNW: (_VOL, _NW),
    EstimatorLabel.BSNWCV: (_VOL, _NWCV),
}
# The labels that decline queries outside their training hull: the LI-smoothed ones.
HULL_LABELS = frozenset(label for label, (_, smoother) in _RECIPES.items() if smoother is _LI)


def fit(
    label: EstimatorLabel,
    kind: OptionKind,
    quotes: Sequence[OptionQuote],
    env: MarketEnv,
    curve: DividendCurve | None = None,
) -> PricingEstimator:
    """Fit one estimator to a day's training quotes: TrainingSet.fit on a
    set of these quotes alone, which does only what the label needs. A
    curve of None is the day's historical_curve(env)."""
    return TrainingSet(kind, DailyChain(env, quotes),
                       historical_curve(env) if curve is None else curve).fit(label)


def _fit_vg(training: TrainingSet, meta: dict) -> PricingEstimator:
    kind, env = training.kind, training.env
    pricable = (training.taus > 0.0) & (training.mids > 0.0)
    strikes, taus = training.strikes[pricable].tolist(), training.taus[pricable].tolist()
    _require(strikes, EstimatorLabel.VG, 3)
    hull_fn = training.geometry(pricable).in_domain
    triples = list(zip(strikes, taus, training.mids[pricable].tolist()))
    dividend = training.curve.value_at(float(np.median(taus)))
    params, objective = vg_calibrate(triples, kind, env.spot, env.rate, dividend, meta=meta)
    meta.update(params=(params.theta, params.sigma, params.alpha), objective=objective,
                dividend=dividend)
    return PricingEstimator(
        EstimatorLabel.VG,
        lambda k, t: vg_price_quadrature(kind, env.spot, k, env.rate, dividend, t, params),
        hull_fn, meta,
    )


def predict(estimator: PricingEstimator, strike: float, tau: float) -> Prediction:
    """Evaluate a fitted estimator at one query.

    Hull-domain labels return OUTSIDE_HULL status outside their training
    hull; unrestricted labels always price but flag extrapolation there.
    Numerical failures at a query (kernel underflow, say) come back as
    FAILED, never as exceptions.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if strike <= 0.0:
        raise ValueError(f"strike must be positive, got {strike}")
    try:
        value = estimator.price_fn(strike, tau)
    except ESTIMATOR_ERRORS:
        return FAILED_PREDICTION
    if value is OUTSIDE_HULL:
        return _OUTSIDE_HULL_PREDICTION
    value = float(value)
    if not math.isfinite(value):
        return FAILED_PREDICTION
    extrapolated = estimator.hull_fn is not None and not estimator.hull_fn(strike, tau)
    return Prediction(value, PredictStatus.PRICED, extrapolated)


def prediction_status(prediction: Prediction) -> ErrorStatus:
    """The status a prediction's record carries: PRICED or EXTRAPOLATED
    when it priced, else OUTSIDE_HULL or FAILED, named alike in both enums."""
    if prediction.status is PredictStatus.PRICED:
        return ErrorStatus.EXTRAPOLATED if prediction.extrapolated else ErrorStatus.PRICED
    return ErrorStatus(prediction.status.value)
