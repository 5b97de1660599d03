"""pricelab: daily option-chain pricing estimators and their evaluation.

The package prices European options off a single day's quotes with
several competing estimators (linear price interpolation, implied-vol
surfaces, kernel regression, a Variance-Gamma benchmark), supports them
with a put-call-parity toolkit, and measures them with a reproducible
out-of-sample protocol.
"""

from .black_scholes import (
    bs_price,
    fill_implied_vols,
    implied_vol,
    iv_dividend_sensitivity,
    no_arbitrage_band,
    vega,
)
from .errors import (
    CalibrationFailure,
    ChainParseError,
    DegenerateDispersion,
    DegenerateGeometry,
    DomainViolation,
    InsufficientData,
    NoArbitrageViolation,
    NoAtmPairs,
    NoConvergence,
    NumericalUnderflow,
    PricelabError,
)
from .estimators import (
    EstimatorLabel,
    Prediction,
    PredictStatus,
    PricingEstimator,
    fit,
    predict,
)
from .harness import (
    DEFAULT_MASTER_SEED,
    CrossDateMatch,
    DaySplit,
    ProtocolConfig,
    ProtocolResult,
    cross_date_report,
    day_seed,
    evaluate_day,
    prepare_day,
    run_protocol,
    split_day,
)
from .kernel import Bandwidths, NwModel, loo_cv_bandwidths, nw_estimate, silverman_bandwidths
from .market_data import (
    DailyChain,
    MarketEnv,
    OptionKind,
    OptionQuote,
    filter_liquidity,
    load_chains,
    save_chains,
)
from .parity import (
    DividendCurve,
    Moneyness,
    MoneynessClass,
    ParityLeg,
    classify_moneyness,
    estimate_dividend_curve,
    forward_price,
    historical_curve,
    implied_dividend,
    itm_parity_audit,
    parity_price,
)
from .reporting import CDF_THRESHOLDS, ErrorReport, ErrorStatus, PricingError, aggregate
from .surface import OUTSIDE_HULL, NormalizedSurface, augment_zero_maturity
from .synth import synth_chain
from .variance_gamma import (
    VgMcResult,
    VgParams,
    has_finite_variance,
    vg_calibrate,
    vg_eta,
    vg_price_mc,
    vg_price_quadrature,
)

__version__ = "0.1.0"
