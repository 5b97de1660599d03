"""Fit every estimator label to one day and price the same three queries.

The queries are chosen to separate the families: one sits between grid
nodes, one needs a near-expiry extension of the domain, and one lies
outside the training hull altogether.
"""

from pricelab.estimators import EstimatorLabel, TrainingSet, predict
from pricelab.market_data import OptionKind
from pricelab.parity import estimate_dividend_curve
from pricelab.synth import synth_chain

PUT = OptionKind.PUT


def describe(prediction):
    if prediction.price is None:
        return prediction.status.value
    tag = " (extrapolated)" if prediction.extrapolated else ""
    return f"{prediction.price:9.5f}{tag}"


def main():
    day = synth_chain("bs", dividend=0.013)[0]
    curve = estimate_dividend_curve(day)
    puts = TrainingSet(PUT, day, curve)
    print(f"training on {len(puts.chain)} puts from one synthetic day (flat vol 0.2)")

    queries = [
        ("between grid nodes", 102.5, 0.4986301369863014),
        ("short maturity", 102.5, 0.02),
        ("beyond the strike range", 140.0, 0.75),
    ]

    # VG calibration wants a day the model can actually explain; see the
    # vg_pricing demo for that. Everything else fits in milliseconds, and
    # the labels fitted on one TrainingSet share its vols and geometries.
    labels = [label for label in EstimatorLabel if label is not EstimatorLabel.VG]
    estimators = {label: puts.fit(label) for label in labels}
    width = max(len(name) for name, _, _ in queries)
    header = " ".join(f"{label.value:>22}" for label in estimators)
    print(f"\n{'query':<{width}} {header}")
    for name, strike, tau in queries:
        row = " ".join(f"{describe(predict(est, strike, tau)):>22}"
                       for est in estimators.values())
        print(f"{name:<{width}} {row}")

    print("\nnotes:")
    print("  LI/BS decline outside their hull; LIB's fictitious expiry-day")
    print("  quotes widen it; the kernel and VG labels price everywhere but")
    print("  flag the extrapolation.")


if __name__ == "__main__":
    main()
