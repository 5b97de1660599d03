"""Back the dividend yield out of at-the-money put-call pairs.

A synthetic day is generated at a known yield, the curve is re-estimated
from parity alone, and the in-the-money quotes are audited against their
out-of-the-money counterparts. The per-maturity median makes the estimate
shrug off a corrupted quote.
"""

import dataclasses

from pricelab.market_data import DailyChain, OptionKind
from pricelab.parity import estimate_dividend_curve, itm_parity_audit
from pricelab.reporting import render_reports
from pricelab.synth import synth_chain

TRUE_YIELD = 0.013


def main():
    day = synth_chain("bs", dividend=TRUE_YIELD, strikes=[94.0, 97.0, 100.0, 103.0, 106.0])[0]
    print(f"synthetic day: {len(day)} quotes, true dividend yield {TRUE_YIELD}")

    curve = estimate_dividend_curve(day)
    print("\nrecovered curve (knot tau -> yield):")
    for tau, y in zip(curve.taus, curve.yields):
        print(f"  {tau:8.4f} -> {y:.12f}   error {abs(y - TRUE_YIELD):.2e}")

    print("\nITM quotes repriced from their OTM twins via parity:")
    print(render_reports([itm_parity_audit([(day, curve)])]))

    # Corrupt one ATM put by half a dollar; the median pair per maturity
    # barely reacts.
    quotes = list(day.quotes)
    victim = next(i for i, q in enumerate(quotes)
                  if q.kind is OptionKind.PUT and q.strike == 100.0)
    quotes[victim] = dataclasses.replace(quotes[victim],
                                         bid=quotes[victim].bid + 0.5,
                                         ask=quotes[victim].ask + 0.5)
    bumped = estimate_dividend_curve(DailyChain(day.env, quotes))
    print("after bumping one ATM put mid by +0.50:")
    for tau, y0, y1 in zip(curve.taus, curve.yields, bumped.yields):
        print(f"  {tau:8.4f} -> {y1:.12f}   moved by {abs(y1 - y0):.2e}")


if __name__ == "__main__":
    main()
