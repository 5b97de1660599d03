"""Price options, invert them back, and watch where float64 gives up.

The pricing map is a strict bijection in vol only while the quote sits
inside the no-arbitrage band. Deep in the money the band is millions of
ulps wide but the vol signal occupies the last few, so the out-of-the-money
twin is the side worth inverting.
"""

import math

from pricelab.black_scholes import bs_price, implied_vol, no_arbitrage_band
from pricelab.errors import NoArbitrageViolation
from pricelab.market_data import OptionKind

CALL, PUT = OptionKind.CALL, OptionKind.PUT
SPOT, RATE, DIV = 100.0, 0.02, 0.01


def section(title):
    print(f"\n--- {title} ---")


def main():
    section("round trip at everyday inputs")
    for kind, strike, vol, tau in [
        (PUT, 95.0, 0.18, 0.25),
        (CALL, 110.0, 0.32, 1.0),
        (PUT, 100.0, 0.50, 2.0),
    ]:
        price = bs_price(kind, SPOT, strike, RATE, DIV, vol, tau)
        back = implied_vol(kind, price, SPOT, strike, RATE, DIV, tau)
        print(f"{kind.name:4} K={strike:6.1f} tau={tau:4.2f}  price={price:9.5f}"
              f"  vol in={vol:.4f} out={back:.10f}")

    section("the band is the domain of the inversion")
    lo, hi = no_arbitrage_band(CALL, SPOT, 70.0, RATE, DIV, 1.0)
    print(f"CALL K=70 tau=1: admissible prices are ({lo:.6f}, {hi:.6f}), open")
    try:
        implied_vol(CALL, lo, SPOT, 70.0, RATE, DIV, 1.0)
    except NoArbitrageViolation as exc:
        print(f"inverting the band edge itself: {exc}")

    section("deep ITM at tiny vol: the price IS the band edge")
    strike, vol, tau = 76.67, 0.05, 0.02
    itm = bs_price(CALL, SPOT, strike, RATE, DIV, vol, tau)
    edge = max(SPOT * math.exp(-DIV * tau) - strike * math.exp(-RATE * tau), 0.0)
    print(f"CALL K={strike}: price - lower edge = {itm - edge:.3e}")
    print("the vol lives below the call's last ulp, so the call carries none of it")

    otm = bs_price(PUT, SPOT, strike, RATE, DIV, vol, tau)
    back = implied_vol(PUT, otm, SPOT, strike, RATE, DIV, tau)
    print(f"PUT  K={strike}: price={otm:.3e} (denormal territory), recovered vol={back:.10f}")
    print("the same information, quoted on the side where floats can hold it")


if __name__ == "__main__":
    main()
