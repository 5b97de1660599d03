"""Variance-Gamma pricing three ways: quadrature, Monte Carlo, calibration.

Also shows the two structural facts a user should know before trusting a
fitted parameter triple: put-call parity holds exactly by construction,
and the triple itself is only identified up to a common scale.
"""

import math
import time

import numpy as np

from pricelab.market_data import OptionKind
from pricelab.synth import synth_chain
from pricelab.variance_gamma import (
    VgParams,
    has_finite_variance,
    vg_calibrate,
    vg_price_mc,
    vg_price_quadrature,
)

CALL, PUT = OptionKind.CALL, OptionKind.PUT
SPOT, RATE, DIV = 100.0, 0.02, 0.01


def main():
    params = VgParams(theta=-0.1, sigma=0.25, alpha=3.0)
    print(f"params: theta={params.theta} sigma={params.sigma} alpha={params.alpha}")
    print(f"drift correction eta={params.eta:.8f}, "
          f"finite variance: {has_finite_variance(params)}")

    strike, tau = 105.0, 0.75
    quad = vg_price_quadrature(CALL, SPOT, strike, RATE, DIV, tau, params)
    mc = vg_price_mc(CALL, SPOT, strike, RATE, DIV, tau, params, n=50_000, seed=3)
    z = (mc.price - quad) / mc.stderr
    print(f"\nCALL K={strike} tau={tau}:")
    print(f"  quadrature  {quad:.8f}")
    print(f"  monte carlo {mc.price:.8f} +- {mc.stderr:.8f}  (z = {z:+.2f})")

    put = vg_price_quadrature(PUT, SPOT, strike, RATE, DIV, tau, params)
    carry = SPOT * math.exp(-DIV * tau) - strike * math.exp(-RATE * tau)
    print(f"  parity residual C - P - carry = {quad - put - carry:+.2e}")

    # (theta, sigma^2, alpha) -> (c theta, c sigma^2, c alpha) rescales the
    # gamma clock by 1/c and the conditional variance by c; the price
    # cannot tell the difference.
    c = 2.0
    scaled = VgParams(c * params.theta, math.sqrt(c) * params.sigma, c * params.alpha)
    rescaled = vg_price_quadrature(CALL, SPOT, strike, RATE, DIV, tau, scaled)
    print(f"\nsame price under the c={c} rescaled triple: "
          f"|diff| = {abs(rescaled - quad):.2e}")

    print("\ncalibrating to a noiseless 40-quote day (a fraction of a second)...")
    day = synth_chain("vg", theta=0.0, sigma=0.3, alpha=3.0,
                      strikes=list(np.linspace(90.0, 120.0, 10)),
                      maturities_days=(91, 182, 273, 365))[0]
    puts = day.of_kind(PUT)
    quotes = list(zip(puts.strikes.tolist(), puts.taus.tolist(), puts.mids.tolist()))
    start = time.perf_counter()
    fitted, objective = vg_calibrate(quotes, PUT, day.env.spot, day.env.rate,
                                     day.env.div_hist, init=(0.0, 0.3, 2.0))
    took = time.perf_counter() - start
    worst = max(
        abs(vg_price_quadrature(PUT, day.env.spot, k, day.env.rate,
                                day.env.div_hist, t, fitted) / p - 1.0)
        for k, t, p in quotes
    )
    print(f"  objective {objective:.3e} in {took:.1f}s, worst refit error {worst:.2e}")
    print(f"  fitted (theta, sigma, alpha) = "
          f"({fitted.theta:+.6f}, {fitted.sigma:.6f}, {fitted.alpha:.6f})")
    print(f"  generated from (0, 0.3, 3.0); scale-invariant ratio sigma^2/alpha: "
          f"fit {fitted.sigma**2 / fitted.alpha:.6f} vs truth {0.3**2 / 3.0:.6f}")


if __name__ == "__main__":
    main()
