"""simplex.nelder_mead against scipy's Nelder-Mead (oracles.nelder_mead).

Every search must end on scipy's x and fun, bit for bit, after as many
evaluations and iterations, with scipy's status and message: on the
package's own searches (the simplex_searches fixture replays each one
through scipy), and on objectives built to hit the edges: ties, +inf
plateaus, NaN scores and an evaluation budget that runs out partway
through a shrink.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import pricelab
from pricelab.errors import CalibrationFailure
from pricelab.harness import ProtocolConfig, run_protocol
from pricelab.market_data import OptionKind, load_chains
from pricelab.simplex import nelder_mead
from pricelab.synth import synth_chain
from pricelab.variance_gamma import vg_calibrate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_cv_searches_of_an_untrimmed_noisy_chain_take_scipys_steps(simplex_searches):
    run_protocol(synth_chain("bs", n_days=2, noise=0.005),
                 ProtocolConfig(labels=("NWCV", "BSNWCV"), trim=False))
    assert len(simplex_searches) == 4


def test_a_cv_search_down_the_flat_valley_towards_eps2_0_takes_scipys_steps(
        simplex_searches, monkeypatch, tmp_path):
    # Untrimmed, NWCV's search on 2012-01-10 of the evaluate-all world
    # walks down a valley where the objective barely moves, scoring
    # eps2 = 0.0 on the way, and ends there near 1e-283.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worlds

    worlds.write_chain_csv(worlds.bs_world(7, 6), tmp_path / "chains.csv")
    day = load_chains(tmp_path / "chains.csv")[5]
    run_protocol([day], ProtocolConfig(labels=("NWCV",), trim=False))
    [(_, _, _, result)] = simplex_searches
    assert math.exp(result.x[1]) < 1e-200


def test_the_stalled_vg_calibration_takes_scipys_steps_and_records_its_end(simplex_searches):
    # (0.4545, 0.3, 0.5) has theta + sigma^2/2 = 0.999 alpha: from the
    # default start the simplex runs out of iterations.
    chain = synth_chain("vg", theta=0.4545, sigma=0.3, alpha=0.5, strikes=(90.0, 100.0, 110.0),
                        maturities_days=(91,))[0].of_kind(OptionKind.PUT)
    quotes = list(zip(chain.strikes.tolist(), chain.taus.tolist(), chain.mids.tolist()))
    meta = {}
    with pytest.raises(CalibrationFailure, match="Maximum number of iterations"):
        vg_calibrate(quotes, OptionKind.PUT, 100.0, 0.02, 0.01, meta=meta)
    [(_, _, _, result)] = simplex_searches
    assert (result.status, result.nit) == (2, 2000) and result.nfev > 3000
    assert meta == {"evaluations": result.nfev, "converged": False}


def test_a_vg_calibration_with_inf_and_nan_spreads_takes_scipys_steps(simplex_searches):
    # The call quoted at 6.9e-245 overflows its squared relative error: the
    # simplex holds several +inf scores, whose spread is inf - inf = NaN.
    quotes = [(105.0, 1 / 365, 0.014261546743565168), (1000.0, 7 / 365, 6.917851566866738e-245),
              (90.0, 91 / 365, 33.37227925360416), (95.0, 1.0, 0.08579653822103706)]
    with pytest.raises(CalibrationFailure):
        vg_calibrate(quotes, OptionKind.CALL, 100.0, 0.02, 0.5)
    assert len(simplex_searches) == 1


def bowl(center, scale, step, wall, hole):
    """A quadratic bowl, floored to multiples of step (ties; a step past
    the bowl's range makes it constant), +inf where u + v > wall and NaN
    where v < hole."""
    def objective(u, v):
        if v < hole:
            return math.nan
        if u + v > wall:
            return math.inf
        q = (u - center[0]) ** 2 + scale * (v - center[1]) ** 2
        return math.floor(q / step) * step if step else q
    return objective


def assert_scipys_search(objective, x0, **options):
    ours = nelder_mead(objective, x0, **options)
    expected = oracles.nelder_mead(objective, x0, **options)
    assert oracles.simplex_bits(ours) == oracles.simplex_bits(expected)
    return ours


def test_a_budget_that_runs_out_mid_shrink_keeps_the_unscored_vertex_score():
    # A constant objective shrinks on every iteration: 3 evaluations to
    # start, then a reflection, a contraction and 2 shrink evaluations each.
    # With 9 or 10 the budget runs out inside the second shrink, which then
    # does not count as an iteration; with 11 it completes.
    constant = bowl((0.0, 0.0), 1.0, 1e300, math.inf, -math.inf)
    for maxfev, nit in [(9, 2), (10, 2), (11, 3)]:
        result = assert_scipys_search(constant, (0.3, -1.2), xatol=1e-4, fatol=0.0,
                                      maxiter=400, maxfev=maxfev)
        assert (result.nfev, result.status, result.nit) == (maxfev, 1, nit)


def test_nan_scores_never_converge_and_make_fun_nan():
    result = assert_scipys_search(bowl((0.0, 0.0), 1.0, 0.0, math.inf, math.inf), (1.0, 2.0),
                                  xatol=1e-4, fatol=1e-12, maxiter=50)
    assert math.isnan(result.fun) and result.status == 2


coordinates = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(center=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       scale=st.sampled_from([1.0, 1e-6, 100.0]),
       step=st.sampled_from([0.0, 1e-3, 0.5, 1e300]),
       wall=st.one_of(st.just(math.inf), st.floats(-2.0, 4.0)),
       hole=st.one_of(st.just(-math.inf), st.floats(-4.0, 2.0)),
       x0=st.tuples(coordinates, coordinates),
       xatol=st.sampled_from([1e-4, 1e-9]),
       fatol=st.sampled_from([0.0, 1e-12, 0.1]),
       maxiter=st.integers(1, 150),
       maxfev=st.one_of(st.just(math.inf), st.integers(0, 120)))
@example(center=(0.0, 0.0), scale=1.0, step=0.0, wall=math.inf, hole=-math.inf, x0=(0.0, 0.0),
         xatol=1e-4, fatol=1e-12, maxiter=150, maxfev=math.inf)
def test_any_bowl_gets_scipys_search(center, scale, step, wall, hole, x0, xatol, fatol,
                                     maxiter, maxfev):
    assert_scipys_search(bowl(center, scale, step, wall, hole), x0, xatol=xatol, fatol=fatol,
                         maxiter=maxiter, maxfev=maxfev)


GUARD = """
import sys
import pricelab, pricelab.cli

def optimize_modules():
    return sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "optimize"])

assert not optimize_modules(), optimize_modules()
out = sys.argv[1]
assert pricelab.cli.main(["synth", "--days", "4", "--noise", "0.005", "--output-dir", out]) == 0
assert pricelab.cli.main(["evaluate", "--input", out + "/chains.csv", "--trim", "--labels",
                          "LI,LIB,BS,NW,BSNW,NWCV,BSNWCV,VG", "--output-dir", out]) == 0
assert not optimize_modules(), optimize_modules()
"""


def test_no_pricelab_process_imports_scipy_optimize(tmp_path):
    # scipy.optimize costs a process about 11 MB; pricelab needs none of it.
    src = str(Path(pricelab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", GUARD, str(tmp_path)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
