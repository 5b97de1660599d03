"""Shared synthetic fixtures, and simplex_searches.

Session scope where generation is not free; every fixture is a pure
function of fixed seeds, so tests never interact through them.
simplex_searches holds a test's Nelder-Mead searches to scipy's.
"""

import numpy as np
import pytest

import oracles
import pricelab.kernel as kernel
import pricelab.variance_gamma as vg
from pricelab import simplex
from pricelab.market_data import OptionKind
from pricelab.synth import synth_chain


@pytest.fixture
def simplex_searches(monkeypatch):
    """Every Nelder-Mead search the test runs, LOO-CV's and VG's, as
    (objective, x0, options, result); at teardown each is run again
    through scipy (oracles.nelder_mead), which must give its result bit
    for bit."""
    searches = []

    def recording(objective, x0, **options):
        result = simplex.nelder_mead(objective, x0, **options)
        searches.append((objective, x0, options, result))
        return result

    monkeypatch.setattr(kernel, "nelder_mead", recording)
    monkeypatch.setattr(vg, "nelder_mead", recording)
    yield searches
    for objective, x0, options, result in searches:
        expected = oracles.nelder_mead(objective, x0, **options)
        assert oracles.simplex_bits(result) == oracles.simplex_bits(expected), (x0, options)


@pytest.fixture(scope="session")
def bs_day():
    """One noiseless constant-vol day, both kinds, 13 strikes x 4 expiries."""
    return synth_chain("bs", dividend=0.013)[0]


@pytest.fixture(scope="session")
def bs_days():
    """Twenty noiseless constant-vol trading days."""
    return synth_chain("bs", n_days=20, dividend=0.01)


@pytest.fixture(scope="session")
def bs_put_day(bs_day):
    return bs_day.of_kind(OptionKind.PUT)


@pytest.fixture(scope="session")
def vg_day():
    """One noiseless day priced by the Gamma-subordinated model, with every
    put mid comfortably above the trim floor."""
    return synth_chain(
        "vg",
        theta=0.0,
        sigma=0.3,
        alpha=3.0,
        strikes=list(np.linspace(90.0, 120.0, 10)),
        maturities_days=(91, 182, 273, 365),
    )[0]
