"""Nelder-Mead (1965) in two dimensions, on Python floats.

nelder_mead is scipy's minimize(method="Nelder-Mead") without adaptive
coefficients or bounds, step for step: the same first simplex,
the same reflect, expand, contract and shrink steps, the same order of
vertices and the same tests. It visits the same points and returns the
same result, bit for bit (tests/test_simplex.py holds it to scipy). It
leaves out scipy's per-evaluation wrapper, array copies and result
objects, and importing it loads no part of scipy.

Vertices are ordered by np.argsort over a float64 array of their
scores, where scipy orders them: numpy's sort is not stable on every
host, so ties (+inf ones among them) and NaNs fall where numpy puts
them. A spread that is NaN fails the convergence test, as scipy's np.max
does.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

# scipy's messages, whose texts reach CalibrationFailure's.
_MESSAGES = ("Optimization terminated successfully.",
             "Maximum number of function evaluations has been exceeded.",
             "Maximum number of iterations has been exceeded.")


class SimplexResult(NamedTuple):
    """The best vertex x and its score fun (NaN if any vertex scores NaN),
    the objective's evaluations nfev and iterations nit, and status 0
    (converged), 1 (out of evaluations) or 2 (out of iterations), with
    its message."""

    x: tuple[float, float]
    fun: float
    nfev: int
    nit: int
    status: int
    message: str


class _Exhausted(Exception):
    pass


def _ordered(sim: list, fsim: list) -> tuple[list, list]:
    order = np.argsort(np.array(fsim, dtype=float)).tolist()
    return [sim[k] for k in order], [fsim[k] for k in order]


def nelder_mead(objective: Callable[[float, float], float], x0: Sequence[float], *,
                xatol: float, fatol: float, maxiter: int,
                maxfev: float = math.inf) -> SimplexResult:
    """Minimize objective(u, v) from x0 until every vertex lies within
    xatol of the best in each coordinate and scores within fatol of it,
    or maxiter iterations or maxfev evaluations are spent."""
    nfev = 0

    def score(x: tuple[float, float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return objective(*x)

    u, v = float(x0[0]), float(x0[1])
    sim = [(u, v), ((1 + 0.05) * u if u != 0 else 0.00025, v),
           (u, (1 + 0.05) * v if v != 0 else 0.00025)]
    fsim = [math.inf] * 3
    try:
        for k in range(3):
            fsim[k] = score(sim[k])
    except _Exhausted:
        pass
    sim, fsim = _ordered(sim, fsim)
    sim, fsim = _ordered(sim, fsim)
    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            (b1, b2), (m1, m2), (w1, w2) = sim
            if (abs(m1 - b1) <= xatol and abs(m2 - b2) <= xatol and abs(w1 - b1) <= xatol
                    and abs(w2 - b2) <= xatol and abs(fsim[0] - fsim[1]) <= fatol
                    and abs(fsim[0] - fsim[2]) <= fatol):
                break
            c1, c2 = (b1 + m1) / 2, (b2 + m2) / 2
            xr = (2 * c1 - w1, 2 * c2 - w2)
            fxr = score(xr)
            if fxr < fsim[0]:
                xe = (3 * c1 - 2 * w1, 3 * c2 - 2 * w2)
                fxe = score(xe)
                sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[1]:
                sim[2], fsim[2] = xr, fxr
            else:
                if fxr < fsim[2]:
                    xc = (1.5 * c1 - 0.5 * w1, 1.5 * c2 - 0.5 * w2)
                    fxc = score(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = (0.5 * c1 + 0.5 * w1, 0.5 * c2 + 0.5 * w2)
                    fxc = score(xc)
                    shrink = not fxc < fsim[2]
                if not shrink:
                    sim[2], fsim[2] = xc, fxc
                else:
                    # A vertex moved before it is scored: out of evaluations,
                    # it keeps its old score.
                    for j in (1, 2):
                        s1, s2 = sim[j]
                        sim[j] = (b1 + 0.5 * (s1 - b1), b2 + 0.5 * (s2 - b2))
                        fsim[j] = score(sim[j])
            nit += 1
        except _Exhausted:
            pass
        sim, fsim = _ordered(sim, fsim)
    status = 1 if nfev >= maxfev else 2 if nit >= maxiter else 0
    return SimplexResult(sim[0], float(np.min(fsim)), nfev, nit, status, _MESSAGES[status])
