"""Quadrature of expectations against phase-type and innovation densities.

PH densities are exponential polynomials, so panels of Gauss-Legendre
between breakpoints plus a scaled Gauss-Laguerre tail converge fast.
Integrands with kinks or jumps (indicators, piecewise value functions)
must pass the kink locations as breakpoints; each panel then sees a
smooth function.  Node counts are doubled until the estimate moves less
than the requested tolerance.  `innovation_expectation` is the batched
one-step operator y -> E f(y + Z) over an array of shifts y: the result
has the shape of the shifts, the breakpoints are kinks of f in its own
coordinates (b for a value function, whatever the shift), and each entry
converges on its own.  `ph_expectation` is its T = 0, shift 0 case.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .innovations import Innovation, NegativePart
from .phasetype import PhaseTypeDist, _alpha_weights


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


# The tail integrand is an exponential polynomial after rescaling, so a
# moderate fixed-degree rule is already exact; larger degrees only push
# nodes out to where the classical weights underflow.
_LAGUERRE_CAP = 128
# Node counts per panel: the first estimate, and the last doubling tried.
_START_NODES, _MAX_NODES = 64, 2048


@lru_cache(maxsize=64)
def _laggauss(n: int):
    from scipy.special import roots_laguerre

    return roots_laguerre(min(n, _LAGUERRE_CAP))


def _ph_density_eval(w, mu, s):
    vals = np.exp(-np.multiply.outer(s, mu)) @ w
    return vals.real


def ph_expectation(dist: PhaseTypeDist, func, *, init=None) -> float:
    """E(func(S)) to 1e-9 for S ~ PH(Q, init or alpha), func smooth and
    vectorized over arrays; a func with kinks goes through
    innovation_expectation, which takes them as breakpoints."""
    if init is not None:
        dist = replace(dist, alpha=np.asarray(init, dtype=float))
    return innovation_expectation(Innovation(dist, NegativePart.zero()), func)


def innovation_expectation(
    inn: Innovation,
    func,
    *,
    at=0.0,
    breakpoints=(),
    tol: float = 1e-9,
):
    """E(func(y + Z)) for Z = S - T and every shift y in `at`, in the shape
    of `at` (a float for a scalar), so at = lam * x gives E_x func(X_1).
    func is vectorized; `breakpoints` are its kinks in its own coordinates
    (b for a value function).  Each entry converges on its own to `tol`.

    For each node t of T, entry y integrates S by Gauss-Legendre panels
    from 0 through its kinks at s = kink - y + t, skipping panels of zero
    width, then a scaled Gauss-Laguerre tail; func sees only weighted
    nodes, in one call per T node and level.
    """
    dist, t_part = inn.s_part, inn.t_part
    w = _alpha_weights(dist, dist.alpha, dist.q)
    mu = dist.spectral.mu
    beta = float(np.min(mu.real))
    y = np.ravel(np.asarray(at, dtype=float))
    kinks_s = np.sort(np.asarray(breakpoints, dtype=float)) - y[:, None]

    def estimate(n: int, live: np.ndarray) -> np.ndarray:
        xg, wg = _leggauss(n)
        xl, wl = _laggauss(n)
        total = np.zeros(live.size)
        for t, wt in zip(*t_part.quadrature_nodes(min(n, _LAGUERRE_CAP))):
            edges = np.pad(np.maximum(kinks_s[live] + t, 0.0), ((0, 0), (1, 0)))
            half = 0.5 * np.diff(edges, axis=1)
            rows, cols = np.nonzero(half > 0)
            half = half[rows, cols]
            s = np.concatenate([
                (edges[rows, cols][:, None] + half[:, None] * (xg + 1.0)).ravel(),
                (edges[:, -1:] + xl / beta).ravel(),
            ])
            shift = np.concatenate([np.repeat(y[live[rows]], xg.size), np.repeat(y[live], xl.size)])
            weights = np.concatenate([np.tile(wg, rows.size), np.tile(wl, live.size)])
            terms = weights * func(shift + (s - t)) * _ph_density_eval(w, mu, s)
            cut = rows.size * xg.size
            panels = half * np.sum(terms[:cut].reshape(-1, xg.size), axis=1)
            # integrand / (beta e^{-beta (s-lo)}) evaluated at Laguerre nodes
            tail = np.sum(terms[cut:].reshape(-1, xl.size) * np.exp(xl), axis=1) / beta
            total += wt * (np.bincount(rows, panels, live.size) + tail)
        return total

    result = np.empty(y.size)
    live = np.arange(y.size)
    prev = estimate(_START_NODES, live)
    n = _START_NODES * 2
    while live.size and n <= _MAX_NODES:
        cur = estimate(n, live)
        done = np.abs(cur - prev) <= tol * np.maximum(1.0, np.abs(cur))
        result[live[done]] = cur[done]
        live, prev = live[~done], cur[~done]
        n *= 2
    if live.size:
        raise ConvergenceError(
            f"innovation_expectation did not stabilize below {tol} at {_MAX_NODES} nodes"
        )
    return result.reshape(np.shape(at)) if np.ndim(at) else float(result[0])
