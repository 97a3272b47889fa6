"""Quadrature of expectations against phase-type and innovation densities.

A PH density is an exponential polynomial sum_k w_k e^{-mu_k s}, so
Gauss-Legendre panels between breakpoints plus Gauss-Laguerre tails
converge fast.  Integrands with kinks or jumps (indicators, piecewise
value functions) must pass the kink locations as breakpoints; each panel
then sees a smooth function.  `innovation_expectation` is the batched
one-step operator y -> E f(y + Z) over an array of shifts y: the result
has the shape of the shifts, the breakpoints are kinks of f in its own
coordinates (b for a value function, whatever the shift), and each entry
converges on its own.  `ph_expectation` is its T = 0, shift 0 case.

Schedule.  The first estimate takes 16 nodes per panel and the next 32;
an entry is done once two successive estimates agree to the tolerance,
and the count doubles up to 2048 for the rest.  On smooth panels 16
against 32 nodes already settles the optimality check's entries to 1e-8;
a larger start only multiplies the evaluations of f.

Tails.  Past the last edge the integral splits by eigenvalue, and each
term gets its own Laguerre rule, scaled by Re mu_k, with the oscillation
e^{-i Im mu_k u / Re mu_k} of a complex pair in its weights.  For a
polynomial f and a real spectrum each rule is then exact once 2n > deg f.
The Laguerre degree stops at 128, so past that cap two levels share
their tail estimate and their agreement says nothing about the tail: a
capped rule cannot certify itself, and the tail has to be right by
construction.  A single rule scaled to the slowest rate is not: with
rates 0.2 and 20 it cannot resolve the fast phase, agrees with itself
past the cap, and puts E(y + S) up to 0.14 off, where E S = 2.525.
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


# Each tail rule sees f times e^{-u} (and a complex pair's oscillation),
# so a moderate fixed degree is already exact for smooth f; larger degrees
# only push nodes out to where the classical weights underflow.
_LAGUERRE_CAP = 128
# Node counts per panel: the first estimate, and the last doubling tried.
_START_NODES, _MAX_NODES = 16, 2048


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
    width, then one Gauss-Laguerre tail per eigenvalue of -Q; func sees
    only weighted nodes, in one call per T node and level.
    """
    dist, t_part = inn.s_part, inn.t_part
    w = _alpha_weights(dist, dist.alpha, dist.q)
    mu = dist.spectral.mu
    rate = mu.real
    y = np.ravel(np.asarray(at, dtype=float))
    kinks_s = np.sort(np.asarray(breakpoints, dtype=float)) - y[:, None]

    def estimate(n: int, live: np.ndarray) -> np.ndarray:
        xg, wg = _leggauss(n)
        xl, wl = _laggauss(n)
        # Eigenvalue k's tail rule: nodes u / Re mu_k past the last edge,
        # and weights carrying e^{-i Im mu_k u / Re mu_k}, the part of
        # e^{-mu_k s} that the Laguerre weight e^{-u} leaves.
        tail_u = xl / rate[:, None]
        tail_w = wl * np.exp(-1j * np.outer(mu.imag / rate, xl))
        total = np.zeros(live.size)
        for t, wt in zip(*t_part.quadrature_nodes(min(n, _LAGUERRE_CAP))):
            edges = np.pad(np.maximum(kinks_s[live] + t, 0.0), ((0, 0), (1, 0)))
            half = 0.5 * np.diff(edges, axis=1)
            rows, cols = np.nonzero(half > 0)
            half = half[rows, cols]
            last = edges[:, -1]
            s_panel = (edges[rows, cols][:, None] + half[:, None] * (xg + 1.0)).ravel()
            s = np.concatenate([s_panel, (last[:, None, None] + tail_u).ravel()])
            shift = np.concatenate([np.repeat(y[live[rows]], xg.size), np.repeat(y[live], tail_u.size)])
            values = func(shift + (s - t))
            cut = s_panel.size
            terms = np.tile(wg, rows.size) * values[:cut] * _ph_density_eval(w, mu, s_panel)
            panels = half * np.sum(terms.reshape(-1, xg.size), axis=1)
            # sum_k w_k e^{-mu_k last} / Re mu_k * sum_l tail_w[k, l] func(...)
            rules = np.sum(values[cut:].reshape(live.size, *tail_u.shape) * tail_w, axis=-1)
            tail = np.sum(np.exp(-np.outer(last, mu)) * (w / rate) * rules, axis=1).real
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
