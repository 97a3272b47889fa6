"""Quadrature of expectations against phase-type and innovation densities.

A PH density is an exponential polynomial sum_j w_j e^{-mu_j s}, and so
is that of Z = S - T on each side of 0: a zero or point-mass T = d shifts
S, and for T ~ gamma(k, theta) it is sum_j w_j E(e^{-mu_j T}) e^{-mu_j z}
above 0 and e^{theta z} times a polynomial of degree k - 1 in |z| below.
Gauss-Legendre panels between breakpoints, which must include every kink
or jump of the integrand, plus Gauss-Laguerre tails then converge fast.
`innovation_expectation` is the batched one-step operator y -> E f(y + Z)
over an array of shifts y, with the kinks of f in its own coordinates (b
for a value function, whatever the shift); `ph_expectation` is its T = 0,
shift 0 case.

Schedule.  The first estimate takes 16 nodes per panel and the next 32;
an entry is done once two successive estimates agree to the tolerance,
and the count doubles up to 2048 for the rest.  On smooth panels 16
against 32 nodes already settles the optimality check's entries to 1e-8;
a larger start only multiplies the evaluations of f.

Tails.  Past the last edge above 0 the integral splits by eigenvalue, and
each term gets its own Laguerre rule, scaled by Re mu_j, with the
oscillation e^{-i Im mu_j u / Re mu_j} of a complex pair in its weights,
so the two rules of a pair share their nodes and f is evaluated there once;
below 0 one rule of rate theta carries the polynomial in its weights.
For a polynomial f and a real spectrum each rule is then exact once
2n > deg f + k - 1.  The Laguerre degree stops at 128, so past that cap
two levels share their tail estimate and their agreement says nothing
about the tail: a capped rule cannot certify itself, and the tail has to
be right by construction.  A single rule scaled to the slowest rate is
not: with rates 0.2 and 20 it cannot resolve the fast phase, agrees with
itself past the cap, and puts E(y + S) up to 0.14 off, where E S = 2.525.
The rules are numpy's laggauss: eigenvalues of the symmetric Jacobi matrix
(Golub and Welsch, Math. Comp. 23, 1969) with one Newton step on the
nodes.  At the cap its nodes lie within 8e-14 of scipy's roots_laguerre,
relative, and sum w x^k = k! holds to 3.4e-13 relative for k < 40,
against 1.6e-14 for scipy: far below the 1e-8 and 1e-9 tolerances here.
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
    return np.polynomial.laguerre.laggauss(min(n, _LAGUERRE_CAP))


def ph_expectation(dist: PhaseTypeDist, func, *, init=None) -> float:
    """E(func(S)) to 1e-9 for S ~ PH(Q, init or alpha), func smooth and
    vectorized over arrays; a func with kinks goes through
    innovation_expectation, which takes them as breakpoints."""
    if init is not None:
        dist = replace(dist, alpha=np.asarray(init, dtype=float))
    return innovation_expectation(Innovation(dist, NegativePart.zero()), func)


def _nodes(edges, xg, tail):
    """Nodes xg on each panel of positive width between a row's edges, then
    its last edge plus `tail`: panel rows and half-widths, node rows and points."""
    half = 0.5 * np.diff(edges, axis=1)
    rows, cols = np.nonzero(half > 0)
    half = half[rows, cols]
    panel = (edges[rows, cols][:, None] + half[:, None] * (xg + 1.0)).ravel()
    entry = np.concatenate([np.repeat(rows, xg.size), np.repeat(np.arange(len(edges)), tail.size)])
    past = edges[:, -1].reshape((-1,) + (1,) * tail.ndim) + tail
    return rows, half, entry, np.concatenate([panel, past.ravel()])


def innovation_expectation(inn: Innovation, func, *, at=0.0, breakpoints=(), tol: float = 1e-9):
    """E(func(y + Z)) for Z = S - T and every shift y in `at`, in the shape
    of `at` (a float for a scalar), so at = lam * x gives E_x func(X_1).
    func is vectorized; `breakpoints` are its kinks in its own coordinates
    (b for a value function).  Each entry converges on its own to `tol`.

    Entry y integrates S by Gauss-Legendre panels from 0 through its kinks
    at s = kink - y + d, skipping panels of zero width, then one
    Gauss-Laguerre tail per eigenvalue of -Q.  A gamma T (d = 0) adds u = -z
    below 0: panels through the mirrored kinks u = y - kink, then one tail
    of rate theta.  func sees only weighted nodes, in one call per level.
    """
    dist, t_part = inn.s_part, inn.t_part
    w = _alpha_weights(dist, dist.alpha, dist.q)
    mu = dist.spectral.mu
    rate = mu.real
    # The two rules of a complex pair share their nodes (same Re mu), so f
    # runs on the nodes of each distinct rate once; a real spectrum's rates
    # are distinct and already ascending, and `pick` is then the identity.
    rates, pick = np.unique(rate, return_inverse=True)
    y = np.ravel(np.asarray(at, dtype=float))
    kinks_s = np.sort(np.asarray(breakpoints, dtype=float)) - y[:, None]
    k, theta, d = t_part.shape, t_part.rate, t_part.d
    if k:
        # Below 0 the density is e^{-theta u} p(u) at u = -z, where p(u) =
        # sum_{i<k} u^{k-1-i} theta^k / (k-1-i)! sum_j w_j / (mu_j + theta)^{i+1}.
        i = np.arange(k)
        scale = theta ** k / np.cumprod(np.maximum(i, 1.0))[::-1]
        coef = (scale * np.sum(w[:, None] / (mu[:, None] + theta) ** (i + 1), axis=0)).real
        w = w * t_part.laplace_neg(mu)

    def estimate(n: int, live: np.ndarray) -> np.ndarray:
        xg, wg = _leggauss(n)
        xl, wl = _laggauss(n)
        # Eigenvalue j's tail rule: nodes u / Re mu_j past the last edge,
        # and weights carrying e^{-i Im mu_j u / Re mu_j}, the part of
        # e^{-mu_j s} that the Laguerre weight e^{-u} leaves.
        tail_w = wl * np.exp(-1j * np.outer(mu.imag / rate, xl))
        edges = np.pad(np.maximum(kinks_s[live] + d, 0.0), ((0, 0), (1, 0)))
        rows, half, entry, s = _nodes(edges, xg, xl / rates[:, None])
        z = y[live][entry] + (s - d)
        if k:
            mirrored = np.pad(np.maximum(-kinks_s[live][:, ::-1], 0.0), ((0, 0), (1, 0)))
            l_rows, l_half, l_entry, u = _nodes(mirrored, xg, xl / theta)
            z = np.concatenate([z, y[live][l_entry] - u])
        values = func(z)
        cut = rows.size * xg.size
        # sum_j w_j e^{-mu_j last} / Re mu_j * sum_l tail_w[j, l] func(...)
        rules = np.sum(values[cut:s.size].reshape(live.size, rates.size, -1)[:, pick] * tail_w, axis=-1)
        tail = np.sum(np.exp(-np.outer(edges[:, -1], mu)) * (w / rate) * rules, axis=1).real
        terms = np.tile(wg, rows.size) * values[:cut] * (np.exp(-np.outer(s[:cut], mu)) @ w).real
        total = np.bincount(rows, half * np.sum(terms.reshape(-1, xg.size), axis=1), live.size) + tail
        if k:
            # func(y - u) p(u) against e^{-theta u}; the tail rule from edge L scales by e^{-theta L} / theta.
            fp, cut = values[s.size:] * np.polyval(coef, u), l_rows.size * xg.size
            terms = np.tile(wg, l_rows.size) * fp[:cut] * np.exp(-theta * u[:cut])
            total += np.bincount(l_rows, l_half * np.sum(terms.reshape(-1, xg.size), axis=1), live.size)
            total += np.exp(-theta * mirrored[:, -1]) / theta * (fp[cut:].reshape(live.size, -1) @ wl)
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
