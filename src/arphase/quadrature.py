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

Sweep.  Every shift shares one set of panels: those between consecutive
edges e_0 < ... < e_P of {y - d} and the kinks, a composite Gauss rule
(Davis and Rabinowitz, Methods of Numerical Integration, 1984).  The part
of E f(y + Z) above 0 is sum_j w_j H_j(y - d), where
H_j(e) = int_e^inf f(t) e^{-mu_j (t - e)} dt, and H_j(e_p) is the panel
integral from e_p to e_{p+1} plus e^{-mu_j (e_{p+1} - e_p)} H_j(e_{p+1}):
one backward recursion from the tails at e_P.  For a gamma T the part
below 0 is sum_l coef_l G_l(y), with the moments
G_l(e) = int_{-inf}^e (e - t)^l / l! e^{-theta (e - t)} f(t) dt, l < k;
they run forward from a tail at e_0, and the binomial shift carries them
across a panel.  Recursive doubling takes each recursion in log2(P) array
steps.  A point mass only moves the edges, and a kink below every shift
is dropped unless T is gamma.

Schedule.  The first estimate takes 4 nodes per panel and 16 per tail
rule, the next 8 and 32; an entry is done once two successive estimates
agree to the tolerance, and the counts double for the rest, the panels'
up to 2048 and the tails' up to the cap.  An entry's estimate is its
panels' and tails' estimates, each weighted by a decay factor of modulus
at most 1 above 0 (e^{-mu_j (e_p - e)}), so the difference of two levels
is the weighted sum of the panels' and tails' differences, and that sum is
what has to be within tol * max(1, |estimate|).  Each level evaluates f
once, on the panels above the lowest unfinished shift (all panels for a
gamma T) and the tails.  The panels between neighbouring shifts are
short (0.125 wide on the optimality check's grid at lambda = 0.5), so on
smooth panels 4 against 8 nodes already settles its entries to 1e-8, the
8-node values lie within 1e-15 of the 16-node ones, and a larger start
only multiplies the evaluations of f; a single shift's wide panel takes
a level more.

Tails.  Past the top edge the integral splits by eigenvalue, and
each term gets its own Laguerre rule, scaled by Re mu_j, with the
oscillation e^{-i Im mu_j u / Re mu_j} of a complex pair in its weights,
so the two rules of a pair share their nodes and f is evaluated there once;
below the lowest edge one rule of rate theta carries u^l / l! in its weights.
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

from .errors import ConvergenceError, ValidationError
from .innovations import Innovation, NegativePart
from .phasetype import PhaseTypeDist, _alpha_weights


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


# Each tail rule sees f times e^{-u} (and a complex pair's oscillation),
# so a moderate fixed degree is already exact for smooth f; larger degrees
# only push nodes out to where the classical weights underflow.
_LAGUERRE_CAP = 128
# Gauss-Legendre nodes per panel: the first estimate, and the last doubling
# tried.  Each tail rule takes _TAIL_NODES_PER_PANEL_NODE times as many, up
# to the cap.
_START_NODES, _MAX_NODES = 4, 2048
_TAIL_NODES_PER_PANEL_NODE = 4


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


def _sweep(decay, step, last):
    """x_p = decay_p x_{p+1} + step_p for p = P - 1, ..., 0 from x_P = last,
    returning x_0, ..., x_P.  decay is (P, r) for an elementwise recursion or
    (P, r, r) for a matrix one.  Recursive doubling takes log2(P) array
    steps: after the one of stride s, x_p = decay_p x_{p+s} + step_p with the
    products and sums of s panels, and x_p's terms are grouped by their
    offset from p alone, so x_p does not depend on how far the sweep runs
    below p."""
    x = np.concatenate([step, last[None]])
    a = np.concatenate([decay, np.zeros((1,) + decay.shape[1:], decay.dtype)])
    stride = 1
    while stride < len(x):
        if a.ndim == 3:
            x[:-stride] += (a[:-stride] @ x[stride:, :, None])[..., 0]
            a[:-stride] = a[:-stride] @ a[stride:]
        else:
            x[:-stride] += a[:-stride] * x[stride:]
            a[:-stride] *= a[stride:]
        stride *= 2
    return x


def innovation_expectation(inn: Innovation, func, *, at=0.0, breakpoints=(), tol: float = 1e-9):
    """E(func(y + Z)) for Z = S - T and every shift y in `at`, in the shape
    of `at` (a float for a scalar), so at = lam * x gives E_x func(X_1).
    func is vectorized; `breakpoints` are its kinks in its own coordinates
    (b for a value function).  Each entry converges on its own to `tol`.
    A shift or breakpoint that is not finite raises ValidationError
    before func runs.

    All shifts share one set of Gauss-Legendre panels, between consecutive
    edges of {y - d} and the kinks, and one Gauss-Laguerre tail per distinct
    Re mu_j past the top edge; a gamma T adds one tail of rate theta below
    the lowest edge.  func sees the nodes of one level in one call.
    """
    y = np.asarray(at, dtype=float)
    if y.size == 0:
        return np.empty(y.shape)
    flat, kinks = y.ravel(), np.asarray(breakpoints, dtype=float).ravel()
    for name, values in (("shift y", flat), ("breakpoint", kinks)):
        if not np.isfinite(values).all():
            raise ValidationError(f"{name}={values[~np.isfinite(values)][0]} must be finite")
    dist, t_part = inn.s_part, inn.t_part
    w = _alpha_weights(dist, dist.alpha, dist.q)
    mu = dist.spectral.mu
    rate = mu.real
    # The two rules of a complex pair share their nodes (same Re mu), so f
    # runs on the nodes of each distinct rate once; a real spectrum's rates
    # are distinct and already ascending, and `pick` is then the identity.
    rates, pick = np.unique(rate, return_inverse=True)
    k, theta = t_part.shape, t_part.rate
    starts = flat - t_part.d
    # Sorted and deduplicated by hand: a plain np.unique imports numpy.ma,
    # over 1 MB of resident memory, on first use.
    edges = np.sort(np.concatenate([starts, kinks]))
    edges = edges[np.concatenate([[True], edges[1:] > edges[:-1]])]
    if not k:
        edges = edges[edges >= starts.min()]  # S >= 0 never reaches a kink below every start
    at_edge = np.searchsorted(edges, starts)
    width = np.diff(edges)
    if k:
        # Below 0 the density is e^{-theta u} sum_{l<k} coef_l u^l / l! at
        # u = -z, coef_l = theta^k sum_j w_j / (mu_j + theta)^{k-l}.
        orders = np.arange(k)
        coef = theta ** k * np.sum(w[:, None] / (mu[:, None] + theta) ** (k - orders), axis=0).real
        fact = np.cumprod(np.maximum(orders, 1.0))  # l!
        # G(e_{p+1}) = e^{-theta D} B(D) G(e_p) + J_p over a panel of width D,
        # B_{lr} = D^{l-r} / (l-r)! for r <= l: the binomial shift.
        lag = np.maximum(np.subtract.outer(orders, orders), 0)
        shift = np.tril(width[:, None, None] ** lag / fact[lag]) * np.exp(-theta * width)[:, None, None]
        w = w * t_part.laplace_neg(mu)

    def estimate(n: int, live: np.ndarray) -> np.ndarray:
        """The live entries with n nodes on each panel above the lowest live
        edge (every panel for a gamma T) and 4n on each tail, up to the cap."""
        lo = 0 if k else int(at_edge[live].min())
        xg, wg = _leggauss(n)
        xl, wl = _laggauss(_TAIL_NODES_PER_PANEL_NODE * n)
        h = 0.5 * width[lo:, None]
        nodes = [edges[lo:-1, None] + h * (xg + 1.0), edges[-1] + xl / rates[:, None]]
        if k:
            nodes.append(edges[0] - xl / theta)
        values = func(np.concatenate([part.ravel() for part in nodes]))
        panel, top, bottom = np.split(values, np.cumsum([nodes[0].size, nodes[1].size]))
        panel = panel.reshape(-1, n) * (h * wg)
        # Above 0: H_j(e) = int_e^inf f(t) e^{-mu_j (t - e)} dt at each edge,
        # swept down from the tail of eigenvalue j, whose rule has the nodes
        # u / Re mu_j and weights carrying e^{-i Im mu_j u / Re mu_j}, the
        # part of e^{-mu_j s} that the Laguerre weight e^{-u} leaves.
        tail_w = wl * np.exp(-1j * np.outer(mu.imag / rate, xl))
        top = np.sum(top.reshape(rates.size, -1)[pick] * tail_w, axis=1) / rate
        inner = np.exp(-np.multiply.outer(h * (xg + 1.0), mu))
        H = _sweep(np.exp(-np.outer(width[lo:], mu)), np.einsum("pn,pnj->pj", panel, inner), top)
        total = (H[at_edge[live] - lo] @ w).real
        if k:
            # Below 0: G_l(e) = int_{-inf}^e (e - t)^l / l! e^{-theta (e - t)} f(t) dt,
            # swept up from the rate-theta tail at the lowest edge.
            bottom = (bottom * wl) @ (xl[:, None] ** orders) / (fact * theta ** (orders + 1))
            u = h * (1.0 - xg)  # e_{p+1} - t
            steps = np.einsum("pn,pnl->pl", panel * np.exp(-theta * u), u[..., None] ** orders / fact)
            G = _sweep(shift[::-1], steps[::-1], bottom)[::-1]
            total += G[at_edge[live]] @ coef
        return total

    result = np.empty(starts.size)
    live = np.arange(starts.size)
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
    return result.reshape(y.shape) if y.ndim else float(result[0])
