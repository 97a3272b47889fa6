"""Quadrature of expectations against phase-type and innovation densities.

PH densities are exponential polynomials, so panels of Gauss-Legendre
between breakpoints plus a scaled Gauss-Laguerre tail converge fast.
Integrands with kinks or jumps (indicators, piecewise value functions)
must pass the kink locations as breakpoints; each panel then sees a
smooth function.  Node counts are doubled until the estimate moves less
than the requested tolerance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_laguerre

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


@lru_cache(maxsize=64)
def _laggauss(n: int):
    return roots_laguerre(min(n, _LAGUERRE_CAP))


def _ph_density_eval(w, mu, s):
    vals = np.exp(-np.multiply.outer(s, mu)) @ w
    return vals.real


def _doubling_quadrature(dist, init, t_part, func, bps_z, tol, start_nodes, max_nodes, name):
    """E(func(S - T)) for S ~ PH(Q, init or alpha) and independent T ~ t_part,
    with the kinks of func given in z-coordinates.

    For each node t of T, S is integrated by Gauss-Legendre panels between
    the shifted kinks and a scaled Gauss-Laguerre tail; node counts are
    doubled until two estimates agree to `tol`.
    """
    left = dist.alpha if init is None else np.asarray(init, dtype=float)
    w = _alpha_weights(dist, left, dist.q)
    mu = dist.spectral.mu
    beta = float(np.min(mu.real))

    def estimate(n: int) -> float:
        xg, wg = _leggauss(n)
        xl, wl = _laggauss(n)
        total = 0.0
        for t, wt in zip(*t_part.quadrature_nodes(min(n, _LAGUERRE_CAP))):
            inner = 0.0
            lo = 0.0
            for hi in sorted(b + t for b in bps_z if b + t > 0):
                half = 0.5 * (hi - lo)
                s = lo + half * (xg + 1.0)
                inner += half * float(
                    np.sum(wg * func(s - t) * _ph_density_eval(w, mu, s))
                )
                lo = hi
            s = lo + xl / beta
            # integrand / (beta e^{-beta (s-lo)}) evaluated at Laguerre nodes
            inner += float(
                np.sum(wl * func(s - t) * _ph_density_eval(w, mu, s) * np.exp(xl))
                / beta
            )
            total += wt * inner
        return total

    prev = estimate(start_nodes)
    n = start_nodes * 2
    while n <= max_nodes:
        cur = estimate(n)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise ConvergenceError(
        f"{name} did not stabilize below {tol} at {max_nodes} nodes"
    )


def ph_expectation(
    dist: PhaseTypeDist,
    func,
    *,
    init=None,
    breakpoints=(),
    tol: float = 1e-9,
    start_nodes: int = 64,
    max_nodes: int = 2048,
) -> float:
    """E(func(S)) for S ~ PH(Q, init or alpha), func vectorized over arrays.

    `breakpoints` lists interior points where func is not smooth; the
    integral is split there.
    """
    return _doubling_quadrature(
        dist, init, NegativePart.zero(), func, [float(b) for b in breakpoints],
        tol, start_nodes, max_nodes, "ph_expectation",
    )


def innovation_expectation(
    inn: Innovation,
    func,
    *,
    breakpoints_z=(),
    tol: float = 1e-9,
    start_nodes: int = 64,
    max_nodes: int = 2048,
) -> float:
    """E(func(Z)) for Z = S - T, func vectorized, kinks given in z-coordinates."""
    return _doubling_quadrature(
        inn.s_part, None, inn.t_part, func, [float(b) for b in breakpoints_z],
        tol, start_nodes, max_nodes, "innovation_expectation",
    )
