"""The infinite q-Pochhammer symbol (a; q)_infty = prod_{k>=0} (1 - a q^k), and
the q-exponential series Q(z) = sum_k (rho; lam)_k z^k / k! of the m = 1 closed form."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NumericalConsistencyError, ValidationError

_MAX_FACTORS = 200_000


def q_pochhammer_inf(a: float, q: float) -> float:
    """Infinite product (a; q)_infty, truncated when factors are within 1e-15 of 1.

    The Euler function is phi_e(q) = (q; q)_infty.
    """
    if abs(q) >= 1:
        raise ValidationError("|q| must be < 1")
    if q != 0 and abs(a) >= 1.0 / abs(q):
        raise ValidationError("|a| must be < 1/|q| for a well-behaved product")
    out = 1.0
    term = a
    for _ in range(_MAX_FACTORS):
        if abs(term) < 1e-15 * (1.0 - abs(q)):
            # Tail: log prod (1 - a q^k) ~ -sum a q^k, bounded by |term|/(1-|q|).
            return out
        out *= 1.0 - term
        term *= q
    raise ConvergenceError(
        f"(a; q)_inf did not converge within {_MAX_FACTORS} factors (a={a}, q={q})"
    )


def q_exp(z, rho: float, lam: float):
    """Q(z) = sum_k (rho; lam)_k z^k / k! over z of any shape, summed over positive terms only."""
    z = np.asarray(z, dtype=float)
    neg = z < 0
    out = np.empty(z.shape)
    out[neg] = _qexp_mixture(z[neg], rho, lam)
    out[~neg] = _qexp_power(z[~neg], rho, lam)
    return out[()]


def _qexp_power(z: np.ndarray, rho: float, lam: float) -> np.ndarray:
    """The power series for z >= 0, each z truncated at its own relative term
    size 1e-15.  A total that overflows to inf or NaN can never recover, so
    the convergence error is raised as soon as one does."""
    total, term = np.zeros(z.shape), np.ones(z.shape)
    live = np.ones(z.shape, dtype=bool)
    poch = 1.0  # (rho; lam)_k built incrementally
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live.any():
            total = np.where(live, total + poch * term, total)
            if k > 100_000 or not np.all(np.isfinite(total)):
                raise NumericalConsistencyError("q-exponential series failed to converge")
            poch *= 1.0 - rho * lam ** k
            k += 1
            term *= z / k
            small = np.abs(poch * term) < 1e-15 * np.maximum(1.0, np.abs(total))
            live &= ~(small & (k > np.abs(z)))
    return total


def _qexp_mixture(z: np.ndarray, rho: float, lam: float) -> np.ndarray:
    """Q for z < 0, where the power series alternates and cancels, as the
    mixture Q(z) = sum_n w_n exp(lam^n z), w_n = (rho; lam)_inf rho^n / (lam; lam)_n
    (the solution of Q'(z) = Q(z) - rho Q(lam z), Q(0) = 1).  The weights sum
    to 1, so v_n = rho^n / (lam; lam)_n are divided by their sum at the end."""
    num, den = np.zeros(z.shape), 0.0
    v, n = 1.0, 0
    reach = max(1.0, -float(np.min(z, initial=0.0)))
    while True:
        num += v * np.exp(lam ** n * z)
        den += v
        n += 1
        ratio = rho / (1.0 - lam ** n)  # v_n / v_{n-1}, falling in n
        v *= ratio
        if v > 1e250:  # lam near 1: rescale before the weights overflow
            num, den, v = num / v, den / v, 1.0
        if lam ** n * reach < 1e-17 * (1.0 - rho):
            # From here on exp(lam^k z) is 1 and the weight ratio is rho,
            # both to within 1e-17: the rest is geometric.
            tail = v / (1.0 - rho)
            return (num + tail) / (den + tail)
        # Every later term is at most its weight, and the weights from v_n
        # on fall at least by the factor `ratio`.
        if ratio < 1.0 and np.all(v / (1.0 - ratio) < 1e-16 * num):
            return num / den
