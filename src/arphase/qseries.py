"""The infinite q-Pochhammer symbol (a; q)_infty = prod_{k>=0} (1 - a q^k)."""

from __future__ import annotations

from .errors import ConvergenceError, ValidationError

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

