"""Discounted optimal stopping over threshold rules.

The candidate value of threshold b started at x is
Psi_x(b) = E_x(rho^{tau_b} g(X_{tau_b})), assembled from the crossing
transform and the closed-form overshoot expectations.  The optimal
threshold is the root of the continuous-fit equation
Psi_{b-}(b) = g(b); for exponential innovations with identity gain the
equation reduces to the transcendental scalar equation f(b) = 0 with

    f(b) = rho/mu - sum_k (rho;lam)_{k+1} (mu^k / k!) (1 - rho lam^{k+1}/(k+1)) b^{k+1},

which is strictly decreasing from f(0) = rho/mu > 0 and bounded above by
rho/mu - (1-rho)(1-rho lam) b, so the root is bracketed analytically.

Every solution is certified by the verification conditions: the value
dominates the gain below the threshold, and the discounted one-step
expectation never exceeds the value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArphaseError, NumericalConsistencyError, ValidationError
from .gains import GainFunction
from .passage import ResidueSystem, _qexp_ratio, closed_form_exp, overshoot_expectation
from .quadrature import innovation_expectation
from .transforms import TransformEngine


@dataclass
class VerificationReport:
    """Worst margins of the two optimality conditions over the test grids."""

    dominance_margin: float      # min v(x) - g(x) below the threshold
    dominance_argmin: float
    supermartingale_margin: float  # min v(x) - rho E(v(lambda x + Z))
    supermartingale_argmin: float
    tolerance: float = 1e-6

    @property
    def passed(self) -> bool:
        return (
            self.dominance_margin >= -self.tolerance
            and self.supermartingale_margin >= -self.tolerance
        )


@dataclass
class StoppingSolution:
    """Optimal threshold with value-function representation and diagnostics."""

    b_star: float
    value_at: object             # callable x -> v(x)
    fit_residual: float
    gain: GainFunction
    method: str
    roots: list = field(default_factory=list)
    maximizer_b: float | None = None
    methods_agree: bool = True
    verification: VerificationReport | None = None


def psi_of(x, b: float, engine: TransformEngine, gain: GainFunction,
           system: ResidueSystem | None = None):
    """Candidate value Psi_x(b) = E_x(rho^tau_b g(X_tau_b))
    = sum_i Phi_i^b(x) E(g(b + R^i)), x < b.  x of any shape gives that
    shape, 0-d x gives a scalar; the m overshoot expectations are
    evaluated once per call."""
    if system is None:
        system = ResidueSystem(engine, b)
    phi_vec = system.solve(x).phi_vec
    dist = engine.model.inn.s_part
    overshoot = np.array([overshoot_expectation(dist, i, b, gain) for i in range(dist.m)])
    return np.sum(phi_vec * overshoot, axis=-1)[()]


def threshold_value(b: float, gain: GainFunction, below):
    """The value of stopping at the first entry to [b, inf): g(x) at or
    above b and below(x) under it.  The returned rule takes x of any shape
    and gives that shape (0-d x gives a scalar); below is called once, on
    the x under b, and not at all when there are none."""

    def value_at(x):
        x = np.asarray(x, dtype=float)
        above = x >= b  # False for NaN, which below then rejects
        value = np.empty(x.shape)
        value[above] = gain(x[above])
        if not above.all():
            value[~above] = below(x[~above])
        return value[()]

    return value_at


def f_of_b(b: float, mu: float, rho: float, lam: float) -> float:
    """The continuous-fit scalar equation for Exp(mu) innovations, identity gain."""
    if b < 0:
        raise ValidationError("b must be nonnegative")
    total = rho / mu
    poch = 1.0 - rho          # (rho; lam)_{k+1} built incrementally
    fact_term = b             # mu^k b^{k+1} / k!
    k = 0
    while True:
        term = poch * fact_term * (1.0 - rho * lam ** (k + 1) / (k + 1))
        total -= term
        poch *= 1.0 - rho * lam ** (k + 1)
        k += 1
        fact_term *= mu * b / k
        if abs(fact_term) < 1e-15 * max(1.0, abs(total)) and k > mu * b:
            return total
        if k > 100_000:
            raise NumericalConsistencyError("f(b) series failed to converge")


def solve_threshold_exp_identity(
    mu: float, rho: float, lam: float, tol: float = 1e-12
) -> StoppingSolution:
    """Root of f(b) = 0 on its analytic bracket, with value representation
    v(x) = (b* + 1/mu) E_x(rho^tau_{b*}) below the threshold and g(x) = x above."""
    from scipy import optimize

    b_hi = rho / (mu * (1.0 - rho) * (1.0 - rho * lam)) + 0.1
    f = lambda b: f_of_b(b, mu, rho, lam)
    f0, fhi = f(0.0), f(b_hi)
    if not (f0 > 0 and fhi < 0):
        raise NumericalConsistencyError(
            f"analytic bracket failed: f(0)={f0}, f({b_hi})={fhi}"
        )
    b_star = float(optimize.brentq(f, 0.0, b_hi, xtol=1e-15, rtol=8.9e-16))
    # Secant polish down to the requested residual.
    for _ in range(10):
        if abs(f(b_star)) <= tol:
            break
        h = max(1e-9, 1e-9 * b_star)
        slope = (f(b_star + h) - f(b_star - h)) / (2 * h)
        b_star -= f(b_star) / slope

    gain = GainFunction.identity()
    factor = b_star + 1.0 / mu
    value_at = threshold_value(
        b_star, gain, lambda x: factor * closed_form_exp(x, b_star, mu, rho, lam)
    )

    # Continuous fit holds by construction: Psi_{b-}(b*) uses the x -> b*
    # limit of the closed form, which is its value at x = b*.
    psi_limit = factor * _qexp_ratio(b_star, b_star, mu, rho, lam)
    fit_residual = abs(psi_limit - b_star)
    return StoppingSolution(
        b_star=b_star,
        value_at=value_at,
        fit_residual=fit_residual,
        gain=gain,
        method="exp-identity-root",
        roots=[b_star],
    )


def maximize_psi(engine: TransformEngine, gain: GainFunction, x_ref: float,
                 b_lo: float, b_hi: float, xatol: float = 1e-8) -> float:
    """Bounded Brent maximizer of b -> Psi_{x_ref}(b) on [b_lo, b_hi]."""
    from scipy import optimize

    if not x_ref < b_lo:
        raise ValidationError("reference start must lie below the window")
    res = optimize.minimize_scalar(
        lambda b: -psi_of(x_ref, b, engine, gain),
        bounds=(b_lo, b_hi),
        method="bounded",
        options={"xatol": xatol},
    )
    return float(res.x)


def solve_threshold_general(
    engine: TransformEngine,
    gain: GainFunction,
    b_lo: float,
    b_hi: float,
    x_ref: float | None = None,
    eps: float = 1e-7,
    n_scan: int = 41,
) -> StoppingSolution:
    """Continuous-fit root of F(b) = Psi_{b-}(b) - g(b) on the window,
    cross-validated by direct maximization of Psi_{x_ref}(b)."""
    from scipy import optimize

    if not b_lo < b_hi:
        raise ValidationError("window must satisfy b_lo < b_hi")
    if x_ref is None:
        x_ref = b_lo - 0.1 * (b_hi - b_lo) - 1e-6

    def fit_gap(b: float) -> float:
        g1, g2 = psi_of(np.array([b - eps, b - eps / 2]), b, engine, gain)
        if abs(g1 - g2) > 1e-4 * max(1.0, abs(g1)):
            raise NumericalConsistencyError(
                f"one-sided limit at b={b} unstable: {g1} vs {g2}"
            )
        return g2 - float(gain(b))

    grid = np.linspace(b_lo, b_hi, n_scan)
    vals = [fit_gap(b) for b in grid]
    roots = []
    for lo, hi, vlo, vhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if vlo == 0.0:
            roots.append(float(lo))
        elif vlo * vhi < 0:
            roots.append(float(optimize.brentq(fit_gap, lo, hi, xtol=1e-12)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        raise ArphaseError(
            f"continuous-fit equation has no root in [{b_lo}, {b_hi}]"
        )

    b_max = maximize_psi(engine, gain, x_ref, b_lo, b_hi)
    b_star = min(roots, key=lambda r: abs(r - b_max))
    agree = abs(b_star - b_max) <= 1e-4

    system = ResidueSystem(engine, b_star)
    return StoppingSolution(
        b_star=b_star,
        value_at=threshold_value(
            b_star, gain, lambda x: psi_of(x, b_star, engine, gain, system)
        ),
        fit_residual=abs(fit_gap(b_star)),
        gain=gain,
        method="continuous-fit",
        roots=roots,
        maximizer_b=b_max,
        methods_agree=agree,
    )


def verify_solution(
    sol: StoppingSolution,
    engine: TransformEngine,
    gain: GainFunction,
    span: float = 5.0,
    n_below: int = 200,
    n_step: int = 41,
    quad_tol: float = 1e-8,
) -> VerificationReport:
    """Check value dominance below b* and the discounted one-step
    supermartingale inequality on a grid around b*."""
    b = sol.b_star
    v = sol.value_at
    below = np.linspace(b - span, b - 1e-9, n_below)
    margins = v(below) - gain(below)
    dom_idx = int(np.argmin(margins))

    lam, rho = engine.model.lam, engine.model.rho
    grid = np.linspace(b - span, b + span, n_step)
    expected = innovation_expectation(
        engine.model.inn, v, at=lam * grid, breakpoints=[b], tol=quad_tol
    )
    step_margins = v(grid) - rho * expected
    step_idx = int(np.argmin(step_margins))
    report = VerificationReport(
        dominance_margin=float(margins[dom_idx]),
        dominance_argmin=float(below[dom_idx]),
        supermartingale_margin=float(step_margins[step_idx]),
        supermartingale_argmin=float(grid[step_idx]),
    )
    sol.verification = report
    return report

