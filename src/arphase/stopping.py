"""Discounted optimal stopping over threshold rules.

The candidate value of threshold b started at x is
Psi_x(b) = E_x(rho^{tau_b} g(X_{tau_b})) = sum_i Phi_i^b(x) E(g(b + R^i)):
one ResidueSystem for b, which carries b and the engine, times the phase
vector of overshoot expectations at that b.  The optimal
threshold is the root of the continuous-fit gap Psi_{b-}(b) - g(b), and
both routes report |gap(b*)| as fit_residual.  For exponential
innovations with identity gain, Psi_x(b) = (b + 1/mu) E_x(rho^{tau_b})
with the q-series closed form, Q(z) = sum_k (rho; lam)_k z^k / k!, so

    gap(b) = (b + 1/mu) rho Q(lam mu b) / Q(mu b) - b = f(b) / Q(mu b),
    f(b) = rho (b + 1/mu) Q(lam mu b) - b Q(mu b)
         = rho/mu - sum_k (rho;lam)_{k+1} (mu^k / k!) (1 - rho lam^{k+1}/(k+1)) b^{k+1}.

f is strictly decreasing from f(0) = rho/mu > 0 and bounded above by
rho/mu - (1-rho)(1-rho lam) b, and Q(mu b) > 0, so the root of gap is
bracketed analytically; the bracket end is capped at 700/mu, where
Q(mu b) <= e^{mu b} is still finite.

solve_threshold is the entry point: it takes that closed form where it
applies and the continuous-fit scan of a window [b_lo, b_hi] elsewhere.
Every solution is certified by the verification conditions: the value
dominates the gain below the threshold, and the discounted one-step
expectation never exceeds the value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ArphaseError, NumericalConsistencyError, ValidationError
from .gains import GainFunction
from .passage import ResidueSystem, _qexp_ratio, closed_form_exp, overshoot_expectation
from .quadrature import innovation_expectation
from .transforms import TransformEngine


@dataclass
class VerificationReport:
    """Worst margins of the two optimality conditions over the test grids;
    `passed` lets each fall to -1e-6."""

    dominance_margin: float      # min v(x) - g(x) below the threshold
    dominance_argmin: float
    supermartingale_margin: float  # min v(x) - rho E(v(lambda x + Z))
    supermartingale_argmin: float

    @property
    def passed(self) -> bool:
        return (
            self.dominance_margin >= -1e-6
            and self.supermartingale_margin >= -1e-6
        )


@dataclass
class StoppingSolution:
    """Optimal threshold with value-function representation and diagnostics."""

    b_star: float
    value_at: object             # callable x -> v(x)
    fit_residual: float
    gain: GainFunction
    maximizer_b: float | None = None
    methods_agree: bool = True


def psi_of(x, system: ResidueSystem, gain: GainFunction):
    """Candidate value Psi_x(b) = E_x(rho^tau_b g(X_tau_b))
    = sum_i Phi_i^b(x) E(g(b + R^i)), x < b, for b = system.b.  x of any
    shape with b's shape in front gives that shape, 0-d x gives a scalar;
    the overshoot phase vector is evaluated once per b and call."""
    phi_vec = system.solve(x).phi_vec
    overshoot = overshoot_expectation(system.engine.model.inn.s_part, system.b, gain)
    return np.sum(phi_vec * system._per_x(overshoot, x), axis=-1)[()]


def _fit_gap(system: ResidueSystem, gain: GainFunction):
    """Psi_{b-}(b) - g(b) for each b of system.b, read at b - 5e-8 and
    checked against b - 1e-7; the first unstable b raises."""
    b = system.b
    g1, g2 = np.moveaxis(psi_of(b[..., None] - [1e-7, 5e-8], system, gain), -1, 0)
    unstable = np.abs(g1 - g2) > 1e-4 * np.maximum(1.0, np.abs(g1))
    if unstable.any():
        k = np.argmax(unstable)  # the first unstable b
        raise NumericalConsistencyError(f"one-sided limit at b={b.flat[k]} unstable: "
                                        f"{g1.flat[k]} vs {g2.flat[k]}")
    # One scalar g(b) per b, as brentq's steps get it.
    return (g2 - np.reshape([gain(bk) for bk in b.flat], b.shape))[()]


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


def solve_threshold_exp_identity(mu: float, rho: float, lam: float) -> StoppingSolution:
    """Root of the fit gap (b + 1/mu) E_b(rho^tau_{b+}) - b on its analytic
    bracket, capped at 700/mu, with value representation
    v(x) = (b* + 1/mu) E_x(rho^tau_{b*}) below the threshold and g(x) = x
    above."""
    from scipy import optimize

    def gap(b: float) -> float:
        # rho Q(lam mu b) / Q(mu b) = E_b(rho^tau_{b+}).
        return float((b + 1.0 / mu) * _qexp_ratio(b, b, mu, rho, lam) - b)

    b_hi = min(rho / (mu * (1.0 - rho) * (1.0 - rho * lam)) + 0.1, 700.0 / mu)
    g0, ghi = gap(0.0), gap(b_hi)
    if not (g0 > 0 and ghi < 0):
        raise NumericalConsistencyError(
            f"analytic bracket failed: gap(0)={g0}, gap({b_hi})={ghi}"
        )
    b_star = float(optimize.brentq(gap, 0.0, b_hi, xtol=1e-15, rtol=8.9e-16))

    gain, factor = GainFunction.identity(), b_star + 1.0 / mu
    value_at = threshold_value(
        b_star, gain, lambda x: factor * closed_form_exp(x, b_star, mu, rho, lam))
    return StoppingSolution(b_star, value_at, abs(gap(b_star)), gain)


def maximize_psi(engine: TransformEngine, gain: GainFunction, x_ref: float,
                 b_lo: float, b_hi: float) -> float:
    """Bounded Brent maximizer of b -> Psi_{x_ref}(b) on [b_lo, b_hi]."""
    from scipy import optimize

    if not x_ref < b_lo:
        raise ValidationError("reference start must lie below the window")
    res = optimize.minimize_scalar(
        lambda b: -psi_of(x_ref, ResidueSystem(engine, b), gain),
        bounds=(b_lo, b_hi),
        method="bounded",
        options={"xatol": 1e-8},
    )
    return float(res.x)


def solve_threshold_general(
    engine: TransformEngine,
    gain: GainFunction,
    b_lo: float,
    b_hi: float,
) -> StoppingSolution:
    """Continuous-fit root of F(b) = Psi_{b-}(b) - g(b) on the window,
    cross-validated by direct maximization of Psi_{x_ref}(b) from a start
    x_ref a tenth of the window below it.  The left limit Psi_{b-}(b) is
    read at b - 5e-8 and checked against b - 1e-7; the window is scanned
    on 41 points for sign changes, all in one ResidueSystem."""
    from scipy import optimize

    if not b_lo < b_hi:
        raise ValidationError("window must satisfy b_lo < b_hi")
    x_ref = b_lo - 0.1 * (b_hi - b_lo) - 1e-6

    grid = np.linspace(b_lo, b_hi, 41)
    vals = _fit_gap(ResidueSystem(engine, grid), gain)
    roots = []
    for lo, hi, vlo, vhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if vlo == 0.0:
            roots.append(float(lo))
        elif np.sign(vlo) * np.sign(vhi) < 0:  # the gaps' own product may overflow or underflow
            roots.append(float(optimize.brentq(
                lambda b: _fit_gap(ResidueSystem(engine, b), gain), lo, hi, xtol=1e-12)))
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
    return replace(_stop_at(system, gain), fit_residual=abs(_fit_gap(system, gain)),
                   maximizer_b=b_max, methods_agree=agree)


def _stop_at(system: ResidueSystem, gain: GainFunction) -> StoppingSolution:
    """The rule that stops at the first entry to [b, inf), b = system.b:
    psi_of below b and the gain at or above it, with no fit."""
    b = float(system.b)
    value_at = threshold_value(b, gain, lambda x: psi_of(x, system, gain))
    return StoppingSolution(b, value_at, float("nan"), gain)


def fixed_threshold(engine: TransformEngine, gain: GainFunction, b: float) -> StoppingSolution:
    """The value of stopping at the first entry to [b, inf) for a given b,
    optimal or not: fit_residual is nan and there is no maximizer."""
    return _stop_at(ResidueSystem(engine, b), gain)


def solve_threshold(engine: TransformEngine, gain: GainFunction,
                    b_lo: float | None, b_hi: float | None) -> StoppingSolution:
    """The optimal threshold.  One exponential phase, T = 0 and the
    identity gain take the q-series root with mu = -Q_00, which ignores
    the window; every other problem takes the continuous-fit scan of
    [b_lo, b_hi], and a missing end raises ValidationError."""
    model = engine.model
    if model.m == 1 and model.inn.t_part.variant == "zero" and gain.variant == "identity":
        mu = -float(model.inn.s_part.Q[0, 0])
        return solve_threshold_exp_identity(mu, model.rho, model.lam)
    for name, end in (("b_lo", b_lo), ("b_hi", b_hi)):
        if end is None:
            raise ValidationError(f"{name} is missing: this problem needs a window [b_lo, b_hi]")
    return solve_threshold_general(engine, gain, b_lo, b_hi)


def verify_solution(sol: StoppingSolution, engine: TransformEngine) -> VerificationReport:
    """Check value dominance over the gain sol.gain on 200 points of
    [b* - 5, b*) and the discounted one-step supermartingale inequality on
    41 points of [b* - 5, b* + 5], by quadrature to 1e-8."""
    b, v, gain = sol.b_star, sol.value_at, sol.gain
    below = np.linspace(b - 5.0, b - 1e-9, 200)
    margins = v(below) - gain(below)
    dom_idx = int(np.argmin(margins))

    lam, rho = engine.model.lam, engine.model.rho
    grid = np.linspace(b - 5.0, b + 5.0, 41)
    expected = innovation_expectation(
        engine.model.inn, v, at=lam * grid, breakpoints=[b], tol=1e-8
    )
    step_margins = v(grid) - rho * expected
    step_idx = int(np.argmin(step_margins))
    return VerificationReport(
        dominance_margin=float(margins[dom_idx]),
        dominance_argmin=float(below[dom_idx]),
        supermartingale_margin=float(step_margins[step_idx]),
        supermartingale_argmin=float(grid[step_idx]),
    )
