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
Q(mu b) <= e^{mu b} is still finite.  Newton steps on the exact slope,
from Q'(z) = Q(z) - rho Q(lam z), refine the bracket's secant point, and
a step that would leave the bracket bisects it.

solve_threshold is the entry point: it takes that closed form where it
applies and the continuous-fit scan of a window [b_lo, b_hi] elsewhere.
The scan is one ResidueSystem over 41 thresholds, each gap one residue
solve at x = b, where c(x) is analytic.  Each sign change of the gap is
refined by the same safeguarded Newton steps, and so is the best b of
Psi_{x_ref}, the maximizer that cross-checks the root.  There a Newton
step is one build at (b - h, b, b + h) with central-difference slopes,
or at (b, b + h, b + 2h) with forward ones where b < h, so that no
threshold of the build lies below 0.  Every solution is certified by the
verification conditions: the value dominates the gain below the
threshold, and the discounted one-step expectation never exceeds the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArphaseError, NumericalConsistencyError, ValidationError
from .gains import GainFunction
from .passage import ResidueSystem, _qexp_series, closed_form_exp
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
    the system computes the overshoot phase vector once per gain."""
    phi_vec = system.solve(x).phi_vec
    return np.sum(phi_vec * system._per_x(system.overshoot(gain), x), axis=-1)[()]


def _fit_gap(system: ResidueSystem, gain: GainFunction):
    """Psi_{b-}(b) - g(b) for each b of system.b: the residue formula is
    analytic at x = b, so the left limit is one solve at x = b itself."""
    b = system.b
    psi = np.sum(system._solve(b).phi_vec * system.overshoot(gain), axis=-1)
    # One scalar g(b) per b, so that a batched build gives each b's scalar gap.
    return (psi - np.reshape([gain(bk) for bk in b.flat], b.shape))[()]


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
    bracket [0, b_hi], capped at 700/mu, by Newton steps on the exact slope
    from the bracket's secant point; a step that would leave the bracket
    bisects it.  The value representation is
    v(x) = (b* + 1/mu) E_x(rho^tau_{b*}) below the threshold and g(x) = x
    above."""

    def gap_slope(b: float):
        # q_i = Q(lam^i mu b) from one series call, r = rho q_1 / q_0 =
        # E_b(rho^tau_{b+}), and Q'(z) = Q(z) - rho Q(lam z) gives
        # dr/db = mu (rho lam (q_1 - rho q_2) / q_0 - r (1 - r)): ratios
        # only, so nothing overflows up to the 700/mu cap.
        q0, q1, q2 = _qexp_series(mu * b * lam ** np.arange(3), rho, lam)
        r = rho * q1 / q0
        dr = mu * (rho * lam * (q1 - rho * q2) / q0 - r * (1.0 - r))
        return (b + 1.0 / mu) * r - b, r + (b + 1.0 / mu) * dr - 1.0

    b_hi = min(rho / (mu * (1.0 - rho) * (1.0 - rho * lam)) + 0.1, 700.0 / mu)
    g0, ghi = gap_slope(0.0)[0], gap_slope(b_hi)[0]
    if not (g0 > 0 and ghi < 0):
        raise NumericalConsistencyError(
            f"analytic bracket failed: gap(0)={g0}, gap({b_hi})={ghi}"
        )
    # Steps end below 1e-15 b_hi, where the gap is rounding: b* lands
    # within about 1e-14 of the exact root, relative, up to lam = rho = 0.99.
    b_star = _newton(gap_slope, 0.0, b_hi, g0 / (g0 - ghi) * b_hi, 1.0, 1e-15 * b_hi)

    gain, factor = GainFunction.identity(), b_star + 1.0 / mu
    value_at = threshold_value(
        b_star, gain, lambda x: factor * closed_form_exp(x, b_star, mu, rho, lam))
    return StoppingSolution(b_star, value_at, abs(float(gap_slope(b_star)[0])), gain)


# Newton steps on the fit gap end once a step is below 1e-12.
_XTOL = 1e-12
# A central-difference dPsi/db places the maximizer only to about h^2 =
# 1e-8, and below about 1e-11 its steps are rounding: they end below 1e-10.
_MAXIMIZER_XTOL = 1e-10
# Half-width h of the (b - h, b, b + h) stencil of a Newton step.
_STENCIL_H = 1e-4


def _stencil(b: float, h: float) -> np.ndarray:
    """The thresholds of a Newton step at b: (b - h, b, b + h), or the
    one-sided (b, b + h, b + 2h) where b < h, so that none lies below 0."""
    return b + (np.array([-h, 0.0, h]) if b >= h else np.array([0.0, h, 2.0 * h]))


def _slopes(b: float, h: float, v0: float, v1: float, v2: float) -> tuple:
    """First and second derivatives at b from the values v0, v1, v2 at
    _stencil(b, h): central differences, or second-order forward ones."""
    second = (v2 - 2.0 * v1 + v0) / (h * h)
    if b >= h:
        return (v2 - v0) / (2.0 * h), second
    return (4.0 * v1 - 3.0 * v0 - v2) / (2.0 * h), second


def _newton(stencil, lo: float, hi: float, b: float, sign_lo: float, tol: float) -> float:
    """Root of f in [lo, hi], where f has sign sign_lo at lo and the other
    sign at hi, by Newton steps from b; stencil(b) gives f(b) and f'(b).
    Each evaluated b replaces the bracket end of its sign.  A step that
    leaves the bracket, runs against the bracket's sign change or is more
    than half the step before it is a bisection step instead, so the root
    stays bracketed and the steps shrink.  The search ends once a step is
    below tol, or once two Newton steps in a row put the next one below
    tol: converging quadratically, it is about |step|^3 / |last step|^2."""
    last, last_newton = math.inf, False
    while True:
        f, slope = map(float, stencil(b))
        if f == 0.0:
            return float(b)
        if math.copysign(1.0, f) == sign_lo:
            lo = b
        else:
            hi = b
        newton = slope * sign_lo < 0 and lo < b - f / slope < hi and abs(f / slope) <= 0.5 * last
        step = -f / slope if newton else 0.5 * (lo + hi) - b
        if abs(step) < tol or (newton and last_newton and abs(step) ** 3 < tol * last ** 2):
            return float(b + step)
        b, last, last_newton = b + step, abs(step), newton


def maximize_psi(scan: ResidueSystem, gain: GainFunction, x_ref: float) -> float:
    """Maximizer of b -> Psi_{x_ref}(b) over the window of scan, a
    ResidueSystem on an increasing grid of b: Psi on the grid is one more
    solve of scan.  Newton steps on dPsi/db start at the best b of the
    grid, or at the vertex of the parabola through it and its grid
    neighbours, which bracket the search; a step with Psi'' >= 0 bisects.
    Each step is one build at _stencil(b, h), h shrunk where needed to
    keep b - h above x_ref."""
    grid = scan.b
    if not x_ref < grid[0]:
        raise ValidationError("reference start must lie below the window")
    psi = psi_of(np.full(grid.shape, x_ref), scan, gain)
    k = int(np.argmax(psi))
    start = grid[k]
    if 0 < k < grid.size - 1:
        curve = psi[k - 1] - 2.0 * psi[k] + psi[k + 1]
        if curve < 0:  # start at the vertex of the parabola through k and its neighbours
            start += 0.5 * (grid[k + 1] - grid[k]) * (psi[k - 1] - psi[k + 1]) / curve
    h = min(_STENCIL_H, 0.5 * (grid[0] - x_ref))

    def slopes(b):
        stencil = ResidueSystem(scan.engine, _stencil(b, h))
        return _slopes(b, h, *psi_of(np.full(3, x_ref), stencil, gain))

    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    return _newton(slopes, lo, hi, start, 1.0, _MAXIMIZER_XTOL)


def solve_threshold_general(
    engine: TransformEngine,
    gain: GainFunction,
    b_lo: float,
    b_hi: float,
) -> StoppingSolution:
    """Continuous-fit root of F(b) = Psi_{b-}(b) - g(b) on the window,
    cross-validated by direct maximization of Psi_{x_ref}(b) from a start
    x_ref a tenth of the window below it.  The left limit Psi_{b-}(b) is
    the residue solve at x = b itself.  The window is scanned
    on 41 points, all in one ResidueSystem, for sign changes of F and for
    the best b of Psi_{x_ref}.  Each sign change is refined by Newton steps
    on F from the secant point of its bracket, and the best b by Newton
    steps on dPsi_{x_ref}/db; each step is one batched build at
    (b - h, b, b + h) with central-difference slopes, or at
    (b, b + h, b + 2h) with forward ones where b < h, and a step that
    leaves its bracket bisects it.  The root nearest the maximizer is b*,
    and methods_agree says whether the two lie within 1e-6."""
    if not b_lo < b_hi:
        raise ValidationError("window must satisfy b_lo < b_hi")
    x_ref = b_lo - 0.1 * (b_hi - b_lo) - 1e-6

    def gap_slope(b):
        gaps = _fit_gap(ResidueSystem(engine, _stencil(b, _STENCIL_H)), gain)
        return gaps[0 if b < _STENCIL_H else 1], _slopes(b, _STENCIL_H, *gaps)[0]

    scan = ResidueSystem(engine, np.linspace(b_lo, b_hi, 41))
    grid, vals = scan.b, _fit_gap(scan, gain)
    roots = []
    for lo, hi, vlo, vhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if vlo == 0.0:
            roots.append(float(lo))
        elif np.sign(vlo) * np.sign(vhi) < 0:  # the gaps' own product may overflow or underflow
            secant = lo + vlo / (vlo - vhi) * (hi - lo)
            roots.append(_newton(gap_slope, lo, hi, secant, np.sign(vlo), _XTOL))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        raise ArphaseError(
            f"continuous-fit equation has no root in [{b_lo}, {b_hi}]"
        )

    b_max = maximize_psi(scan, gain, x_ref)
    b_star = min(roots, key=lambda r: abs(r - b_max))
    agree = abs(b_star - b_max) <= 1e-6

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
    lam, rho = engine.model.lam, engine.model.rho
    below = np.linspace(b - 5.0, b - 1e-9, 200)
    grid = np.linspace(b - 5.0, b + 5.0, 41)
    values = v(np.concatenate([below, grid]))
    margins = values[:below.size] - gain(below)
    dom_idx = int(np.argmin(margins))

    expected = innovation_expectation(
        engine.model.inn, v, at=lam * grid, breakpoints=[b], tol=1e-8
    )
    step_margins = values[below.size:] - rho * expected
    step_idx = int(np.argmin(step_margins))
    return VerificationReport(
        dominance_margin=float(margins[dom_idx]),
        dominance_argmin=float(below[dom_idx]),
        supermartingale_margin=float(step_margins[step_idx]),
        supermartingale_argmin=float(grid[step_idx]),
    )
