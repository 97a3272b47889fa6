"""Joint law of the threshold time and overshoot.

The crossing transform Phi_i(x) = E_x(rho^tau 1_{G_i}) is obtained from
the residue linear system A Phi(x) = c(x): both eta_{delta,i} and
h_delta(x) are rational in delta with simple poles at the eigenvalues of
-Q once the shared factor e^{delta b} is removed, and matching residues
pole by pole gives an m x m system independent of x.

The m = 1 exponential case additionally has the q-series closed form
(closed_form_exp) and the general-T single-phase series
(closed_form_exp_general), which the residue route must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, SingularSystemError, ValidationError
from .gains import GainFunction
from .phasetype import PhaseTypeDist, as_real, as_real_vector
from .quadrature import ph_expectation
from .transforms import TransformEngine

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class PassageProblem:
    """A threshold-crossing problem: start x strictly below level b."""

    engine: TransformEngine
    b: float
    x: float

    def __post_init__(self):
        if not self.x < self.b:
            raise ValidationError(f"start x={self.x} must lie strictly below b={self.b}")


@dataclass(frozen=True)
class CrossingTransform:
    """Phi_i(x) per phase, with a coarse numerical error bound."""

    phi_vec: np.ndarray
    error_bound: float

    def total(self) -> float:
        return float(self.phi_vec.sum())


class ResidueSystem:
    """The x-independent matrix A of residues a_{ij} and the residue
    weights needed to evaluate c(x); immutable once built."""

    def __init__(self, engine: TransformEngine, b: float):
        self.engine = engine
        self.b = float(b)
        m = engine.m
        a = np.empty((m, m), dtype=complex)
        for i in range(m):
            a[i] = engine.eta_residues(i, self.b)
        self.a = a
        # System rows are indexed by poles j: sum_i a_{ij} Phi_i = c_j.
        self.system = a.T
        self.cond = float(np.linalg.cond(self.system))
        if not np.isfinite(self.cond) or self.cond > _COND_LIMIT:
            raise SingularSystemError(
                f"residue system condition number {self.cond:.3e} exceeds {_COND_LIMIT:.0e}; "
                "perturb the model parameters"
            )
        exp_phi_l = engine.exp_phi_at_eigen(engine.model.lam)
        self._c_weight = (
            engine.model.rho
            * engine.r
            * np.exp(-engine.mu * self.b)
            * engine.lt
            * exp_phi_l
        )

    def c(self, x: float) -> np.ndarray:
        F, _ = self.engine.f_series_scalars(x)
        return self._c_weight * F

    def solve(self, x: float) -> CrossingTransform:
        if not x < self.b:
            raise ValidationError(f"start x={x} must lie strictly below b={self.b}")
        phi = np.linalg.solve(self.system, self.c(x))
        rho = self.engine.model.rho
        phi = as_real_vector(phi, what="crossing transform")
        if np.any(phi < -1e-9):
            raise NumericalConsistencyError(
                f"negative crossing weight {phi.min():.3e} beyond tolerance"
            )
        if phi.sum() > rho + 1e-9:
            raise NumericalConsistencyError(
                f"crossing weights sum to {phi.sum():.12f} > rho = {rho}"
            )
        phi = np.clip(phi, 0.0, 1.0)
        return CrossingTransform(phi_vec=phi, error_bound=self.cond * self.engine.tol)


def solve_phi(problem: PassageProblem, system: ResidueSystem | None = None) -> CrossingTransform:
    """Phi(x) = A^{-1} c(x) for the given problem."""
    if system is None:
        system = ResidueSystem(problem.engine, problem.b)
    return system.solve(problem.x)


def closed_form_exp(x: float, b: float, mu: float, rho: float, lam: float) -> float:
    """E_x(rho^tau) for Exp(mu) innovations with T = 0:

        rho * sum_k (rho;lam)_k (mu x lam)^k / k!  /  sum_k (rho;lam)_k (mu b)^k / k!
    """
    if not x < b:
        raise ValidationError("requires x < b")
    return rho * _qexp_series(mu * x * lam, rho, lam) / _qexp_series(mu * b, rho, lam)


def _qexp_series(z: float, rho: float, lam: float) -> float:
    """sum_k (rho; lam)_k z^k / k!, truncated at relative term size 1e-15."""
    total = 0.0
    term = 1.0
    poch = 1.0  # (rho; lam)_k built incrementally
    k = 0
    while True:
        total += poch * term
        poch *= 1.0 - rho * lam ** k
        k += 1
        term *= z / k
        if abs(poch * term) < 1e-15 * max(1.0, abs(total)) and k > abs(z):
            return total
        if k > 100_000:
            raise NumericalConsistencyError("q-exponential series failed to converge")


def closed_form_exp_general(x: float, b: float, engine: TransformEngine) -> float:
    """E_x(rho^tau) for m = 1 with any supported T:

        sum_{n>=1} e^{lam^n mu x - phi(lam^n mu)} rho^n
        -------------------------------------------------------------
        sum_{n>=0} e^{lam^n mu b - phi(lam^{n+1} mu) - psi2(lam^n mu)} rho^n
    """
    if engine.m != 1:
        raise ValidationError("closed_form_exp_general requires a single phase")
    if not x < b:
        raise ValidationError("requires x < b")
    lam, rho = engine.model.lam, engine.model.rho
    mu = complex(engine.mu[0])
    t_part = engine.model.inn.t_part

    num = 0.0 + 0.0j
    n = 1
    while True:
        arg = lam ** n * mu
        factor = np.exp(x * arg) / engine.exp_phi(arg)
        num += factor * rho ** n
        if abs(factor - 1.0) < 1e-15:
            num += rho ** (n + 1) / (1.0 - rho)
            break
        n += 1
        if n > engine.max_terms:
            raise NumericalConsistencyError("numerator series failed to converge")

    den = 0.0 + 0.0j
    n = 0
    while True:
        arg = lam ** n * mu
        factor = (
            np.exp(b * arg)
            / engine.exp_phi(lam * arg)
            / np.exp(t_part.log_laplace_neg(arg))
        )
        den += factor * rho ** n
        if abs(factor - 1.0) < 1e-15:
            den += rho ** (n + 1) / (1.0 - rho)
            break
        n += 1
        if n > engine.max_terms:
            raise NumericalConsistencyError("denominator series failed to converge")

    return as_real(num / den, what="closed_form_exp_general")


def overshoot_expectation(
    dist: PhaseTypeDist, i: int, b: float, gain: GainFunction
) -> float:
    """E(g(b + R^i)) for R^i ~ PH(Q, e_i), in closed form where possible."""
    m = dist.m
    e_i = np.zeros(m)
    e_i[i] = 1.0
    if gain.variant == "identity":
        return b + float(e_i @ np.linalg.solve(-dist.Q, np.ones(m)))
    if gain.variant == "power":
        total = 0.0
        vec = np.ones(m)
        moment = 1.0  # E((R^i)^k), built incrementally
        for k in range(gain.n + 1):
            if k > 0:
                vec = np.linalg.solve(-dist.Q, vec)
                moment = math.factorial(k) * float(e_i @ vec)
            total += math.comb(gain.n, k) * b ** (gain.n - k) * moment
        return total
    if gain.variant == "call":
        K = gain.strike
        mean_tail = float(e_i @ np.linalg.solve(-dist.Q, np.ones(m)))
        if K <= b:
            return (b - K) + mean_tail
        # E((R - a)^+) = e_i e^{Qa} (-Q)^{-1} 1 for a = K - b.
        a = K - b
        sd = dist.spectral
        vec = np.linalg.solve(-dist.Q, np.ones(m))
        val = 0.0 + 0.0j
        for j in range(m):
            val += np.exp(-sd.mu[j] * a) * (e_i @ sd.projectors[j] @ vec)
        return as_real(val, what="call overshoot expectation")
    return ph_expectation(dist, lambda s: gain(b + s), init=e_i)


def joint_functional(
    problem: PassageProblem,
    gain: GainFunction,
    system: ResidueSystem | None = None,
) -> float:
    """E_x(rho^tau g(X_tau)) = sum_i Phi_i(x) E(g(b + R^i))."""
    ct = solve_phi(problem, system)
    dist = problem.engine.model.inn.s_part
    return float(
        sum(
            ct.phi_vec[i] * overshoot_expectation(dist, i, problem.b, gain)
            for i in range(dist.m)
        )
    )


def derivative_identity_check(
    x: float, b: float, mu: float, rho: float, lam: float, step: float = 1e-4
) -> float:
    """Residual of d/db E_x(rho^tau_b) = E_x(rho^tau_b) mu (E_b(rho^tau_{b+}) - 1).

    The derivative is approximated by a second-order central difference.
    """
    lhs = (
        closed_form_exp(x, b + step, mu, rho, lam)
        - closed_form_exp(x, b - step, mu, rho, lam)
    ) / (2.0 * step)
    eb_plus = rho * _qexp_series(mu * b * lam, rho, lam) / _qexp_series(mu * b, rho, lam)
    rhs = closed_form_exp(x, b, mu, rho, lam) * mu * (eb_plus - 1.0)
    return abs(lhs - rhs)
