"""Joint law of the threshold time and overshoot.

The crossing transform Phi_i(x) = E_x(rho^tau 1_{G_i}) is obtained from
the residue linear system A Phi(x) = c(x): both eta_{delta,i} and
h_delta(x) are rational in delta with simple poles at the eigenvalues of
-Q once the shared factor e^{delta b} is removed, and matching residues
pole by pole gives an m x m system independent of x.  ResidueSystem(engine,
b) builds A once per threshold and solve(x) returns Phi(x) for each start;
the joint functional E_x(rho^tau g(X_tau)) = sum_i Phi_i(x) E(g(b + R^i))
combines it with overshoot_expectation (stopping.psi_of).

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
class CrossingTransform:
    """Phi_i(x) per phase (last axis), with a coarse numerical error bound."""

    phi_vec: np.ndarray
    error_bound: float

    def total(self):
        return self.phi_vec.sum(axis=-1)[()]


class ResidueSystem:
    """The x-independent matrix A of residues a_{ij} and the residue
    weights needed to evaluate c(x); immutable once built."""

    def __init__(self, engine: TransformEngine, b: float):
        self.engine = engine
        self.b = float(b)
        self.a = engine.eta_residues(self.b)
        # System rows are indexed by poles j: sum_i a_{ij} Phi_i = c_j.
        self.system = self.a.T
        self.cond = float(np.linalg.cond(self.system))
        if not np.isfinite(self.cond) or self.cond > _COND_LIMIT:
            raise SingularSystemError(
                f"residue system condition number {self.cond:.3e} exceeds {_COND_LIMIT:.0e}; "
                "perturb the model parameters"
            )
        self._c_weight = engine.model.rho * engine.pole_weight(self.b)

    def c(self, x) -> np.ndarray:
        F, _ = self.engine.f_series_scalars(x)
        return self._c_weight * F

    def solve(self, x) -> CrossingTransform:
        """Phi(x) from one batched solve of A Phi = c(x): x of any shape gives
        phi_vec of shape x.shape + (m,), so 0-d x gives an m-vector and a
        scalar total().  Every x must lie strictly below b (NaN does not)."""
        x = np.asarray(x, dtype=float)
        if not np.all(x < self.b):
            bad = x[~(x < self.b)].flat[0]
            raise ValidationError(f"start x={bad} must lie strictly below b={self.b}")
        phi = np.linalg.solve(self.system, self.c(x)[..., None])[..., 0]
        rho = self.engine.model.rho
        phi = as_real_vector(phi, what="crossing transform")
        if np.any(phi < -1e-9):
            raise NumericalConsistencyError(
                f"negative crossing weight {phi.min():.3e} beyond tolerance"
            )
        sums = phi.sum(axis=-1)
        if np.any(sums > rho + 1e-9):
            raise NumericalConsistencyError(
                f"crossing weights sum to {sums.max():.12f} > rho = {rho}"
            )
        phi = np.clip(phi, 0.0, 1.0)
        return CrossingTransform(phi_vec=phi, error_bound=self.cond * self.engine.tol)


def closed_form_exp(x, b: float, mu: float, rho: float, lam: float):
    """E_x(rho^tau) for Exp(mu) innovations with T = 0:

        rho * sum_k (rho;lam)_k (mu x lam)^k / k!  /  sum_k (rho;lam)_k (mu b)^k / k!

    x of any shape gives that shape, 0-d x gives a scalar.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x < b):
        raise ValidationError("requires x < b")
    return rho * _qexp_series(mu * x * lam, rho, lam) / _qexp_series(mu * b, rho, lam)


def _qexp_series(z, rho: float, lam: float):
    """sum_k (rho; lam)_k z^k / k!, each z truncated at its own relative term
    size 1e-15.  A total that overflows to inf or NaN can never recover, so
    the convergence error is raised as soon as one does."""
    z = np.asarray(z, dtype=float)
    total, term, live = np.zeros(z.shape), np.ones(z.shape), np.ones(z.shape, dtype=bool)
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
    return total[()]


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

    # Arguments lam^n mu advance by repeated multiplication by lam, as in
    # TransformEngine._tail_series, so exp_phi finds them in its chain.
    num = 0.0 + 0.0j
    n = 1
    arg = lam * mu
    while True:
        factor = np.exp(x * arg) / engine.exp_phi(arg)
        num += factor * rho ** n
        if abs(factor - 1.0) < 1e-15:
            num += rho ** (n + 1) / (1.0 - rho)
            break
        n += 1
        arg *= lam
        if n > engine.max_terms:
            raise NumericalConsistencyError("numerator series failed to converge")

    den = 0.0 + 0.0j
    n = 0
    arg = mu
    while True:
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
        arg *= lam
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
    if gain.variant in ("identity", "power"):
        n = 1 if gain.variant == "identity" else gain.n
        total = 0.0
        vec = np.ones(m)
        moment = 1.0  # E((R^i)^k), built incrementally
        for k in range(n + 1):
            if k > 0:
                vec = np.linalg.solve(-dist.Q, vec)
                moment = math.factorial(k) * float(vec[i])
            total += math.comb(n, k) * b ** (n - k) * moment
        return total
    if gain.variant == "call":
        K = gain.strike
        vec = np.linalg.solve(-dist.Q, np.ones(m))
        if K <= b:
            return (b - K) + float(vec[i])
        # E((R - a)^+) = e_i e^{Qa} (-Q)^{-1} 1 for a = K - b.
        sd = dist.spectral
        val = np.sum(np.exp(-sd.mu * (K - b)) * (sd.projectors[:, i, :] @ vec))
        return as_real(val, what="call overshoot expectation")
    return ph_expectation(dist, lambda s: gain(b + s), init=e_i)


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
