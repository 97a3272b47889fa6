"""Joint law of the threshold time and overshoot.

The crossing transform Phi_i(x) = E_x(rho^tau 1_{G_i}) is obtained from
the residue linear system A Phi(x) = c(x): both eta_{delta,i} and
h_delta(x) are rational in delta with simple poles at the eigenvalues of
-Q once the shared factor e^{delta b} is removed, and matching residues
pole by pole gives an m x m system independent of x.  ResidueSystem(engine,
b) builds A once per threshold and solve(x) returns Phi(x) for each start;
the joint functional E_x(rho^tau g(X_tau)) = sum_i Phi_i(x) E(g(b + R^i))
combines it with the phase vector of overshoot_expectation(dist, b, g)
(stopping.psi_of, which reads b from the system).

The m = 1 exponential case with T = 0 additionally has the q-series
closed form (closed_form_exp), which the residue route must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, SingularSystemError, ValidationError
from .gains import GainFunction
from .phasetype import PhaseTypeDist, as_real_vector
from .quadrature import ph_expectation
from .transforms import SERIES_TOL, TransformEngine

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
        return CrossingTransform(phi_vec=phi, error_bound=self.cond * SERIES_TOL)


def closed_form_exp(x, b: float, mu: float, rho: float, lam: float):
    """E_x(rho^tau) for Exp(mu) innovations with T = 0:

        rho * sum_k (rho;lam)_k (mu x lam)^k / k!  /  sum_k (rho;lam)_k (mu b)^k / k!

    x of any shape gives that shape, 0-d x gives a scalar.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x < b) & (x > -np.inf)):
        raise ValidationError("requires -inf < x < b")
    return _qexp_ratio(x, b, mu, rho, lam)


def _qexp_ratio(x, b: float, mu: float, rho: float, lam: float):
    """closed_form_exp without its x < b check: at x = b, the x -> b- limit."""
    return rho * _qexp_series(mu * x * lam, rho, lam) / _qexp_series(mu * b, rho, lam)


def _qexp_series(z, rho: float, lam: float):
    """Q(z) = sum_k (rho; lam)_k z^k / k!, summed over positive terms only."""
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


def overshoot_expectation(dist: PhaseTypeDist, b: float, gain: GainFunction) -> np.ndarray:
    """The m-vector of E(g(b + R^i)) for R^i ~ PH(Q, e_i), in closed form
    where possible."""
    m = dist.m
    if gain.variant in ("identity", "power"):
        n = 1 if gain.variant == "identity" else gain.n
        total = np.full(m, b ** n, dtype=float)  # the k = 0 term of the binomial sum
        vec = np.ones(m)  # (-Q)^{-k} 1, so that E((R^i)^k) = k! vec_i
        for k in range(1, n + 1):
            vec = np.linalg.solve(-dist.Q, vec)
            total += math.comb(n, k) * b ** (n - k) * (math.factorial(k) * vec)
        return total
    if gain.variant == "call":
        K = gain.strike
        vec = np.linalg.solve(-dist.Q, np.ones(m))
        if K <= b:
            return (b - K) + vec
        # E((R^i - a)^+) = e_i e^{Qa} (-Q)^{-1} 1 for a = K - b.
        sd = dist.spectral
        val = np.sum(np.exp(-sd.mu * (K - b))[:, None] * (sd.projectors @ vec), axis=0)
        return as_real_vector(val, what="call overshoot expectation")
    return np.array([ph_expectation(dist, lambda s: gain(b + s), init=e) for e in np.eye(m)])


def derivative_identity_check(x: float, b: float, mu: float, rho: float, lam: float) -> float:
    """Residual of d/db E_x(rho^tau_b) = E_x(rho^tau_b) mu (E_b(rho^tau_{b+}) - 1).

    The derivative is approximated by a second-order central difference
    with step 1e-4.
    """
    step = 1e-4
    lhs = (
        closed_form_exp(x, b + step, mu, rho, lam)
        - closed_form_exp(x, b - step, mu, rho, lam)
    ) / (2.0 * step)
    eb_plus = _qexp_ratio(b, b, mu, rho, lam)
    rhs = closed_form_exp(x, b, mu, rho, lam) * mu * (eb_plus - 1.0)
    return abs(lhs - rhs)
