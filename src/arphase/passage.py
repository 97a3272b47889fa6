"""Joint law of the threshold time and overshoot.

The crossing transform Phi_i(x) = E_x(rho^tau 1_{G_i}) is obtained from
the residue linear system A Phi(x) = c(x): both eta_{delta,i} and
h_delta(x) are rational in delta with simple poles at the eigenvalues of
-Q once the shared factor e^{delta b} is removed, and matching residues
pole by pole gives an m x m system independent of x.  ResidueSystem(engine,
b) builds A once per threshold or per threshold array, and solve(x) returns
Phi(x) for each start; stopping.psi_of, which reads b from the system,
combines it with the phase vector of overshoot_expectation(dist, b, g) into
the joint functional E_x(rho^tau g(X_tau)) = sum_i Phi_i(x) E(g(b + R^i)).

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
    weights needed to evaluate c(x); immutable once built.  b of any shape
    puts b's shape in front of A, the weights and the error bound; each b is
    checked on its own, as in its scalar build, and `cond` is the largest.
    A residue is inf or NaN when e^{b a_n} overflows (b too large) or a
    series divides by e^{phi} = 0 (E(e^{-uT}) underflows: T too large);
    either raises NumericalConsistencyError naming that b."""

    def __init__(self, engine: TransformEngine, b):
        self.engine = engine
        self.b = np.asarray(b, dtype=float)[()]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.a = engine.eta_residues(self.b)
        finite = np.isfinite(self.a).all(axis=(-2, -1))
        if not finite.all():
            raise NumericalConsistencyError(
                f"residues at b={np.ravel(self.b)[~np.ravel(finite)][0]} are not finite; "
                "b is too large for this model, or T so large that E(e^{-uT}) underflows to 0"
            )
        # System rows are indexed by poles j: sum_i a_{ij} Phi_i = c_j.
        self.system = np.swapaxes(self.a, -1, -2)
        cond = np.asarray(np.linalg.cond(self.system))
        bad = cond[~(cond <= _COND_LIMIT)]  # NaN as well
        if bad.size:
            raise SingularSystemError(
                f"residue system condition number {bad[0]:.3e} exceeds {_COND_LIMIT:.0e}; "
                "perturb the model parameters"
            )
        self.cond, self._bound = float(cond.max()), (cond * SERIES_TOL)[()]
        self._c_weight = engine.model.rho * engine.pole_weight(self.b)

    def _per_x(self, arr, x) -> np.ndarray:
        """arr, with b's axes in front, broadcastable against x."""
        return np.expand_dims(arr, tuple(range(np.ndim(self.b), np.ndim(x))))

    def c(self, x) -> np.ndarray:
        F, _ = self.engine.f_series_scalars(x)
        return self._per_x(self._c_weight, x) * F

    def solve(self, x) -> CrossingTransform:
        """Phi(x) from one batched solve of A Phi = c(x): x of any shape with b's
        shape in front gives phi_vec of shape x.shape + (m,), so 0-d b and x give
        an m-vector and a scalar total().  Each x must lie below its b (not NaN)."""
        x = np.asarray(x, dtype=float)
        b = np.broadcast_to(self._per_x(self.b, x), x.shape)
        above = ~(x < b)
        if above.any():
            raise ValidationError(f"start x={x[above][0]} must lie strictly below b={b[above][0]}")
        phi = np.linalg.solve(self._per_x(self.system, x), self.c(x)[..., None])[..., 0]
        rho, checked = self.engine.model.rho, []
        for block in phi.reshape(np.size(self.b), -1, phi.shape[-1]):  # one block per b
            block = as_real_vector(block, what="crossing transform")
            if np.any(block < -1e-9):
                raise NumericalConsistencyError(
                    f"negative crossing weight {block.min():.3e} beyond tolerance"
                )
            sums = block.sum(axis=-1)
            if np.any(sums > rho + 1e-9):
                raise NumericalConsistencyError(
                    f"crossing weights sum to {sums.max():.12f} > rho = {rho}"
                )
            checked.append(np.clip(block, 0.0, 1.0))
        return CrossingTransform(phi_vec=np.reshape(checked, phi.shape), error_bound=self._bound)


def closed_form_exp(x, b: float, mu: float, rho: float, lam: float):
    """E_x(rho^tau) for Exp(mu) innovations with T = 0:

        rho * sum_k (rho;lam)_k (mu x lam)^k / k!  /  sum_k (rho;lam)_k (mu b)^k / k!

    x of any shape gives that shape, 0-d x gives a scalar.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x < b) & (x > -np.inf)):
        raise ValidationError("requires -inf < x < b")
    return _qexp_ratio(x, b, mu, rho, lam)


def _qexp_ratio(x, b, mu: float, rho: float, lam: float):
    """closed_form_exp without its x < b check: at x = b, the x -> b- limit.
    Q(mu x lam) and Q(mu b) come from one series call."""
    zx, zb = mu * np.asarray(x, dtype=float) * lam, mu * np.asarray(b, dtype=float)
    q = _qexp_series(np.concatenate([zx.ravel(), zb.ravel()]), rho, lam)
    return (rho * q[:zx.size].reshape(zx.shape) / q[zx.size:].reshape(zb.shape))[()]


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


def overshoot_expectation(dist: PhaseTypeDist, b, gain: GainFunction) -> np.ndarray:
    """E(g(b + R^i)) for R^i ~ PH(Q, e_i), in closed form where possible:
    b of any shape gives b.shape + (m,), the phase vector last."""
    m = dist.m
    b = np.asarray(b, dtype=float)
    if gain.variant in ("identity", "power"):
        n = 1 if gain.variant == "identity" else gain.n
        # Scalar pow per b^j: numpy's array pow may round differently.
        powers = np.vectorize(pow)(b[..., None], np.arange(n + 1))[..., None]
        total = np.repeat(powers[..., n, :], m, axis=-1)  # the k = 0 term of the binomial sum
        vec = np.ones(m)  # (-Q)^{-k} 1, so that E((R^i)^k) = k! vec_i
        for k in range(1, n + 1):
            vec = np.linalg.solve(-dist.Q, vec)
            total += math.comb(n, k) * powers[..., n - k, :] * (math.factorial(k) * vec)
        return total
    if gain.variant == "call":
        K, b = gain.strike, b[..., None]
        vec = np.linalg.solve(-dist.Q, np.ones(m))
        # E((R^i - a)^+) = e_i e^{Qa} (-Q)^{-1} 1 for a = K - b > 0 (else b - K + E R^i).
        sd = dist.spectral
        weights = np.exp(-sd.mu * np.maximum(K - b, 0.0))[..., None]
        val = np.where(K <= b, (b - K) + vec, np.sum(weights * (sd.projectors @ vec), axis=-2))
        real = [as_real_vector(v, what="call overshoot expectation") for v in val.reshape(-1, m)]
        return np.reshape(real, val.shape)
    return np.reshape([[ph_expectation(dist, lambda s: gain(bk + s), init=e) for e in np.eye(m)]
                       for bk in b.flat], b.shape + (m,))


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
