"""Joint law of the threshold time and overshoot.

The crossing transform Phi_i(x) = E_x(rho^tau 1_{G_i}) is obtained from
the residue linear system A Phi(x) = c(x): both eta_{delta,i} and
h_delta(x) are rational in delta with simple poles at the eigenvalues of
-Q once the shared factor e^{delta b} is removed, and matching residues
pole by pole gives an m x m system independent of x.  ResidueSystem(engine,
b) builds A once per threshold or per threshold array, and solve(x) returns
Phi(x) for each start; stopping.psi_of, which reads b from the system,
combines it with the phase vector of overshoot_expectation(dist, b, g),
which the system keeps for the last gain asked for, into the joint
functional E_x(rho^tau g(X_tau)) = sum_i Phi_i(x) E(g(b + R^i)).

crossing_transform is the passage-level entry for one threshold.  It
tries the residue system first.  Where that system is singular (cond(A)
past _COND_LIMIT, as at lambda near 1) and T is zero or a point mass, it
hands over to nystrom_crossing, which solves the first-step equation for
Phi directly.  That equation is of the second kind, with kernel mass at
most rho, so it stays well conditioned for every lambda.  Both routes
return through one weight check, _crossing_result.

The m = 1 exponential case with T = 0 additionally has the q-series
closed form (closed_form_exp), which the residue route must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArphaseError,
    ConvergenceError,
    NumericalConsistencyError,
    SingularSystemError,
    ValidationError,
)
from .gains import GainFunction
from .phasetype import PhaseTypeDist, as_real_vector, imag_exceeds
from .qseries import q_exp
from .quadrature import _leggauss, ph_expectation
from .transforms import SERIES_TOL, TransformEngine

_COND_LIMIT = 1e12
# Chebyshev nodes of the Nystrom route: the first solve, and the most tried.
_NYSTROM_START, _NYSTROM_MAX = 16, 128

# The largest k whose k! is a finite float; the power gain's moments need k! for k <= n.
_MAX_POWER = 170


def _check_domain(b) -> None:
    """The threshold check of every route: raise ValidationError for the
    first b that is not finite, then for the first b below 0.  The
    construction needs b >= 0: for b < 0, a start x in [b/lambda, b) has
    lambda x >= b and crosses at the next step whatever S is, so the
    overshoot given the crossing phase i is not PH(Q, e_i)."""
    b = np.ravel(b)
    if not np.isfinite(b).all():
        raise ValidationError(f"threshold b={b[~np.isfinite(b)][0]} must be finite")
    if (b < 0).any():
        raise ValidationError(
            f"threshold b={b[b < 0][0]} is outside the domain b >= 0 of the residue "
            "route and the q-series"
        )


@dataclass(frozen=True)
class CrossingTransform:
    """Phi_i(x) per phase (last axis), with a coarse numerical error bound."""

    phi_vec: np.ndarray
    error_bound: float

    def total(self):
        return self.phi_vec.sum(axis=-1)[()]


class ResidueSystem:
    """The x-independent matrix A of residues a_{ij} and the residue
    weights needed to evaluate c(x); immutable once built, but for the
    overshoot vector of the last gain asked for.  b of any shape
    puts b's shape in front of A, the weights and the error bound; each b is
    checked on its own, as in its scalar build, and `cond` is the largest;
    a b that is not finite, or is below 0 (outside the construction's
    domain), raises ValidationError.
    A residue is inf or NaN when e^{b a_n} overflows (b too large) or a
    series divides by e^{phi} = 0 (E(e^{-uT}) underflows: T too large);
    either raises NumericalConsistencyError naming that b."""

    def __init__(self, engine: TransformEngine, b):
        self.engine = engine
        self.b = np.asarray(b, dtype=float)[()]
        _check_domain(self.b)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.a = engine.eta_residues(self.b)
        finite = np.isfinite(self.a).all(axis=(-2, -1))
        if not finite.all():
            raise NumericalConsistencyError(
                f"residues at b={np.ravel(self.b)[~np.ravel(finite)][0]} are not finite; "
                "b is too large for this model, or T so large that E(e^{-uT}) underflows to 0"
            )
        # System rows are indexed by poles j: sum_i a_{ij} Phi_i = c_j.  The residues
        # and pole weights of a real spectrum are real: A and c(x) are float64 there.
        self.system = np.swapaxes(self.a, -1, -2)
        if np.isrealobj(engine.mu):
            self.system = self.system.real
        cond = np.asarray(np.linalg.cond(self.system))
        bad = cond[~(cond <= _COND_LIMIT)]  # NaN as well
        if bad.size:
            raise SingularSystemError(
                f"residue system condition number {bad[0]:.3e} exceeds {_COND_LIMIT:.0e}; "
                "perturb the model parameters"
            )
        self.cond, self._bound = float(cond.max()), (cond * SERIES_TOL)[()]
        weight = engine.model.rho * engine.pole_weight(self.b)
        self._c_weight = weight.real if np.isrealobj(self.system) else weight
        self._overshoot = (None, None)

    def overshoot(self, gain: GainFunction) -> np.ndarray:
        """overshoot_expectation(dist, b, gain) at this system's b, computed
        once and kept for the next call with the same gain object."""
        if self._overshoot[0] is not gain:
            self._overshoot = (gain, overshoot_expectation(self.engine.model.inn.s_part, self.b, gain))
        return self._overshoot[1]

    def _per_x(self, arr, x) -> np.ndarray:
        """arr, with b's axes in front, broadcastable against x."""
        return np.expand_dims(arr, tuple(range(np.ndim(self.b), np.ndim(x))))

    def c(self, x) -> np.ndarray:
        return self._per_x(self._c_weight, x) * self.engine.f_series_scalars(x)[0]

    def solve(self, x) -> CrossingTransform:
        """Phi(x) from one batched solve of A Phi = c(x): x of any shape with b's
        shape in front gives phi_vec of shape x.shape + (m,), so 0-d b and x give
        an m-vector and a scalar total().  Each x must be finite and lie below
        its b (not NaN)."""
        x = np.asarray(x, dtype=float)
        _check_starts(x, self._per_x(self.b, x))
        return self._solve(x)

    def _solve(self, x) -> CrossingTransform:
        """solve without its checks on x: c is analytic, so x = b gives Phi(b-)."""
        phi = np.linalg.solve(self._per_x(self.system, x), self.c(x)[..., None])[..., 0]
        return _crossing_result(phi, np.size(self.b), self.engine.model.rho, self._bound)


def _crossing_result(phi: np.ndarray, blocks: int, rho: float, error_bound) -> CrossingTransform:
    """The CrossingTransform of phi, `blocks` thresholds' weights one block
    after another, clipped to [0, 1].  Every route's contract: raise
    NumericalConsistencyError for the first block that as_real_vector rejects,
    that holds a weight below -1e-9 or whose weights sum past rho + 1e-9."""
    grouped = phi.reshape(blocks, -1, phi.shape[-1])
    bad = (imag_exceeds(grouped, axis=(1, 2)) | (grouped.real < -1e-9).any(axis=(1, 2))
           | (grouped.real.sum(axis=-1) > rho + 1e-9).any(axis=1))
    if bad.any():
        block = as_real_vector(grouped[np.argmax(bad)], what="crossing transform")
        if np.any(block < -1e-9):
            raise NumericalConsistencyError(
                f"negative crossing weight {block.min():.3e} beyond tolerance"
            )
        raise NumericalConsistencyError(
            f"crossing weights sum to {block.sum(axis=-1).max():.12f} > rho = {rho}"
        )
    return CrossingTransform(phi_vec=np.clip(phi.real, 0.0, 1.0), error_bound=error_bound)


def _check_starts(x: np.ndarray, b) -> None:
    """Raise ValidationError for the first start x that is not finite or
    not strictly below its threshold b (NaN included)."""
    b = np.broadcast_to(b, x.shape)
    above = ~(x < b)
    if above.any():
        raise ValidationError(f"start x={x[above][0]} must lie strictly below b={b[above][0]}")
    if not np.isfinite(x).all():  # -inf: every other non-finite x is not below b
        raise ValidationError(f"start x={x[~np.isfinite(x)][0]} must be finite")


def crossing_transform(engine: TransformEngine, b: float, x) -> CrossingTransform:
    """Phi(x) at one threshold b: ResidueSystem(engine, b).solve(x), or, where
    that system is singular and T is zero or a point mass, nystrom_crossing.
    For any other T the SingularSystemError stands."""
    try:
        system = ResidueSystem(engine, b)
    except SingularSystemError:
        if not _nystrom_serves(engine):
            raise
        return nystrom_crossing(engine, b, x)
    return system.solve(x)


def _nystrom_serves(engine: TransformEngine) -> bool:
    """Whether nystrom_crossing serves the model's T: zero or a point mass."""
    return engine.model.inn.t_part.variant in ("zero", "point_mass")


def nystrom_crossing(engine: TransformEngine, b: float, x) -> CrossingTransform:
    """Phi(x) from the first-step equation, for T zero or a point mass d:

        Phi(y) = rho alpha e^{Qu} + rho int_0^u alpha e^{Qs} q Phi(lam y - d + s) ds,
        u = b - lam y + d,

    a second-kind equation on [min(x, -d/(1-lam)), b], which the next state
    lam y - d + s never leaves.  Phi is sought at n Chebyshev points of the
    second kind, read between them by barycentric interpolation, and the
    integral over [0, u] takes n Gauss-Legendre nodes; alpha e^{Qs} and the
    density alpha e^{Qs} q are sums of e^{-mu_j s} over the engine's spectral
    data.  One solve of (I - rho K) Phi = g serves all m phases.  n starts at
    _NYSTROM_START and doubles until two solves differ at x by at most
    cond(I - rho K) SERIES_TOL; error_bound is the larger of that change and
    cond SERIES_TOL.  ConvergenceError past _NYSTROM_MAX nodes.  x of any
    shape gives phi_vec of shape x.shape + (m,)."""
    t = engine.model.inn.t_part
    if not _nystrom_serves(engine):
        raise ValidationError(f"the Nystrom route needs T zero or a point mass, not {t.variant!r}")
    _check_domain(b)
    x = np.asarray(x, dtype=float)
    _check_starts(x, b)
    lo = min(float(x.min(initial=b)), -t.d / (1.0 - engine.model.lam))
    last, n = None, _NYSTROM_START
    while n <= _NYSTROM_MAX:
        nodes, weights, phi, cond = _nystrom_solve(engine, b, lo, n)
        got = _barycentric(nodes, weights, x) @ phi
        if last is not None:
            change = float(np.abs(got - last).max(initial=0.0))
            if change <= cond * SERIES_TOL:
                return _crossing_result(got, 1, engine.model.rho, max(change, cond * SERIES_TOL))
        last, n = got, 2 * n
    raise ConvergenceError(f"Nystrom solve at b={b} did not settle within {_NYSTROM_MAX} nodes")


def _nystrom_solve(engine: TransformEngine, b: float, lo: float, n: int):
    """The n Chebyshev points on [lo, b], their barycentric weights, Phi at
    them (n x m) and cond(I - rho K)."""
    lam, rho, d = engine.model.lam, engine.model.rho, engine.model.inn.t_part.d
    k = np.arange(n)
    nodes = lo + (b - lo) * (1.0 - np.cos(np.pi * k / (n - 1))) / 2.0
    nodes[[0, -1]] = lo, b
    weights = (-1.0) ** k
    weights[[0, -1]] /= 2.0
    u = b - lam * nodes + d
    t, w = _leggauss(n)
    s = np.multiply.outer(u, t + 1.0) / 2.0                  # (point, node)
    density = (np.exp(-s[..., None] * engine.mu) @ engine.r).real
    kernel = rho * np.einsum("kg,kgi->ki", density * np.multiply.outer(u, w) / 2.0,
                             _barycentric(nodes, weights, lam * nodes[:, None] - d + s))
    system = np.eye(n) - kernel
    g = rho * (np.exp(-np.multiply.outer(u, engine.mu)) @ engine.alpha_rows).real
    return nodes, weights, np.linalg.solve(system, g), float(np.linalg.cond(system))


def _barycentric(nodes: np.ndarray, weights: np.ndarray, z) -> np.ndarray:
    """The barycentric interpolation matrix: row z.shape + (n,) that maps the
    values at the nodes to the interpolant at z; exact at a node."""
    diff = np.asarray(z, dtype=float)[..., None] - nodes
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights / diff
        out = terms / terms.sum(axis=-1, keepdims=True)
    at = hit.any(axis=-1)
    out[at] = hit[at]
    return out


def closed_form_exp(x, b: float, mu: float, rho: float, lam: float):
    """E_x(rho^tau) for Exp(mu) innovations with T = 0:

        rho * sum_k (rho;lam)_k (mu x lam)^k / k!  /  sum_k (rho;lam)_k (mu b)^k / k!

    x of any shape gives that shape, 0-d x gives a scalar; b and x are checked as in ResidueSystem.
    """
    _check_domain(b)
    x = np.asarray(x, dtype=float)
    _check_starts(x, b)
    return _qexp_ratio(x, b, mu, rho, lam)


def _qexp_ratio(x, b, mu: float, rho: float, lam: float):
    """closed_form_exp without its x < b check: at x = b, the x -> b- limit.
    Q(mu x lam) and Q(mu b) come from one series call."""
    zx, zb = mu * np.asarray(x, dtype=float) * lam, mu * np.asarray(b, dtype=float)
    q = q_exp(np.concatenate([zx.ravel(), zb.ravel()]), rho, lam)
    return (rho * q[:zx.size].reshape(zx.shape) / q[zx.size:].reshape(zb.shape))[()]


def overshoot_expectation(dist: PhaseTypeDist, b, gain: GainFunction) -> np.ndarray:
    """E(g(b + R^i)) for R^i ~ PH(Q, e_i), in closed form where possible:
    b of any shape gives b.shape + (m,), the phase vector last."""
    m = dist.m
    b = np.asarray(b, dtype=float)
    if gain.variant in ("identity", "power"):
        n = 1 if gain.variant == "identity" else gain.n
        if n > _MAX_POWER:
            raise ArphaseError(f"power gain n={n} is too large: its overshoot moments need k! "
                               f"for k up to n, and k! overflows the float range past "
                               f"k = {_MAX_POWER}")
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
        if (bad := imag_exceeds(val, axis=-1)).any():
            as_real_vector(val[bad][0], what="call overshoot expectation")  # raises for the first bad b
        return val.real.copy()
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
