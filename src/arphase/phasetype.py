"""Phase-type distribution calculus.

A phase-type law PH(Q, alpha) is the absorption time of a finite-state
continuous-time Markov chain with sub-generator Q and initial row alpha.
Validation computes a single eigendecomposition of Q and caches it on the
distribution object; the cdf here, the density weights of the quadrature
and the resolvent residues of the transform engine all read it.  Sampling
simulates the chain itself, a whole batch of chains per jump round, and
records the phase each chain occupies at a given elapsed time in the
same pass, so no per-round trajectory is kept.

Only diagonalizable Q with pairwise distinct eigenvalues are admitted;
repeated or defective spectra are rejected at validation so that every
downstream partial-fraction argument deals with simple poles only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ValidationError

# Relative guard below which an evaluation point counts as sitting on a pole.
POLE_GUARD = 1e-12

# Relative gap below which two eigenvalues count as repeated.
EIGENVALUE_GAP = 1e-8

# Tolerance for asserting that a complex-assembled quantity is real.
IMAG_TOL = 1e-9


def as_real_vector(vec, *, what: str = "vector") -> np.ndarray:
    """Strip an asserted-negligible imaginary part from a complex array."""
    vec = np.asarray(vec, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(vec.real), initial=0.0)))
    worst = float(np.max(np.abs(vec.imag), initial=0.0))
    if worst > IMAG_TOL * scale:
        raise NumericalConsistencyError(
            f"{what} has non-negligible imaginary part {worst:.3e}"
        )
    return vec.real.copy()


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of -Q (positive real parts) and the spectral projectors.

    The projectors satisfy P_j P_k = 0 for j != k, P_j^2 = P_j,
    sum_j P_j = I and Q = sum_j (-mu_j) P_j, so any scalar function f
    lifts to f(cQ) = sum_j f(-c mu_j) P_j for scalar c.
    """

    mu: np.ndarray          # shape (m,), complex
    projectors: np.ndarray  # shape (m, m, m), complex

    @property
    def m(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class PhaseTypeDist:
    """A validated phase-type distribution PH(Q, alpha) with cached spectrum."""

    Q: np.ndarray
    alpha: np.ndarray
    q: np.ndarray
    spectral: SpectralData

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


def _spectral_decompose(Q: np.ndarray) -> SpectralData:
    eigvals, V = np.linalg.eig(Q)
    mu = -eigvals
    # Deterministic ordering: by real part, then imaginary part.
    order = np.lexsort((mu.imag, mu.real))
    mu = mu[order]
    V = V[:, order]
    try:
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"defective eigenvector matrix for Q: {exc}") from exc
    m = Q.shape[0]
    projectors = np.empty((m, m, m), dtype=complex)
    for j in range(m):
        projectors[j] = np.outer(V[:, j], W[j, :])
    return SpectralData(mu=mu, projectors=projectors)


def validate(Q, alpha) -> PhaseTypeDist:
    """Check sub-generator structure and build a PhaseTypeDist.

    Rejects non-sub-generator matrices, unnormalized initial vectors and
    any Q whose spectrum contains a repeated eigenvalue or an eigenvalue
    with nonnegative real part.
    """
    Q = np.array(Q, dtype=float)
    alpha = np.array(alpha, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError(f"Q must be square, got shape {Q.shape}")
    m = Q.shape[0]
    if alpha.shape != (m,):
        raise ValidationError(f"alpha must have length {m}, got shape {alpha.shape}")

    off = Q - np.diag(np.diag(Q))
    if np.any(off < 0):
        raise ValidationError("off-diagonal entries of Q must be nonnegative")
    row_sums = Q.sum(axis=1)
    if np.any(row_sums > 1e-12):
        raise ValidationError("every row sum of Q must be <= 0")
    if np.all(row_sums > -1e-12):
        raise ValidationError("at least one row sum of Q must be < 0 (no absorption)")
    if np.any(alpha < 0):
        raise ValidationError("alpha must have nonnegative entries")
    if abs(alpha.sum() - 1.0) > 1e-12:
        raise ValidationError(f"alpha must sum to 1, got {alpha.sum()!r}")

    sd = _spectral_decompose(Q)
    mu = sd.mu
    if np.any(mu.real <= 0):
        bad = mu[np.argmin(mu.real)]
        raise ValidationError(
            f"eigenvalue {-bad} of Q has nonnegative real part; not a valid sub-generator"
        )
    scale = float(np.max(np.abs(mu)))
    for j in range(m):
        for k in range(j + 1, m):
            if abs(mu[j] - mu[k]) < EIGENVALUE_GAP * scale:
                raise ValidationError(
                    f"repeated eigenvalue {-mu[j]} of Q (distance "
                    f"{abs(mu[j] - mu[k]):.3e}); repeated/defective spectra are unsupported"
                )
    # Conditioning check: the projectors must reconstruct Q.
    recon = np.tensordot(-mu, sd.projectors, axes=(0, 0))
    resid = np.max(np.abs(recon - Q)) / max(1.0, np.max(np.abs(Q)))
    if resid > 1e-8:
        raise ValidationError(
            f"spectral reconstruction residual {resid:.3e} exceeds 1e-8; "
            "Q is too ill-conditioned"
        )

    q = -Q @ np.ones(m)
    dist = PhaseTypeDist(Q=Q, alpha=alpha, q=q, spectral=sd)
    for arr in (dist.Q, dist.alpha, dist.q, sd.mu, sd.projectors):
        arr.setflags(write=False)
    return dist


def _alpha_weights(dist: PhaseTypeDist, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Scalars left @ P_j @ right for every projector."""
    return np.array([left @ P @ right for P in dist.spectral.projectors])


def cdf_vector(dist: PhaseTypeDist, s, init=None) -> np.ndarray:
    """Vectorized CDF over an array of points, optionally for initial row `init`."""
    s = np.asarray(s, dtype=float)
    left = dist.alpha if init is None else np.asarray(init, dtype=float)
    w = _alpha_weights(dist, left, np.ones(dist.m))
    # Survival sum_j w_j e^{-mu_j s}, one eigenvalue at a time, so that no
    # len(s) x m complex temporary is built.
    surv = np.zeros(s.shape, dtype=complex)
    for mu_j, w_j in zip(dist.spectral.mu, w):
        surv += w_j * np.exp(-mu_j * s)
    vals = np.where(s < 0, 0.0, as_real_vector(1.0 - surv, what="cdf"))
    return np.clip(vals, 0.0, 1.0)


def sample_chains(dist: PhaseTypeDist, rng: np.random.Generator, count: int, at):
    """Simulate `count` absorbing chains of PH(Q, alpha), vectorized over
    chains and stepped one jump round at a time.

    `at` holds one elapsed time per chain, and the result is (lifetimes,
    phases): phases[k] is the 0-based phase chain k occupies at time at[k],
    or the phase of its absorbing holding when at[k] is not below its
    lifetime.  Recording the phases draws nothing from rng.
    """
    m = dist.m
    rates = -np.diag(dist.Q)
    scale = 1.0 / rates
    # cum_jump[k][p]: probability that a jump from phase p goes to one of
    # the phases 0..k; the chain is absorbed when its uniform exceeds them
    # all.  Phases are chosen by counting the cumulative weights below a
    # uniform, one gather and comparison per weight.
    kernel = dist.Q / rates[:, None]
    np.fill_diagonal(kernel, 0.0)
    cum_jump = np.ascontiguousarray(np.cumsum(kernel, axis=1).T)

    first = rng.random(count)
    cur = np.zeros(count, dtype=np.int64)
    for weight in np.cumsum(dist.alpha)[:-1]:
        cur += weight <= first
    lifetimes = np.empty(count)
    # Alive chains only: their indices, phases and elapsed times, and which
    # of them still wait for their phase at at[k].
    idx = np.arange(count)
    elapsed = np.zeros(count)
    phases = np.empty(count, dtype=np.int64)
    pending = np.ones(count, dtype=bool)
    at = np.asarray(at, dtype=float)
    while idx.size:
        # The same draws as rng.exponential(scale[cur]), without broadcasting.
        end = elapsed + rng.standard_exponential(idx.size) * scale[cur]
        u = rng.random(idx.size)
        nxt = np.zeros(idx.size, dtype=np.int64)
        for cum in cum_jump:
            nxt += cum[cur] < u
        absorbed = nxt == m
        # Masks become index arrays before any gather: numpy indexes by a
        # mixed boolean mask several times slower than by an index array.
        hit = np.flatnonzero(pending & ((at < end) | absorbed))
        phases[idx[hit]] = cur[hit]
        pending[hit] = False
        done = np.flatnonzero(absorbed)
        lifetimes[idx[done]] = end[done]
        keep = np.flatnonzero(~absorbed)
        idx, cur, elapsed = idx[keep], nxt[keep], end[keep]
        at, pending = at[keep], pending[keep]
    return lifetimes, phases

