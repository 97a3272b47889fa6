"""Phase-type distribution calculus.

A phase-type law PH(Q, alpha) is the absorption time of a finite-state
continuous-time Markov chain with sub-generator Q and initial row alpha.
Validation computes a single eigendecomposition of Q and caches it on the
distribution object; the cdf here, the density weights of the quadrature
and the resolvent residues of the transform engine all read it.  Sampling
simulates the chain itself, a whole batch of chains per jump round, and
records the phase each chain occupies at a given elapsed time in the
same pass, so no per-round trajectory is kept.  A round costs one gather
per phase the current phase can jump to (its out-degree in Q), not one
per phase of Q, and the first round, where every chain is alive, writes
its holding ends and phases straight into the results.

Only diagonalizable Q with pairwise distinct eigenvalues are admitted;
repeated or defective spectra are rejected at validation so that every
downstream partial-fraction argument deals with simple poles only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _jump_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """sample_chains' mean holding times, rank thresholds and
        destinations, built once.

        Phase p can jump to the phases its kernel row gives positive mass;
        dest[p, r] (flattened, row length w + 1, w the largest out-degree)
        is the r-th of them in column order, and m (absorption) past the
        last.  thresholds[r][p] is the kernel row's cumulative sum at
        dest[p, r], and +inf past the last.  A uniform u sends phase p to
        dest[p, r] with r = #{j : thresholds[j][p] < u}.  For u > 0 that is
        the column where the cumulative sum over all m columns first reaches
        u, because the zero columns skipped here add exactly 0.0 to it; u = 0
        goes to the first destination, or to absorption."""
        m = self.m
        rates = -np.diag(self.Q)
        kernel = self.Q / rates[:, None]
        np.fill_diagonal(kernel, 0.0)
        cum = np.cumsum(kernel, axis=1)
        reach = kernel > 0.0
        w = int(reach.sum(axis=1).max())
        dest = np.full((m, w + 1), m, dtype=np.int64)
        thresholds = np.full((w, m), np.inf)
        for p in range(m):
            cols = np.flatnonzero(reach[p])
            dest[p, :cols.size] = cols
            thresholds[:cols.size, p] = cum[p, cols]
        return 1.0 / rates, thresholds, dest.ravel()


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

    Rejects non-finite entries, non-sub-generator matrices, unnormalized
    initial vectors and any Q whose spectrum contains a repeated eigenvalue
    or an eigenvalue with nonnegative real part.
    """
    Q = np.array(Q, dtype=float)
    alpha = np.array(alpha, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError(f"Q must be square, got shape {Q.shape}")
    m = Q.shape[0]
    if alpha.shape != (m,):
        raise ValidationError(f"alpha must have length {m}, got shape {alpha.shape}")
    for name, arr in (("Q", Q), ("alpha", alpha)):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} must have finite entries, got {arr.tolist()}")

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
    if not np.iscomplexobj(dist.spectral.mu):
        # A real spectrum has real weights: the sum below then runs in float64.
        w = as_real_vector(w, what="cdf weights")
    # Survival sum_j w_j e^{-mu_j s}, one eigenvalue at a time, so that no
    # len(s) x m temporary is built.
    surv = np.zeros(s.shape, dtype=w.dtype)
    for mu_j, w_j in zip(dist.spectral.mu, w):
        surv += w_j * np.exp(-mu_j * s)
    vals = np.where(s < 0, 0.0, as_real_vector(1.0 - surv, what="cdf"))
    return np.clip(vals, 0.0, 1.0)


def _jump(thresholds: np.ndarray, dest: np.ndarray, cur: np.ndarray,
          u: np.ndarray) -> np.ndarray:
    """The phase each chain in phase cur jumps to on uniform u, m if absorbed,
    from PhaseTypeDist._jump_table: one gather and comparison per rank."""
    row = cur * (thresholds.shape[0] + 1)
    for threshold in thresholds:
        row += threshold[cur] < u
    return dest[row]


def sample_chains(dist: PhaseTypeDist, rng: np.random.Generator, count: int, at):
    """Simulate `count` absorbing chains of PH(Q, alpha), vectorized over
    chains and stepped one jump round at a time.

    `at` holds one elapsed time per chain, and the result is (lifetimes,
    phases): phases[k] is the 0-based phase chain k occupies at time at[k],
    or the phase of its absorbing holding when at[k] is not below its
    lifetime.  Recording the phases draws nothing from rng.

    Each round draws a holding time and a uniform per live chain and costs
    one gather per phase the current one can reach (_jump_table); round one,
    where every chain is alive, writes the results without a scatter.
    """
    m = dist.m
    scale, thresholds, dest = dist._jump_table

    first = rng.random(count)
    cur = np.zeros(count, dtype=np.int64)
    weights = np.cumsum(dist.alpha)[:-1]
    # The uniforms lie below 1, so a cumulative weight of 1 never counts.
    for weight in weights[weights < 1.0]:
        cur += weight <= first
    at = np.asarray(at, dtype=float)
    # Round one.  A chain that jumps overwrites its entries in a later round.
    # The same draws as rng.exponential(scale[cur]), without broadcasting.
    lifetimes = rng.standard_exponential(count) * scale[cur]
    phases = cur
    nxt = _jump(thresholds, dest, cur, rng.random(count))
    # Alive chains only: their indices, phases and elapsed times, and which
    # of them still wait for their phase at at[k].
    idx = np.flatnonzero(nxt != m)
    cur, elapsed, at = nxt[idx], lifetimes[idx], at[idx]
    pending = ~(at < elapsed)
    while idx.size:
        end = elapsed + rng.standard_exponential(idx.size) * scale[cur]
        nxt = _jump(thresholds, dest, cur, rng.random(idx.size))
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
