"""Phase-type distribution calculus.

A phase-type law PH(Q, alpha) is the absorption time of a finite-state
continuous-time Markov chain with sub-generator Q and initial row alpha.
Validation computes a single eigendecomposition of Q and caches it on the
distribution object; the cdf here, the density weights of the quadrature
and the resolvent residues of the transform engine all read it.  Sampling
simulates the chain itself, a whole batch of chains per jump round, and
records the phase each chain occupies at a given elapsed time in the
same pass, so no per-round trajectory is kept.  Holdings are contiguous,
so that phase is the one of the last holding that starts at or before the
given time: each round records it for the chains whose holding starts
there, and a later round overwrites it.  A round costs one gather per
phase the current phase can jump to (its out-degree in Q), not one per
phase of Q.  The first round, where every chain is alive, writes its
holding ends and phases straight into the results, and when no phase can
jump (every out-degree 0) it is the only round and draws no jump uniform.
The initial phase draws a uniform only when alpha leaves it to chance.

Only diagonalizable Q with pairwise distinct eigenvalues are admitted;
repeated or defective spectra are rejected at validation so that every
downstream partial-fraction argument deals with simple poles only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import NumericalConsistencyError, ValidationError

# Relative guard below which an evaluation point counts as sitting on a pole.
POLE_GUARD = 1e-12

# Relative gap below which two eigenvalues count as repeated.
EIGENVALUE_GAP = 1e-8

# Tolerance for asserting that a complex-assembled quantity is real.
IMAG_TOL = 1e-9


def imag_exceeds(vec, axis=None):
    """Whether the largest |imaginary part| of the complex array vec exceeds
    IMAG_TOL * max(1, largest |real part|), both taken over axis (every
    axis by default), so that each slice is judged on its own scale."""
    vec = np.asarray(vec, dtype=complex)
    scale = np.maximum(1.0, np.max(np.abs(vec.real), axis=axis, initial=0.0))
    return np.max(np.abs(vec.imag), axis=axis, initial=0.0) > IMAG_TOL * scale


def as_real_vector(vec, *, what: str = "vector") -> np.ndarray:
    """Strip an asserted-negligible imaginary part from a complex array."""
    vec = np.asarray(vec, dtype=complex)
    if imag_exceeds(vec):
        raise NumericalConsistencyError(
            f"{what} has non-negligible imaginary part {np.max(np.abs(vec.imag)):.3e}"
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

    @cached_property
    def _initial_table(self) -> tuple[int, np.ndarray]:
        """sample_chains' initial phases, built once: a uniform u starts a
        chain in phase first + #{j : thresholds[j] <= u}.  Of alpha's
        cumulative weights below the last, those of 0 count for every u and
        those of 1 for none, as the uniforms lie in [0, 1): first counts the
        former, and thresholds keeps the weights strictly between.  When
        alpha puts all its mass on one phase, thresholds is empty and no
        uniform is needed."""
        weights = np.cumsum(self.alpha)[:-1]
        return int(np.sum(weights <= 0.0)), weights[(weights > 0.0) & (weights < 1.0)]


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


def _numeric_array(value, name: str) -> np.ndarray:
    """value as a float array; a ragged nesting, or entries that are not
    real numbers (strings, bools, None), are an error, not converted."""
    try:
        arr = np.array(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be an array of real numbers, got {value!r}")
    return arr.astype(float)


def validate(Q, alpha) -> PhaseTypeDist:
    """Check sub-generator structure and build a PhaseTypeDist.

    Rejects entries that are not real numbers or not finite, ragged or
    non-square arrays, non-sub-generator matrices, unnormalized
    initial vectors and any Q whose spectrum contains a repeated eigenvalue
    or an eigenvalue with nonnegative real part.
    """
    Q, alpha = _numeric_array(Q, "Q"), _numeric_array(alpha, "alpha")
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
    real = not np.iscomplexobj(dist.spectral.mu)
    if real:
        # A real spectrum has real weights: the sum below then runs in float64.
        w = as_real_vector(w, what="cdf weights")
    # Survival sum_j w_j e^{-mu_j s}, one eigenvalue at a time, so that no
    # len(s) x m temporary is built, into one reused term buffer.  The sum
    # starts at +0.0 and so is never -0.0: a term of weight exactly 0.0,
    # which would add +-0.0, is skipped.
    mu = dist.spectral.mu
    surv = np.zeros(s.shape, dtype=w.dtype)
    term = np.empty(s.shape, dtype=mu.dtype)
    for mu_j, w_j in zip(mu, w):
        if w_j != 0.0:
            np.multiply(-mu_j, s, out=term)
            np.exp(term, out=term)
            term *= w_j
            surv += term
    cdf = np.subtract(1.0, surv, out=surv) if real else as_real_vector(1.0 - surv, what="cdf")
    cdf[s < 0] = 0.0
    return np.clip(cdf, 0.0, 1.0, out=cdf)


@cache  # sample_chains asks at every call, and np.iinfo takes microseconds
def label_dtype(m: int) -> type:
    """The smallest signed integer type that holds -1..m: the phase labels of
    m phases, or the step counts up to m."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if m <= np.iinfo(t).max)


def _jump(thresholds: np.ndarray, dest: np.ndarray, cur: np.ndarray,
          u: np.ndarray) -> np.ndarray:
    """The phase each chain in phase cur jumps to on uniform u, m if absorbed,
    from PhaseTypeDist._jump_table: one gather and comparison per rank."""
    # An intp factor makes row intp whatever the integer type of cur.
    row = cur * np.intp(thresholds.shape[0] + 1)
    for threshold in thresholds:
        row += threshold[cur] < u
    return dest[row]


def sample_chains(dist: PhaseTypeDist, rng: np.random.Generator, count: int, at):
    """Simulate `count` absorbing chains of PH(Q, alpha), vectorized over
    chains and stepped one jump round at a time.

    `at` holds one elapsed time per chain, and the result is (lifetimes,
    phases): phases[k], of type label_dtype(m), is the 0-based phase chain
    k occupies at time at[k], or the phase of its absorbing holding when
    at[k] is not below its lifetime (or is NaN).  Recording the phases
    draws nothing from rng.  When no phase can jump, `at` is never read
    and may be None.

    Each round draws a holding time and a jump uniform per live chain and
    costs one gather per phase the current one can reach (_jump_table).  A
    round first records the current phase of every chain whose holding
    starts at or before at[k], so the last such holding's phase is what
    remains; it gathers at[k] of the live chains for that comparison alone,
    so no compacted copy of `at` lives beside it.  Round one, where every
    chain is alive, writes the results without a scatter.  No variate is
    drawn that nothing reads: the initial phase takes a uniform per chain
    only when a cumulative weight of alpha lies strictly between 0 and 1
    (_initial_table), and when no phase can jump, round one draws no jump
    uniform and returns, its chains all absorbed.
    """
    m = dist.m
    scale, thresholds, dest = dist._jump_table

    first, weights = dist._initial_table
    cur = np.full(count, first, dtype=label_dtype(m))
    if weights.size:
        u = rng.random(count)
        for weight in weights:
            cur += weight <= u
    # Round one.  A chain that jumps overwrites its entries in a later round.
    # The same draws as rng.exponential(scale[cur]), without broadcasting,
    # scaled in place: by one scalar when alpha fixes the initial phase.
    lifetimes = rng.standard_exponential(count)
    lifetimes *= scale[cur] if weights.size else scale[first]
    phases = cur
    if not thresholds.shape[0]:
        return lifetimes, phases
    nxt = _jump(thresholds, dest, cur, rng.random(count))
    # Alive chains only: their indices, phases and holding starts.  Masks
    # become index arrays before any gather: numpy indexes by a mixed
    # boolean mask several times slower than by an index array.
    idx = np.flatnonzero(nxt != m)
    cur, elapsed, at = nxt[idx], lifetimes[idx], np.asarray(at, dtype=float)
    while idx.size:
        # NaN is never below a holding start: it ends on the absorbing one.
        hit = np.flatnonzero(~(at[idx] < elapsed))
        phases[idx[hit]] = cur[hit]
        end = rng.standard_exponential(idx.size)
        end *= scale[cur]
        end += elapsed
        lifetimes[idx] = end
        nxt = _jump(thresholds, dest, cur, rng.random(idx.size))
        keep = np.flatnonzero(nxt != m)
        idx, cur, elapsed = idx[keep], nxt[keep], end[keep]
    return lifetimes, phases
