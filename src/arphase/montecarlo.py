"""Simulation oracle for the AR(1) threshold problem.

Paths iterate X_n = lambda X_{n-1} + S_n - T_n with each S_n drawn as a
full trajectory of the absorbing chain.  At the first crossing of b the
elapsed chain time u* = b - lambda X_{n-1} + T_n locates the occupying
phase, which realizes the phase-at-crossing event; the overshoot is
S_n - u* = X_n - b.  Since u* depends only on X_{n-1} and T_n, it is
computed for every live path before S_n is drawn, and the sampler
records the phase at u* in the same pass.  When no phase can jump, the
phase held at u* is the only one, and u* is not formed.  No variate is
drawn that nothing reads: a zero T is not drawn, and the sampler draws
neither an initial-phase uniform that alpha makes certain nor a jump
uniform where no phase can jump (sample_chains).

Paths are censored at max_steps chosen so rho^max_steps < 1e-12; the
censored contribution to any rho^tau-weighted estimator is below that
bound.  Estimation runs over k = ceil(n_paths / BLOCK_SIZE) blocks, with
BLOCK_SIZE = 65,536, of equal size: block i holds paths floor(i n / k)
to floor((i + 1) n / k), so sizes differ by at most one path and two
workers get equal shares of an even block count.  Block i uses the RNG
substream spawned as (seed, i) and writes its own slice of the output
arrays, so results depend only on (parameters, seed, n_paths) and not
on the worker count.  Each AR step issues a fixed number of numpy calls
per block (it scatters tau, X_tau and the 0-based phase of the paths
that cross), plus a few per jump round of the chains (one gather per
phase the current one can reach, none while the chains share one phase);
the 1-based phase labels and the censored paths' label -1 are written
once per block after the last step.  Blocks are large: with small ones,
Python dispatch and hand-offs of the interpreter lock dominate the run,
and a second worker thread buys nothing.  With w workers the calling
thread samples blocks beside min(w, k) - 1 helper threads, all taking
the next block from one counter, so it does not idle while they work.

Memory is counted per path.  The record (PathRecord) stores 11 bytes:
tau (label_dtype(max_steps): int16 up to 32,767 steps), x_tau (float64)
and the phase label (label_dtype(m): int8 up to m = 127).  The overshoot
x_tau - b and the censored flag phase < 0 are derived when indexed, not
stored.  The estimators add one float64 buffer and a one-byte mask of
phase == i: each phase gathers rho^tau anew into the buffer from a table
of rho^k, k <= max tau, one BLOCK_SIZE slice at a time, so tau is
widened to intp indices a slice at a time; the table holds the same
values as one power per path, and the estimate overwrites the buffer.
No index list of the crossing paths is formed.  A KS test gathers its
phase's x_tau, subtracts b and sorts in place, then forms the CDF and
the grid one BLOCK_SIZE slice at a time.  Besides the record, each
sampling thread holds a few arrays of one block while it samples; with
two workers and a million paths, the sampling and the estimators each
peak near 19-22 traced bytes per path.  Under glibc each thread frees
its block's arrays into its own malloc arena, which keeps the pages:
sampling on the calling thread, whose arena the estimators reuse, leaves
one helper arena fewer holding them.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gains import GainFunction
from .phasetype import cdf_vector, label_dtype, sample_chains
from .transforms import AR1Model

BLOCK_SIZE = 65536

CENSOR_TOL = 1e-12


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n: int
    censored_fraction: float


def default_max_steps(rho: float) -> int:
    """Smallest n with rho^n < 1e-12."""
    return int(math.ceil(math.log(CENSOR_TOL) / math.log(rho)))


def _simulate_block(
    model: AR1Model, x0: float, b: float, rng: np.random.Generator,
    max_steps: int, out: tuple,
) -> None:
    """Vectorized simulation of one block of paths into the per-path views
    `out` = (tau, x_tau, phase); censored paths keep tau 0, x_tau 0.0 and
    phase -1."""
    tau, x_tau, phase = out
    dist = model.inn.s_part
    t_part = model.inn.t_part
    lam = model.lam
    # A zero T draws nothing from rng and x - 0.0 == x, so it is left out;
    # u* is read only by chains that can jump.
    draw_t = t_part.variant != "zero"
    jumps = dist._jump_table[1].size > 0

    # Paths still below b: their indices into the block and current values.
    act = np.arange(tau.size)
    X = np.full(tau.size, float(x0))
    for step in range(1, max_steps + 1):
        if act.size == 0:
            break
        if draw_t:
            T = t_part.sample(rng, size=act.size)
        drift = np.multiply(X, lam, out=X)  # X is not read again
        u_star = None
        if jumps:
            # Chain time at which a crossing innovation reaches b.
            u_star = b - drift
            if draw_t:
                u_star += T
            np.maximum(u_star, 0.0, out=u_star)
        Xn, held = sample_chains(dist, rng, act.size, at=u_star)
        # X_n = drift + S - T, in place on the lifetimes S.
        Xn += drift
        if draw_t:
            Xn -= T
        crossing = Xn >= b
        # Index arrays, not masks: see sample_chains.
        crossed = np.flatnonzero(crossing)
        gidx = act[crossed]
        phase[gidx] = held[crossed]
        tau[gidx] = step
        x_tau[gidx] = Xn[crossed]
        # The paths that go on, in order.  Where few paths cross, the mask
        # has long runs of True, which numpy gathers faster than an index
        # array; a mixed mask is several times slower.
        keep = ~crossing if 16 * crossed.size < act.size else np.flatnonzero(~crossing)
        act, X = act[keep], Xn[keep]
    # sample_chains phases are 0-based; records use 1-based labels.
    phase += 1
    phase[act] = -1


@dataclass(frozen=True, eq=False)
class PathRecord:
    """The simulate_paths record.  It stores three columns: tau (the
    smallest signed integer type that holds max_steps), x_tau (float64)
    and the 1-based phase label (label_dtype(m)); censored paths hold
    tau 0, x_tau 0.0 and phase -1.  It indexes, iterates and unpacks as
    the five arrays (tau, x_tau, overshoot, phase, censored), where the
    overshoot x_tau - b (0.0 where censored) and the censored flag
    phase < 0 are formed anew at each access."""

    tau: np.ndarray
    x_tau: np.ndarray
    phase: np.ndarray
    b: float

    FIELDS = ("tau", "x_tau", "overshoot", "phase", "censored")

    @property
    def censored(self) -> np.ndarray:
        return self.phase < 0

    @property
    def overshoot(self) -> np.ndarray:
        overshoot = np.subtract(self.x_tau, self.b)
        overshoot[self.censored] = 0.0
        return overshoot

    def __len__(self) -> int:
        return len(self.FIELDS)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(getattr(self, name) for name in self.FIELDS[k])
        return getattr(self, self.FIELDS[k])

    def __iter__(self):
        return (getattr(self, name) for name in self.FIELDS)


def simulate_paths(
    model: AR1Model,
    x: float,
    b: float,
    n_paths: int,
    seed: int,
    max_steps: int | None = None,
    workers: int = 1,
):
    """Simulate n_paths paths; returns their PathRecord, which unpacks as
    (tau, x_tau, overshoot, phase, censored) and is identical for any
    worker count.  The k = ceil(n_paths / BLOCK_SIZE) blocks, BLOCK_SIZE
    read at call time, split the paths into equal parts: block i holds rows
    floor(i n / k) to floor((i + 1) n / k).  The calling thread samples
    blocks, and so do min(workers, k) - 1 helper threads, each taking the
    next block from one shared counter; the first exception or interrupt
    on any thread hands out no further block and propagates here."""
    if n_paths < 1:
        raise ValidationError(f"n_paths must be at least 1, got {n_paths}")
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    if max_steps is None:
        max_steps = default_max_steps(model.rho)
    n_blocks = -(-n_paths // BLOCK_SIZE)
    seeds = np.random.SeedSequence(seed).spawn(n_blocks)
    out = (np.zeros(n_paths, dtype=label_dtype(max_steps)), np.zeros(n_paths),
           np.full(n_paths, -1, dtype=label_dtype(model.m)))
    # The block counter that every thread draws from.
    blocks = iter(range(n_blocks))
    lock = threading.Lock()

    def take():
        with lock:
            return next(blocks, None)

    def drain():
        try:
            for i in iter(take, None):
                rows = slice(i * n_paths // n_blocks, (i + 1) * n_paths // n_blocks)
                rng = np.random.default_rng(seeds[i])
                _simulate_block(model, x, b, rng, max_steps, tuple(a[rows] for a in out))
        except BaseException:
            # A failure or an interrupt empties the counter: no block starts after it.
            with lock:
                for _ in blocks:
                    pass
            raise

    helpers = min(workers, n_blocks) - 1
    if helpers:
        # Leaving the pool waits for the helpers, whose blocks write into out.
        with ThreadPoolExecutor(max_workers=helpers) as pool:
            futures = [pool.submit(drain) for _ in range(helpers)]
            drain()
        for future in futures:
            # Re-raises a helper's exception here.
            future.result()
    else:
        drain()
    return PathRecord(*out, b)


def _estimate(values: np.ndarray, censored_fraction: float) -> Estimate:
    """Mean and standard error of `values`, which it overwrites: the squared
    deviations are formed in place, as values.std(ddof=1) forms them in a
    copy, so the result equals values.std(ddof=1) / sqrt(n) bit for bit."""
    n = values.size
    mean = values.mean()
    stderr = 0.0
    if n > 1:
        dev = np.subtract(values, mean, out=values)
        np.square(dev, out=dev)
        stderr = float(np.sqrt(dev.sum() / (n - 1)) / math.sqrt(n))
    return Estimate(mean=float(mean), stderr=stderr, n=n,
                    censored_fraction=censored_fraction)


def discount(model: AR1Model, tau: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rho^tau per path, into out or a new array, gathered from a table of
    rho^k for k <= max tau, which holds the same values as one power per
    path.  It gathers one BLOCK_SIZE slice at a time, so a tau narrower
    than intp is widened to intp indices one slice at a time."""
    table = model.rho ** np.arange(int(tau.max()) + 1, dtype=float)
    if out is None:
        out = np.empty(tau.size)
    for lo in range(0, tau.size, BLOCK_SIZE):
        # mode="clip" moves no index, as 0 <= tau <= max tau, and unlike the
        # default it gathers straight into out, not through a copy.
        np.take(table, tau[lo:lo + BLOCK_SIZE], out=out[lo:lo + BLOCK_SIZE], mode="clip")
    return out


def phi_estimates(model: AR1Model, paths) -> list[Estimate]:
    """Per-phase estimates of Phi_i(x) = E_x(rho^tau 1_{G_i}) from a
    simulate_paths record, of which it reads tau and the phase by position;
    censored paths keep phase -1 and so contribute 0 (bias below
    rho^max_steps).  Each phase gathers rho^tau per path anew into one
    buffer, which its estimate then overwrites."""
    tau, phase = paths[0], paths[3]
    fraction = float(np.mean(phase < 0))
    buf = np.empty(tau.size)
    estimates = []
    for i in range(1, model.m + 1):
        discount(model, tau, out=buf)
        # rho^tau is finite and >= 0, so rho^tau times the mask phase == i
        # equals np.where(phase == i, rho^tau, 0.0) bit for bit.
        buf *= phase == i
        estimates.append(_estimate(buf, fraction))
    return estimates


def joint_estimate(model: AR1Model, paths, gain: GainFunction) -> Estimate:
    """Estimate of E_x(rho^tau g(X_tau)) from a simulate_paths record, of
    which it reads tau, X_tau and the phase by position, formed in one
    buffer of rho^tau per path."""
    tau, x_tau, phase = paths[0], paths[1], paths[3]
    censored = phase < 0
    payoff = discount(model, tau)
    payoff *= gain(x_tau)
    payoff[censored] = 0.0
    return _estimate(payoff, float(censored.mean()))


def estimate_phi(
    model: AR1Model, x: float, b: float, n_paths: int, seed: int, workers: int = 1,
) -> list[Estimate]:
    """phi_estimates over n_paths fresh paths from x."""
    return phi_estimates(
        model, simulate_paths(model, x, b, n_paths, seed, workers=workers)
    )


def ks_statistic(samples: np.ndarray, cdf_callable) -> float:
    """Two-sided Kolmogorov-Smirnov distance to an analytic CDF.  A float64
    array `samples` is sorted in place and then serves as scratch, so its
    values are lost; pass a copy to keep them.  The CDF and the grid i/n
    are formed one BLOCK_SIZE slice of the sorted samples at a time, with
    one call of cdf_callable per slice."""
    s = np.asarray(samples, dtype=float)
    s.sort()
    n = s.size
    above = below = -math.inf
    for lo in range(0, n, BLOCK_SIZE):
        part = s[lo:lo + BLOCK_SIZE]
        f = cdf_callable(part)
        # max(i/n - F) and max(F - (i - 1)/n) over the slice's i: one grid
        # buffer, and the slice, no longer read, holds each difference.
        grid = np.arange(lo + 1, lo + part.size + 1, dtype=float)
        grid /= n
        above = max(above, np.subtract(grid, f, out=part).max())
        grid -= 1.0 / n
        below = max(below, np.subtract(f, grid, out=part).max())
    return float(max(above, below))


def ks_critical_value(n: int) -> float:
    """Asymptotic two-sided critical value sqrt(-ln(alpha/2) / (2n)) at
    significance level alpha = 0.01."""
    return math.sqrt(-math.log(0.01 / 2.0) / (2.0 * n))


def overshoot_given_phase(
    model: AR1Model, x: float, b: float, n_paths: int, seed: int,
    max_steps: int | None = None, workers: int = 1, min_count: int = 1000,
):
    """Group overshoots by crossing phase and test each group against the
    PH(Q, e_i) CDF.  Returns {phase: (samples, ks_stat, tau_overshoot_corr)}
    and a list of warnings for under-sampled phases."""
    paths = simulate_paths(model, x, b, n_paths, seed, max_steps, workers)
    tau, x_tau, phase = paths.tau, paths.x_tau, paths.phase
    dist = model.inn.s_part
    out = {}
    warnings = []
    for i in range(1, model.m + 1):
        rows = np.flatnonzero(phase == i)
        samples = x_tau[rows] - b
        if samples.size < min_count:
            warnings.append(
                f"phase {i}: only {samples.size} crossings (< {min_count})"
            )
        e_i = np.zeros(model.m)
        e_i[i - 1] = 1.0
        ks = ks_statistic(samples.copy(), lambda s: cdf_vector(dist, s, init=e_i)) \
            if samples.size else float("nan")
        if samples.size > 2:
            corr = float(np.corrcoef(tau[rows].astype(float), samples)[0, 1])
        else:
            corr = float("nan")
        out[i] = (samples, ks, corr)
    return out, warnings
