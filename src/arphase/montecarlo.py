"""Simulation oracle for the AR(1) threshold problem.

Paths iterate X_n = lambda X_{n-1} + S_n - T_n with each S_n drawn as a
full trajectory of the absorbing chain.  At the first crossing of b the
elapsed chain time u* = b - lambda X_{n-1} + T_n locates the occupying
phase, which realizes the phase-at-crossing event; the overshoot is
S_n - u* = X_n - b.  Since u* depends only on X_{n-1} and T_n, it is
computed for every live path before S_n is drawn, and the sampler
records the phase at u* in the same pass.

Paths are censored at max_steps chosen so rho^max_steps < 1e-12; the
censored contribution to any rho^tau-weighted estimator is below that
bound.  Estimation runs over blocks of BLOCK_SIZE = 65,536 paths, block
i using the RNG substream spawned as (seed, i) and writing its own slice
of the output arrays, so results depend only on (parameters, seed,
n_paths) and not on the worker count.  Each AR step issues a fixed
number of numpy calls per block, so blocks are large: with small ones,
Python dispatch and hand-offs of the interpreter lock dominate the run,
and a second worker thread buys nothing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gains import GainFunction
from .phasetype import cdf_vector, sample_chains
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
    `out` = (tau, x_tau, overshoot, phase, censored)."""
    tau, x_tau, overshoot, phase, censored = out
    dist = model.inn.s_part
    t_part = model.inn.t_part
    lam = model.lam

    # Paths still below b: their indices into the block and current values.
    act = np.arange(tau.size)
    X = np.full(tau.size, float(x0))
    for step in range(1, max_steps + 1):
        if act.size == 0:
            break
        T = t_part.sample(rng, size=act.size)
        drift = lam * X
        # Chain time at which a crossing innovation reaches b.
        u_star = np.maximum(b - drift + T, 0.0)
        S, held = sample_chains(dist, rng, act.size, at=u_star)
        Xn = drift + S - T
        crossing = Xn >= b
        # Index arrays, not masks: see sample_chains.
        crossed = np.flatnonzero(crossing)
        gidx = act[crossed]
        # sample_chains phases are 0-based; records use 1-based labels.
        phase[gidx] = held[crossed] + 1
        tau[gidx] = step
        x_tau[gidx] = Xn[crossed]
        overshoot[gidx] = x_tau[gidx] - b
        keep = np.flatnonzero(~crossing)
        act, X = act[keep], Xn[keep]
    censored[act] = True


def simulate_paths(
    model: AR1Model,
    x: float,
    b: float,
    n_paths: int,
    seed: int,
    max_steps: int | None = None,
    workers: int = 1,
):
    """Simulate n_paths paths; returns (tau, x_tau, overshoot, phase, censored)
    arrays, identical for any worker count.  The blocks have BLOCK_SIZE paths,
    read at call time."""
    if n_paths < 1:
        raise ValidationError(f"n_paths must be at least 1, got {n_paths}")
    if max_steps is None:
        max_steps = default_max_steps(model.rho)
    block_size = BLOCK_SIZE
    n_blocks = (n_paths + block_size - 1) // block_size
    seeds = np.random.SeedSequence(seed).spawn(n_blocks)
    out = (np.zeros(n_paths, dtype=np.int64), np.zeros(n_paths), np.zeros(n_paths),
           np.full(n_paths, -1, dtype=np.int64), np.zeros(n_paths, dtype=bool))

    def run(i):
        rows = slice(i * block_size, (i + 1) * block_size)
        rng = np.random.default_rng(seeds[i])
        _simulate_block(model, x, b, rng, max_steps, tuple(a[rows] for a in out))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # Reading every result re-raises a block's exception here.
            list(pool.map(run, range(n_blocks)))
    else:
        for i in range(n_blocks):
            run(i)
    return out


def _estimate(values: np.ndarray, censored: np.ndarray) -> Estimate:
    n = values.size
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, n=n,
                    censored_fraction=float(censored.mean()))


def phi_estimates(model: AR1Model, paths) -> list[Estimate]:
    """Per-phase estimates of Phi_i(x) = E_x(rho^tau 1_{G_i}) from the
    simulate_paths arrays; censored paths contribute 0 (bias below
    rho^max_steps)."""
    tau, _, _, phase, censored = paths
    disc = np.where(censored, 0.0, model.rho ** tau.astype(float))
    return [_estimate(np.where(phase == i, disc, 0.0), censored)
            for i in range(1, model.m + 1)]


def joint_estimate(model: AR1Model, paths, gain: GainFunction) -> Estimate:
    """Estimate of E_x(rho^tau g(X_tau)) from the simulate_paths arrays."""
    tau, x_tau, _, _, censored = paths
    payoff = np.where(censored, 0.0, model.rho ** tau.astype(float) * np.asarray(gain(x_tau)))
    return _estimate(payoff, censored)


def estimate_phi(
    model: AR1Model, x: float, b: float, n_paths: int, seed: int, workers: int = 1,
) -> list[Estimate]:
    """phi_estimates over n_paths fresh paths from x."""
    return phi_estimates(
        model, simulate_paths(model, x, b, n_paths, seed, workers=workers)
    )


def ks_statistic(samples: np.ndarray, cdf_callable) -> float:
    """Two-sided Kolmogorov-Smirnov distance to an analytic CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = cdf_callable(s)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


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
    tau, _, overshoot, phase, censored = simulate_paths(
        model, x, b, n_paths, seed, max_steps, workers
    )
    dist = model.inn.s_part
    out = {}
    warnings = []
    for i in range(1, model.m + 1):
        mask = (phase == i) & ~censored
        samples = overshoot[mask]
        if samples.size < min_count:
            warnings.append(
                f"phase {i}: only {samples.size} crossings (< {min_count})"
            )
        e_i = np.zeros(model.m)
        e_i[i - 1] = 1.0
        ks = ks_statistic(samples, lambda s: cdf_vector(dist, s, init=e_i)) \
            if samples.size else float("nan")
        if samples.size > 2:
            corr = float(np.corrcoef(tau[mask].astype(float), samples)[0, 1])
        else:
            corr = float("nan")
        out[i] = (samples, ks, corr)
    return out, warnings
