"""Phase-type calculus: validation, spectral data, the cdf, and sampling
with the phase held at a given time."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from arphase import (
    NumericalConsistencyError,
    ValidationError,
    cdf_vector,
    sample_chains,
    validate,
)
from arphase.montecarlo import ks_critical_value, ks_statistic
from arphase.phasetype import as_real_vector


class TestValidate:
    def test_exponential_case(self):
        d = validate([[-1.0]], [1.0])
        assert d.m == 1
        assert d.q == pytest.approx([1.0])

    def test_zero_row_sum_rejected(self):
        with pytest.raises(ValidationError):
            validate([[0.0]], [1.0])

    def test_two_phase_chain(self):
        d = validate([[-2.0, 1.0], [0.0, -3.0]], [0.5, 0.5])
        assert d.q == pytest.approx([1.0, 3.0])
        assert sorted(d.spectral.mu.real) == pytest.approx([2.0, 3.0])

    def test_repeated_eigenvalues_rejected(self):
        with pytest.raises(ValidationError):
            validate([[-1.0, 1.0], [0.0, -1.0]], [1.0, 0.0])

    def test_negative_offdiagonal_rejected(self):
        with pytest.raises(ValidationError):
            validate([[-1.0, -0.5], [0.0, -2.0]], [0.5, 0.5])

    def test_unnormalized_alpha_rejected(self):
        with pytest.raises(ValidationError):
            validate([[-1.0]], [0.9])

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            validate([[-1.0, 0.0], [0.0, -2.0]], [1.5, -0.5])


class TestSpectralData:
    def test_projector_algebra(self, dist_chain2):
        sd = dist_chain2.spectral
        m = dist_chain2.m
        for j in range(m):
            for k in range(m):
                prod = sd.projectors[j] @ sd.projectors[k]
                target = sd.projectors[j] if j == k else np.zeros((m, m))
                assert np.abs(prod - target).max() < 1e-10

    def test_partition_of_identity(self, dist_chain2):
        sd = dist_chain2.spectral
        assert np.abs(sum(sd.projectors) - np.eye(2)).max() < 1e-10

    def test_reconstruction(self, dist_chain2):
        sd = dist_chain2.spectral
        rebuilt = sum(-mu * P for mu, P in zip(sd.mu, sd.projectors))
        assert np.abs(rebuilt - dist_chain2.Q).max() < 1e-10


class TestAsReal:
    def test_complex_scalar_rejected(self):
        with pytest.raises(NumericalConsistencyError):
            as_real_vector(1 + 1j)

    def test_complex_vector_rejected(self):
        with pytest.raises(NumericalConsistencyError):
            as_real_vector([1.0, 1 + 1j])


class TestCdf:
    def test_zero_at_origin(self, dist_exp1):
        assert cdf_vector(dist_exp1, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_exponential_value(self, dist_exp1):
        assert cdf_vector(dist_exp1, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_negative_argument_convention(self, dist_exp1):
        assert cdf_vector(dist_exp1, -0.5) == 0.0

    def test_against_density_quadrature(self):
        d = validate([[-1.0, 1.0], [0.0, -2.0]], [1.0, 0.0])
        val, err = quad(lambda s: d.alpha @ expm(d.Q * s) @ d.q, 0.0, 1.0, epsabs=1e-12)
        assert cdf_vector(d, 1.0) == pytest.approx(val, abs=max(1e-10, 10 * err))

    def test_coxian6_against_expm(self):
        # The 6-phase Coxian (continuation 0.7) of the simulate benchmark.
        rates = [1.0, 1.4, 1.9, 2.6, 3.3, 4.1]
        Q = np.diag(np.negative(rates)) + np.diag([0.7 * r for r in rates[:-1]], 1)
        d = validate(Q, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        grid = np.linspace(0.0, 12.0, 61)
        for init in (d.alpha, np.eye(6)[3], np.full(6, 1.0 / 6.0)):
            ref = [1.0 - init @ expm(Q * s) @ np.ones(6) for s in grid]
            got = cdf_vector(d, grid, init=init)
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_monotone_and_bounded(self, dist_hyper2):
        beta = float(dist_hyper2.spectral.mu.real.min())
        grid = np.linspace(0.0, 40.0 / beta, 100)
        vals = cdf_vector(dist_hyper2, grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= -1e-13)
        assert vals[-1] == pytest.approx(1.0, abs=1e-8)


class TestSample:
    def test_mean(self, dist_exp1):
        draws = sample_chains(dist_exp1, np.random.default_rng(11), 100_000, at=np.zeros(100_000))[0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_deterministic_for_seed(self, dist_chain2):
        at = np.linspace(0.0, 2.0, 1000)
        a = sample_chains(dist_chain2, np.random.default_rng(5), 1000, at=at)
        b = sample_chains(dist_chain2, np.random.default_rng(5), 1000, at=at)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        # The phase at `at` draws nothing extra: other times, same lifetimes.
        other = sample_chains(dist_chain2, np.random.default_rng(5), 1000, at=np.zeros(1000))
        assert np.array_equal(other[0], a[0])

    def test_phase_at_zero_is_initial(self, dist_chain2):
        n = 1000
        lifetimes, phases = sample_chains(
            dist_chain2, np.random.default_rng(8), n, at=np.zeros(n)
        )
        # The first draw picks each chain's initial phase from alpha.
        first = np.random.default_rng(8).random(n)
        initial = np.searchsorted(np.cumsum(dist_chain2.alpha), first, side="right")
        assert np.all(lifetimes > 0.0)
        assert np.array_equal(phases, initial)

    def test_phase_at_matches_occupation_law(self, dist_chain2):
        # P(alive at u, in phase i) = (alpha e^{Qu})_i.
        us = np.array([0.1, 0.4, 1.0])
        per_u = 100_000
        at = np.repeat(us, per_u)
        lifetimes, phases = sample_chains(
            dist_chain2, np.random.default_rng(17), at.size, at=at
        )
        alive = (lifetimes > at).reshape(us.size, per_u)
        phases = phases.reshape(us.size, per_u)
        for k, u in enumerate(us):
            expected = dist_chain2.alpha @ expm(dist_chain2.Q * u)
            for i, p in enumerate(expected):
                got = np.mean(alive[k] & (phases[k] == i))
                assert abs(got - p) < 4 * math.sqrt(p * (1 - p) / per_u)

    def test_phase_past_lifetime_is_absorbing_phase(self, dist_chain2):
        # P(absorbed from phase i) = (alpha (-Q)^{-1})_i q_i.
        n = 100_000
        _, phases = sample_chains(
            dist_chain2, np.random.default_rng(19), n, at=np.full(n, np.inf)
        )
        expected = np.linalg.solve(-dist_chain2.Q.T, dist_chain2.alpha) * dist_chain2.q
        assert expected.sum() == pytest.approx(1.0)
        for i, p in enumerate(expected):
            got = np.mean(phases == i)
            assert abs(got - p) < 4 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize(
        "fixture", ["dist_exp1", "dist_hyper2", "dist_chain2"]
    )
    def test_ks_against_cdf(self, fixture, request):
        dist = request.getfixturevalue(fixture)
        draws = sample_chains(dist, np.random.default_rng(23), 10_000, at=np.zeros(10_000))[0]
        ks = ks_statistic(draws, lambda s: cdf_vector(dist, s))
        assert ks < ks_critical_value(draws.size)


def dense_kernel_sample_chains(dist, rng, count, at, ends=None):
    """The sampler that compared each uniform with the cumulative kernel row
    over all m columns and kept a pending mask per chain: the loop
    sample_chains replaced, kept as the reference its destination table and
    round rule must match bit for bit.  A list passed as `ends` receives one
    row per round: each chain's holding end, NaN once it is absorbed.

    It draws a uniform only where one can change the outcome.  The initial
    one is drawn when a cumulative weight of alpha lies strictly between 0
    and 1; otherwise u = 0 stands in, which every weight of 0 counts and
    none of 1.  The jump one is drawn when some phase can jump; otherwise
    u = 1 stands in, which no all-zero kernel row reaches, so every chain
    absorbs."""
    m = dist.m
    rates = -np.diag(dist.Q)
    kernel = dist.Q / rates[:, None]
    np.fill_diagonal(kernel, 0.0)
    scale, cum_jump = 1.0 / rates, np.ascontiguousarray(np.cumsum(kernel, axis=1).T)
    jumps = bool(np.any(kernel > 0.0))

    weights = np.cumsum(dist.alpha)[:-1]
    first = rng.random(count) if np.any((weights > 0.0) & (weights < 1.0)) else np.zeros(count)
    cur = np.zeros(count, dtype=np.int64)
    for weight in weights:
        cur += weight <= first
    lifetimes = np.empty(count)
    idx = np.arange(count)
    elapsed = np.zeros(count)
    phases = np.empty(count, dtype=np.int64)
    pending = np.ones(count, dtype=bool)
    at = np.asarray(at, dtype=float)
    while idx.size:
        end = elapsed + rng.standard_exponential(idx.size) * scale[cur]
        u = rng.random(idx.size) if jumps else np.ones(idx.size)
        nxt = np.zeros(idx.size, dtype=np.int64)
        for cum in cum_jump:
            nxt += cum[cur] < u
        absorbed = nxt == m
        if ends is not None:
            ends.append(np.full(count, np.nan))
            ends[-1][idx] = end
        hit = np.flatnonzero(pending & ((at < end) | absorbed))
        phases[idx[hit]] = cur[hit]
        pending[hit] = False
        done = np.flatnonzero(absorbed)
        lifetimes[idx[done]] = end[done]
        keep = np.flatnonzero(~absorbed)
        idx, cur, elapsed = idx[keep], nxt[keep], end[keep]
        at, pending = at[keep], pending[keep]
    return lifetimes, phases


# Every off-diagonal entry positive: each phase can reach both others.
DENSE3 = ([[-3.0, 1.0, 0.5], [0.4, -2.0, 0.6], [0.2, 0.3, -1.5]], [0.2, 0.5, 0.3])

# Chains that start in one phase share it while each phase met has at most
# one destination.  Phase 2 of the first two can go two ways, and in the
# second one way leads back to phase 1; the hypoexponential never branches.
SERIES_THEN_BRANCH = [[-2.0, 2.0, 0.0, 0.0], [0.0, -3.0, 1.0, 1.5], [0.0, 0.0, -1.5, 0.0], [0.0, 0.0, 0.0, -4.0]]
BRANCH_BACK = [[-2.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 0.0, -1.5]]
HYPOEXPONENTIAL3 = [[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, -3.5]]


@pytest.fixture(params=["m1", "m2", "chain2", "m6", "dense3", "dense3-e2", "series-then-branch",
                        "branch-back", "hypoexponential3", "m6-e3", "m6-e6"])
def sampled_dist(request, dist_exp1, dist_hyper2, dist_chain2, engine_m6):
    m6 = engine_m6.model.inn.s_part
    return {
        "m1": dist_exp1,
        "m2": dist_hyper2,
        "chain2": dist_chain2,
        "m6": m6,
        "dense3": validate(*DENSE3),
        # Every chain starts in the middle phase, after a weight of 0.
        "dense3-e2": validate(DENSE3[0], [0.0, 1.0, 0.0]),
        "series-then-branch": validate(SERIES_THEN_BRANCH, np.eye(4)[0]),
        "branch-back": validate(BRANCH_BACK, np.eye(3)[0]),
        "hypoexponential3": validate(HYPOEXPONENTIAL3, np.eye(3)[0]),
        "m6-e3": validate(m6.Q, np.eye(6)[2]),
        # The last phase has no destination: round one absorbs every chain.
        "m6-e6": validate(m6.Q, np.eye(6)[5]),
    }[request.param]


class TestDestinationTable:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_dense_kernel_sampler(self, sampled_dist, seed):
        # Elapsed times that mix 0, finite values and inf.
        n = 5000
        pick = np.random.default_rng(100 + seed)
        at = np.choose(pick.integers(0, 3, n), [np.zeros(n), pick.uniform(0.0, 3.0, n), np.full(n, np.inf)])
        want = dense_kernel_sample_chains(sampled_dist, np.random.default_rng(seed), n, at)
        got = sample_chains(sampled_dist, np.random.default_rng(seed), n, at)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_rows_list_kernel_positive_destinations(self, sampled_dist):
        m = sampled_dist.m
        scale, thresholds, dest = sampled_dist._jump_table
        rates = -np.diag(sampled_dist.Q)
        kernel = sampled_dist.Q / rates[:, None]
        np.fill_diagonal(kernel, 0.0)
        dest = dest.reshape(m, thresholds.shape[0] + 1)
        assert np.array_equal(scale, 1.0 / rates)
        assert thresholds.shape[0] == int((kernel > 0).sum(axis=1).max())
        for p in range(m):
            cols = np.flatnonzero(kernel[p] > 0)
            # Reachable phases in column order, then absorption (m).
            assert np.array_equal(dest[p, :cols.size], cols)
            assert np.all(dest[p, cols.size:] == m)
            assert np.array_equal(thresholds[:cols.size, p], np.cumsum(kernel[p])[cols])
            assert np.all(thresholds[cols.size:, p] == np.inf)


class ZeroUniforms:
    """A stub rng: every uniform is 0.0 and every standard exponential 1.0.
    It raises once more than `rounds` uniform batches are asked for, so a
    chain that never absorbs fails the test instead of hanging it."""

    def __init__(self, rounds=20):
        self.rounds = rounds

    def random(self, n):
        self.rounds -= 1
        if self.rounds < 0:
            raise RuntimeError("round limit reached: a chain never absorbs")
        return np.zeros(n)

    def standard_exponential(self, n):
        return np.ones(n)


class TestZeroUniform:
    """A uniform of exactly 0.0 must jump only where Q allows."""

    def test_hyperexponential_absorbs_at_once(self, dist_hyper2):
        # Neither phase of m2 can reach the other, so the one uniform batch
        # picks the initial phases and every chain absorbs without a jump
        # uniform, which with u = 0 kept the dense sampler from absorbing.
        lifetimes, phases = sample_chains(dist_hyper2, ZeroUniforms(rounds=1), 4, at=None)
        assert np.array_equal(lifetimes, np.ones(4))
        assert np.array_equal(phases, np.zeros(4))
        want = dense_kernel_sample_chains(dist_hyper2, ZeroUniforms(rounds=1), 4, np.zeros(4))
        assert np.array_equal(want[0], lifetimes) and np.array_equal(want[1], phases)

    def test_chain_goes_to_its_only_destination(self, dist_chain2):
        # Phase 0 reaches phase 1 only; phase 1 only absorbs.
        at = np.array([0.0, 0.6, np.inf])
        lifetimes, phases = sample_chains(dist_chain2, ZeroUniforms(), 3, at=at)
        assert np.array_equal(lifetimes, np.full(3, 0.5 + 1.0 / 3.0))
        assert np.array_equal(phases, [0, 1, 1])
        with pytest.raises(RuntimeError, match="round limit"):
            dense_kernel_sample_chains(dist_chain2, ZeroUniforms(), 3, at)


class ZeroHoldings:
    """A real generator whose standard exponentials are all 0.0, so that
    every holding has length zero and starts where the previous one ends."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, n):
        return self.rng.random(n)

    def standard_exponential(self, n):
        return np.zeros(n)


class DrawLog:
    """A real generator that records each call as (method, args, kwargs)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def logged(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)

        return logged


class TestRoundRule:
    """sample_chains records the phase of the last holding that starts at or
    before at[k]; the reference records the first holding that ends after
    it.  Both must agree on the boundaries, on NaN and on empty holdings."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_at_on_holding_ends_and_nan(self, sampled_dist, seed):
        n = 5000
        ends = []
        dense_kernel_sample_chains(sampled_dist, np.random.default_rng(seed), n, np.zeros(n), ends)
        ends = np.array(ends)
        # Each chain's at sits exactly on one of its own holding ends, or is NaN.
        pick = np.random.default_rng(200 + seed)
        rounds = np.sum(~np.isnan(ends), axis=0)
        on_end = ends[(pick.random(n) * rounds).astype(np.int64), np.arange(n)]
        at = np.where(pick.random(n) < 0.2, np.nan, on_end)
        want = dense_kernel_sample_chains(sampled_dist, np.random.default_rng(seed), n, at)
        got = sample_chains(sampled_dist, np.random.default_rng(seed), n, at)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("name", ["chain2", "m6"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_length_holdings(self, name, seed, dist_chain2, engine_m6):
        dist = {"chain2": dist_chain2, "m6": engine_m6.model.inn.s_part}[name]
        n = 2000
        at = np.choose(np.arange(n) % 4, [np.zeros(n), np.full(n, 0.5), np.full(n, np.nan), np.full(n, -1.0)])
        want = dense_kernel_sample_chains(dist, ZeroHoldings(seed), n, at)
        got = sample_chains(dist, ZeroHoldings(seed), n, at)
        assert np.array_equal(got[0], np.zeros(n))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_match_the_reference(self, sampled_dist, seed):
        # Every output byte depends on the draws: the same methods, sizes, order.
        n = 3000
        at = np.random.default_rng(300 + seed).uniform(0.0, 2.0, n)
        got, want = DrawLog(seed), DrawLog(seed)
        sample_chains(sampled_dist, got, n, at)
        dense_kernel_sample_chains(sampled_dist, want, n, at)
        assert got.calls == want.calls
        # Round one: the initial uniform only where alpha leaves the phase
        # to chance, the holdings, and the jump uniform only where a phase
        # can jump; it is the only round unless an initial phase can jump.
        weights = np.cumsum(sampled_dist.alpha)[:-1]
        off = sampled_dist.Q - np.diag(np.diag(sampled_dist.Q))
        jumps = np.any(off > 0.0)
        head = (["random"] * bool(np.any((weights > 0.0) & (weights < 1.0)))
                + ["standard_exponential"] + ["random"] * bool(jumps))
        assert [name for name, _, _ in got.calls[:len(head)]] == head
        leaves = np.any(off[sampled_dist.alpha > 0.0] > 0.0)
        assert len(got.calls) > len(head) if leaves else len(got.calls) == len(head)


def where_route_cdf(dist, s, init):
    """cdf_vector as it summed every eigen-term and took the real part of
    1 - survival through as_real_vector, kept as a bit-for-bit reference."""
    w = np.array([init @ P @ np.ones(dist.m) for P in dist.spectral.projectors])
    if not np.iscomplexobj(dist.spectral.mu):
        w = as_real_vector(w, what="cdf weights")
    surv = np.zeros(s.shape, dtype=w.dtype)
    for mu_j, w_j in zip(dist.spectral.mu, w):
        surv += w_j * np.exp(-mu_j * s)
    vals = np.where(s < 0, 0.0, as_real_vector(1.0 - surv, what="cdf"))
    return np.clip(vals, 0.0, 1.0)


# A cyclic chain: -Q has the complex pair 3.5 +- 1.658i.
CYCLIC3 = ([[-2.0, 2.0, 0.0], [0.0, -2.5, 2.5], [1.5, 0.0, -3.0]], [0.5, 0.3, 0.2])


class TestCdfRoute:
    @pytest.mark.parametrize("name", ["m2", "chain2", "m6", "cyclic3"])
    def test_equals_the_every_term_route(self, name, dist_hyper2, dist_chain2, engine_m6):
        dist = {
            "m2": dist_hyper2,
            "chain2": dist_chain2,
            "m6": engine_m6.model.inn.s_part,
            "cyclic3": validate(*CYCLIC3),
        }[name]
        s = np.concatenate([[-1.0, -0.0, 0.0, 5e-324, 1e-300], np.linspace(0.0, 40.0, 4001), [800.0]])
        for init in [*np.eye(dist.m), dist.alpha]:
            got = cdf_vector(dist, s, init=init)
            assert got.tobytes() == where_route_cdf(dist, s, init).tobytes()
        if name == "cyclic3":
            assert np.iscomplexobj(dist.spectral.mu)
