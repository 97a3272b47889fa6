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

