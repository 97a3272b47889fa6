"""Phase-type calculus: validation, spectral data, cdf/pdf/Laplace,
matrix functions, sampling, and the restart vector."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from arphase import (
    NumericalConsistencyError,
    PoleError,
    ValidationError,
    cdf_vector,
    laplace,
    matrix_function,
    pdf,
    restart_vector,
    sample_chains,
    validate,
)
from arphase.montecarlo import ks_critical_value, ks_statistic
from arphase.phasetype import as_real, as_real_vector


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
            as_real(1 + 1j)

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
        val, err = quad(lambda s: pdf(d, s), 0.0, 1.0, epsabs=1e-12)
        assert cdf_vector(d, 1.0) == pytest.approx(val, abs=max(1e-10, 10 * err))

    def test_monotone_and_bounded(self, dist_hyper2):
        beta = float(dist_hyper2.spectral.mu.real.min())
        grid = np.linspace(0.0, 40.0 / beta, 100)
        vals = cdf_vector(dist_hyper2, grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= -1e-13)
        assert vals[-1] == pytest.approx(1.0, abs=1e-8)


class TestPdf:
    def test_rate_at_origin(self, dist_exp1):
        assert pdf(dist_exp1, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_integrates_to_one(self, dist_chain2):
        val, _ = quad(lambda s: pdf(dist_chain2, s), 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_matches_cdf_derivative(self, dist_chain2):
        h = 1e-5
        hi, lo = cdf_vector(dist_chain2, [0.7 + h, 0.7 - h])
        numeric = (hi - lo) / (2 * h)
        assert pdf(dist_chain2, 0.7) == pytest.approx(numeric, abs=1e-6)

    def test_nonnegative_on_grid(self, dist_hyper2):
        for s in np.linspace(0.0, 20.0, 200):
            assert pdf(dist_hyper2, s) >= 0.0


class TestLaplace:
    def test_one_at_zero(self, dist_chain2):
        assert laplace(dist_chain2, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_resolvent(self):
        d = validate([[-2.0]], [1.0])
        # beta / (beta - s) = 2 / (2 - 1)
        assert laplace(d, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_pole_rejected(self):
        d = validate([[-2.0]], [1.0])
        with pytest.raises(PoleError):
            laplace(d, 2.0)

    def test_rational_form_m1(self):
        d = validate([[-1.5]], [1.0])
        for s in np.linspace(-3.0, 1.2, 25):
            assert complex(laplace(d, s)).real == pytest.approx(
                1.5 / (1.5 - s), rel=1e-13
            )


class TestMatrixFunction:
    def test_identity_reconstructs_q(self, dist_chain2):
        got = matrix_function(dist_chain2.spectral, 1.0, lambda v: v)
        assert np.abs(got - dist_chain2.Q).max() < 1e-10

    def test_exponential_vs_expm(self, dist_chain2):
        got = matrix_function(dist_chain2.spectral, 1.0, np.exp)
        assert np.abs(got - expm(dist_chain2.Q)).max() < 1e-9

    def test_resolvent_vs_solve(self, dist_chain2):
        mu = 5.0
        got = matrix_function(dist_chain2.spectral, 1.0, lambda v: 1.0 / (mu - v))
        ref = np.linalg.inv(mu * np.eye(2) - dist_chain2.Q)
        assert np.abs(got - ref).max() < 1e-10


class TestSample:
    def test_mean(self, dist_exp1):
        draws = sample_chains(dist_exp1, np.random.default_rng(11), 100_000).lifetimes
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_deterministic_for_seed(self, dist_chain2):
        a = sample_chains(dist_chain2, np.random.default_rng(5), 1000)
        b = sample_chains(dist_chain2, np.random.default_rng(5), 1000)
        assert np.array_equal(a.lifetimes, b.lifetimes)
        assert len(a.round_phases) == len(b.round_phases)
        for rounds_a, rounds_b in ((a.round_phases, b.round_phases),
                                   (a.round_ends, b.round_ends)):
            assert all(np.array_equal(x, y) for x, y in zip(rounds_a, rounds_b))

    def test_trajectory_consistency(self, dist_chain2):
        batch = sample_chains(dist_chain2, np.random.default_rng(3), 200)
        phases = np.array(batch.round_phases)   # (rounds, chains)
        ends = np.array(batch.round_ends)
        alive = phases >= 0
        # A chain is alive for a prefix of rounds, in phases 0..m-1, and its
        # lifetime is the end of its last holding.
        assert np.all(alive[0])
        assert np.all(alive[:-1] >= alive[1:])
        assert np.all(phases[alive] <= 1)
        n_rounds = alive.sum(axis=0)
        last_end = ends[n_rounds - 1, np.arange(200)]
        assert np.array_equal(batch.lifetimes, last_end)
        assert np.all(np.diff(ends, axis=0)[alive[1:]] > 0.0)
        # Just before each holding ends, phase_at reports the phase held.
        cols = np.arange(200)
        for r in range(phases.shape[0]):
            live = cols[alive[r]]
            u = ends[r, live] * (1.0 - 1e-9)
            assert np.array_equal(batch.phase_at(live, u), phases[r, live])

    @pytest.mark.parametrize(
        "fixture", ["dist_exp1", "dist_hyper2", "dist_chain2"]
    )
    def test_ks_against_cdf(self, fixture, request):
        dist = request.getfixturevalue(fixture)
        draws = sample_chains(dist, np.random.default_rng(23), 10_000).lifetimes
        ks = ks_statistic(draws, lambda s: cdf_vector(dist, s))
        assert ks < ks_critical_value(draws.size)


class TestRestartVector:
    def test_no_conditioning_at_zero(self, dist_chain2):
        assert restart_vector(dist_chain2, 0.0) == pytest.approx(dist_chain2.alpha)

    def test_single_phase(self, dist_exp1):
        for t in (0.0, 0.5, 3.0):
            assert restart_vector(dist_exp1, t) == pytest.approx([1.0])

    def test_residual_life_self_consistency(self, dist_hyper2):
        t = 1.0
        pi = restart_vector(dist_hyper2, t)
        for s in (0.2, 0.8, 2.5):
            via_restart = float(cdf_vector(dist_hyper2, np.array([s]), init=pi)[0])
            at_t, at_ts = cdf_vector(dist_hyper2, [t, t + s])
            direct = (at_ts - at_t) / (1.0 - at_t)
            assert via_restart == pytest.approx(direct, abs=1e-10)
