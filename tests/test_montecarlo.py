"""Simulation oracle: path mechanics, estimators, distributional tests."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from arphase import (
    GainFunction,
    ResidueSystem,
    ValidationError,
    default_max_steps,
    estimate_phi,
    joint_estimate,
    overshoot_expectation,
    overshoot_given_phase,
    simulate_paths,
)
from arphase import montecarlo
from arphase.montecarlo import BLOCK_SIZE, ks_critical_value
from arphase.passage import closed_form_exp


class TestSimulateCrossing:
    def test_deterministic_for_seed(self, engine_m2):
        a = simulate_paths(engine_m2.model, 0.0, 1.0, 50, seed=17)
        b = simulate_paths(engine_m2.model, 0.0, 1.0, 50, seed=17)
        c = simulate_paths(engine_m2.model, 0.0, 1.0, 50, seed=18)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[1], c[1])

    def test_record_consistency(self, engine_m2):
        tau, x_tau, overshoot, phase, censored = simulate_paths(
            engine_m2.model, 0.0, 1.0, 5000, seed=0
        )
        done = ~censored
        assert done.all()
        assert np.array_equal(overshoot[done], x_tau[done] - 1.0)
        assert np.all(overshoot[done] >= 0.0)
        assert np.all((phase[done] >= 1) & (phase[done] <= 2))
        assert np.all(tau[done] >= 1)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_empty_run_rejected(self, engine_m2, n_paths):
        with pytest.raises(ValidationError):
            simulate_paths(engine_m2.model, 0.0, 1.0, n_paths, seed=0)

    def test_one_step_crossing_frequency(self, engine_m2):
        # P(tau = 1) = alpha e^{Q(b - lam x)} 1 for T = 0
        model = engine_m2.model
        x, b, n = 0.0, 1.0, 100_000
        tau, _, _, _, censored = simulate_paths(model, x, b, n, seed=9)
        p_hat = float(np.mean((tau == 1) & ~censored))
        Q = model.inn.s_part.Q
        p = float(model.inn.s_part.alpha @ expm(Q * (b - model.lam * x))
                  @ np.ones(2))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) < 3 * se


class TestCensoring:
    def test_default_horizon_bound(self):
        for rho in (0.3, 0.5, 0.9):
            n = default_max_steps(rho)
            assert rho ** n < 1e-12 <= rho ** (n - 1)

    def test_censored_fraction_negligible(self, engine_m1):
        _, _, _, _, censored = simulate_paths(
            engine_m1.model, 0.0, 1.0, 100_000, seed=2
        )
        assert censored.mean() <= 1e-6


class TestDeterminism:
    def test_worker_count_invariance(self, engine_m2, monkeypatch):
        # 8 blocks of 4096 paths, the last one partial.
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 4096)
        runs = [
            simulate_paths(engine_m2.model, 0.0, 1.0, 30_000, seed=13, workers=w)
            for w in (1, 2, 8)
        ]
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert np.array_equal(a, b)

    def test_worker_count_invariance_default_blocks(self, engine_m2):
        n = 150_000
        assert n > 2 * BLOCK_SIZE
        one, two = (
            simulate_paths(engine_m2.model, 0.0, 1.0, n, seed=14, workers=w)
            for w in (1, 2)
        )
        for a, b in zip(one, two):
            assert np.array_equal(a, b)

    def test_seed_reproducibility(self, engine_m2):
        a = simulate_paths(engine_m2.model, 0.0, 1.0, 20_000, seed=4)
        b = simulate_paths(engine_m2.model, 0.0, 1.0, 20_000, seed=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestEstimatePhi:
    def test_partition_of_crossing_event(self, engine_m2):
        model = engine_m2.model
        ests = estimate_phi(model, 0.0, 1.0, 100_000, seed=21)
        tau, _, _, phase, censored = simulate_paths(
            model, 0.0, 1.0, 100_000, seed=21
        )
        disc = np.where(censored, 0.0, model.rho ** tau.astype(float))
        assert sum(e.mean for e in ests) == pytest.approx(
            float(disc.mean()), abs=1e-12
        )
        assert np.all((phase[~censored] >= 1) & (phase[~censored] <= 2))

    def test_m1_matches_closed_form(self, engine_m1):
        est = estimate_phi(engine_m1.model, 0.0, 1.0, 1_000_000, seed=42)[0]
        want = closed_form_exp(0.0, 1.0, 1.0, 0.5, 0.5)
        assert abs(est.mean - want) < 3 * est.stderr

    def test_m2_matches_residue_solver(self, engine_m2):
        ct = ResidueSystem(engine_m2, 1.0).solve(0.0)
        ests = estimate_phi(engine_m2.model, 0.0, 1.0, 1_000_000, seed=43)
        for i, est in enumerate(ests):
            assert abs(est.mean - ct.phi_vec[i]) < 3 * est.stderr


class TestOvershootGivenPhase:
    def test_m1_exponential_overshoot(self, engine_m1):
        out, warnings = overshoot_given_phase(
            engine_m1.model, 0.0, 1.0, 40_000, seed=6
        )
        samples, ks, corr = out[1]
        assert samples.size >= 10_000
        assert ks < ks_critical_value(samples.size)
        assert not warnings

    def test_m2_per_phase_distribution(self, engine_m2):
        out, _ = overshoot_given_phase(
            engine_m2.model, 0.0, 1.0, 120_000, seed=3
        )
        for i in (1, 2):
            samples, ks, corr = out[i]
            assert ks < ks_critical_value(samples.size)
            assert abs(corr) < 3.0 / math.sqrt(samples.size)

    def test_insufficient_sample_warning(self, engine_m2):
        _, warnings = overshoot_given_phase(
            engine_m2.model, 0.0, 1.0, 500, seed=1
        )
        assert warnings


class TestEstimateJoint:
    def test_constant_gain_equals_phi_total(self, engine_m2):
        model = engine_m2.model
        paths = simulate_paths(model, 0.0, 1.0, 50_000, seed=30)
        est = joint_estimate(model, paths, GainFunction.power(0))
        phis = estimate_phi(model, 0.0, 1.0, 50_000, seed=30)
        assert est.mean == pytest.approx(sum(e.mean for e in phis), abs=1e-12)

    def test_identity_gain_at_optimal_threshold(self, engine_m1):
        from arphase import solve_threshold_exp_identity

        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        want = (sol.b_star + 1.0) * closed_form_exp(
            0.0, sol.b_star, 1.0, 0.5, 0.5
        )
        model = engine_m1.model
        paths = simulate_paths(model, 0.0, sol.b_star, 1_000_000, seed=61)
        est = joint_estimate(model, paths, GainFunction.identity())
        assert abs(est.mean - want) < 3 * est.stderr

    def test_factorization(self, engine_m2):
        # joint_estimate vs sum_i estimate_phi_i * E(g(b + R^i))
        model = engine_m2.model
        gain = GainFunction.identity()
        est = joint_estimate(model, simulate_paths(model, 0.0, 1.0, 400_000, seed=70), gain)
        phis = estimate_phi(model, 0.0, 1.0, 400_000, seed=71)
        overshoot = overshoot_expectation(model.inn.s_part, 1.0, gain)
        assembled = sum(phis[i].mean * overshoot[i] for i in range(2))
        band = 3.0 * math.sqrt(
            est.stderr ** 2 + sum((phis[i].stderr * overshoot[i]) ** 2 for i in range(2))
        )
        assert abs(est.mean - assembled) < band
