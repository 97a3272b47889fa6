"""Optimal stopping: continuous fit, threshold root, verification."""

import numpy as np
import pytest

from arphase import (
    ArphaseError,
    GainFunction,
    PassageProblem,
    ResidueSystem,
    continuous_fit_probe,
    estimate_joint,
    f_of_b,
    psi_of,
    solve_phi,
    solve_threshold_exp_identity,
    solve_threshold_general,
    verify_solution,
)
from arphase.passage import closed_form_exp
from arphase.stopping import StoppingSolution, maximize_psi

# Root of the scalar continuous-fit equation for mu=1, rho=lam=1/2,
# found by bracketed bisection on the series form and frozen here.
B_STAR_REF = 0.6962231671778065


class TestPsiOf:
    def test_constant_gain_is_laplace_tau(self, engine_m2):
        b, x = 1.0, 0.2
        got = psi_of(x, b, engine_m2, GainFunction.power(0))
        assert got == pytest.approx(
            solve_phi(PassageProblem(engine_m2, b, x)).total(), abs=1e-12
        )

    def test_exponential_identity_formula(self, engine_m1):
        x, b = 0.1, 0.8
        got = psi_of(x, b, engine_m1, GainFunction.identity())
        want = (b + 1.0) * closed_form_exp(x, b, 1.0, 0.5, 0.5)
        assert got == pytest.approx(want, abs=1e-11)

    def test_vanishes_for_distant_threshold(self, engine_m1):
        assert psi_of(0.0, 20.0, engine_m1, GainFunction.identity()) < 1e-3


class TestFOfB:
    def test_value_at_zero(self):
        assert f_of_b(0.0, 1.0, 0.5, 0.5) == 0.5 / 1.0

    def test_strictly_decreasing(self):
        vals = [f_of_b(b, 1.0, 0.5, 0.5) for b in (0.2, 0.4, 0.8)]
        assert vals[0] > vals[1] > vals[2]

    def test_linear_upper_bound_makes_bracket(self):
        mu, rho, lam = 1.0, 0.5, 0.5
        b_hi = rho / (mu * (1.0 - rho) * (1.0 - rho * lam)) + 0.1
        for b in np.linspace(0.0, b_hi, 20):
            assert f_of_b(b, mu, rho, lam) <= rho / mu - (1 - rho) * (
                1 - rho * lam
            ) * b + 1e-12
        assert f_of_b(b_hi, mu, rho, lam) < 0.0


class TestSolveThresholdExpIdentity:
    def test_reference_root(self):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        assert sol.b_star == pytest.approx(B_STAR_REF, abs=1e-9)
        assert abs(sol.b_star - 0.70) < 0.01
        assert abs(f_of_b(sol.b_star, 1.0, 0.5, 0.5)) <= 1e-12
        assert sol.fit_residual < 1e-9

    def test_value_function_shape(self):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        assert sol.value_at(sol.b_star + 0.2) == sol.b_star + 0.2
        below = sol.value_at(sol.b_star - 1e-9)
        assert below == pytest.approx(sol.b_star, abs=1e-6)

    def test_immediate_stopping_limit(self):
        sol = solve_threshold_exp_identity(1.0, 1e-3, 0.5)
        assert sol.b_star < 2e-3

    def test_bounded_maximizer_cross_check(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        b_max = maximize_psi(
            engine_m1, GainFunction.identity(), 0.0, 0.3, 1.2
        )
        assert abs(sol.b_star - b_max) < 1e-4


class TestSolveThresholdGeneral:
    def test_reproduces_exponential_case(self, engine_m1):
        sol = solve_threshold_general(
            engine_m1, GainFunction.identity(), 0.2, 2.0
        )
        assert abs(sol.b_star - B_STAR_REF) < 1e-6
        assert sol.methods_agree

    def test_hyperexponential_with_policy_oracle(self, engine_m2):
        gain = GainFunction.identity()
        sol = solve_threshold_general(engine_m2, gain, 0.2, 2.0)
        assert sol.methods_agree
        assert abs(sol.b_star - sol.maximizer_b) <= 1e-4
        # simulated policy value at b* is not beaten by nearby thresholds
        ref = estimate_joint(engine_m2.model, 0.0, sol.b_star, gain,
                             200_000, seed=5)
        for shift in (-0.05, 0.05):
            alt = estimate_joint(engine_m2.model, 0.0, sol.b_star + shift,
                                 gain, 200_000, seed=5)
            band = 3.0 * (ref.stderr ** 2 + alt.stderr ** 2) ** 0.5
            assert alt.mean <= ref.mean + band

    def test_window_without_root(self, engine_m1):
        with pytest.raises(ArphaseError):
            solve_threshold_general(
                engine_m1, GainFunction.identity(), 5.0, 6.0
            )


class TestVerifySolution:
    def test_reference_solution_verifies(self, engine_m1):
        gain = GainFunction.identity()
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        report = verify_solution(sol, engine_m1, gain)
        assert report.dominance_margin >= -1e-6
        assert report.supermartingale_margin >= -1e-6
        assert report.passed

    def test_wrong_threshold_fails(self, engine_m1):
        gain = GainFunction.identity()
        b_bad = B_STAR_REF + 0.3
        system = ResidueSystem(engine_m1, b_bad)

        def value_at(x):
            x = float(x)
            if x >= b_bad:
                return x
            return psi_of(x, b_bad, engine_m1, gain, system)

        bad = StoppingSolution(
            b_star=b_bad,
            value_at=value_at,
            fit_residual=1.0,
            gain=gain,
            method="manual",
        )
        report = verify_solution(bad, engine_m1, gain)
        assert not report.passed

    def test_value_dominates_gain_above_threshold(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        for x in np.linspace(sol.b_star, sol.b_star + 3.0, 25):
            assert sol.value_at(float(x)) == float(x)


class TestContinuousFit:
    def test_gaps_decrease_at_optimum(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        gaps = continuous_fit_probe(
            engine_m1, GainFunction.identity(), sol.b_star
        )
        assert gaps[0] > gaps[1] > gaps[2]

    def test_one_sided_limits_agree_m2(self, engine_m2):
        gain = GainFunction.identity()
        sol = solve_threshold_general(engine_m2, gain, 0.2, 2.0)
        b = sol.b_star
        # the two approximations differ by O(eps); at eps = 1e-8 the
        # shared limit is resolved to 1e-8
        eps = 1e-8
        below = ResidueSystem(engine_m2, b).solve(b - eps).phi_vec
        above = ResidueSystem(engine_m2, b + eps).solve(b).phi_vec
        assert np.abs(below - above).max() <= 1e-8

    def test_gap_persists_at_non_optimal_threshold(self, engine_m1):
        gaps = continuous_fit_probe(
            engine_m1, GainFunction.identity(), B_STAR_REF + 0.4
        )
        assert min(gaps) > 1e-3
