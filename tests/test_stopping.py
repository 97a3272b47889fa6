"""Optimal stopping: continuous fit, threshold root, verification."""

import numpy as np
import pytest
from mpref import f_of_b
from scipy import optimize

from arphase import (
    ArphaseError,
    GainFunction,
    ResidueSystem,
    joint_estimate,
    psi_of,
    simulate_paths,
    solve_threshold_exp_identity,
    solve_threshold_general,
    threshold_value,
    ValidationError,
    verify_solution,
)
from arphase import stopping
from arphase.passage import _qexp_series, closed_form_exp
from arphase.quadrature import innovation_expectation
from arphase.stopping import StoppingSolution, maximize_psi

# Root of the scalar continuous-fit equation for mu=1, rho=lam=1/2,
# found by bracketed bisection on the series form and frozen here.
B_STAR_REF = 0.6962231671778065


class TestPsiOf:
    def test_constant_gain_is_laplace_tau(self, engine_m2):
        b, x = 1.0, 0.2
        system = ResidueSystem(engine_m2, b)
        got = psi_of(x, system, GainFunction.power(0))
        assert got == pytest.approx(system.solve(x).total(), abs=1e-12)

    def test_exponential_identity_formula(self, engine_m1):
        x, b = 0.1, 0.8
        got = psi_of(x, ResidueSystem(engine_m1, b), GainFunction.identity())
        want = (b + 1.0) * closed_form_exp(x, b, 1.0, 0.5, 0.5)
        assert got == pytest.approx(want, abs=1e-11)

    def test_vanishes_for_distant_threshold(self, engine_m1):
        assert psi_of(0.0, ResidueSystem(engine_m1, 20.0), GainFunction.identity()) < 1e-3


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

    def test_equals_q_series_form(self):
        # f(b) = rho (b + 1/mu) Q(lam mu b) - b Q(mu b): the solver's fit gap
        # is f(b) / Q(mu b).  Relative to the larger of the two products,
        # which cancel near the root.
        for mu in (0.3, 1.0, 3.0, 10.0):
            for rho in (0.1, 0.5, 0.9):
                for lam in (0.1, 0.5, 0.9):
                    for b in (0.0, 0.05, 0.7, 2.0, 5.0):
                        keep = rho * (b + 1.0 / mu) * _qexp_series(lam * mu * b, rho, lam)
                        stop = b * _qexp_series(mu * b, rho, lam)
                        want = keep - stop
                        assert abs(f_of_b(b, mu, rho, lam) - want) <= 1e-12 * max(keep, stop)


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

    def test_root_of_the_series_on_a_grid(self):
        # brentq on f, with the solver's bracket and tolerances, is the
        # reference root; the solver's own root is that of f / Q(mu b).
        for mu in (0.3, 1.0, 3.0, 10.0):
            for rho in (0.1, 0.5, 0.8, 0.9, 0.95):
                for lam in (0.1, 0.5, 0.9, 0.97):
                    b_hi = rho / (mu * (1.0 - rho) * (1.0 - rho * lam)) + 0.1
                    ref = optimize.brentq(lambda b: f_of_b(b, mu, rho, lam), 0.0, b_hi,
                                          xtol=1e-15, rtol=8.9e-16)
                    sol = solve_threshold_exp_identity(mu, rho, lam)
                    assert abs(sol.b_star - ref) <= 1e-13 * ref, (mu, rho, lam)
                    assert sol.fit_residual <= 1e-14 * max(1.0, sol.b_star), (mu, rho, lam)

    @pytest.mark.parametrize("mu,rho,lam", [(1.0, 0.98, 0.98), (1.0, 0.99, 0.99), (0.3, 0.99, 0.99)])
    def test_bracket_capped_where_the_series_overflows(self, mu, rho, lam):
        # The analytic bracket end (1237, 4975 and 16583 here) puts Q(mu b_hi)
        # past the float range; capped at 700/mu it stays finite.
        b_hi = min(rho / (mu * (1.0 - rho) * (1.0 - rho * lam)) + 0.1, 700.0 / mu)
        ref = optimize.brentq(lambda b: f_of_b(b, mu, rho, lam), 0.0, b_hi,
                              xtol=1e-15, rtol=8.9e-16)
        sol = solve_threshold_exp_identity(mu, rho, lam)
        assert abs(sol.b_star - ref) <= 1e-13 * ref
        assert sol.fit_residual <= 1e-14 * max(1.0, sol.b_star)

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
        model = engine_m2.model
        ref = joint_estimate(model, simulate_paths(model, 0.0, sol.b_star, 200_000, seed=5), gain)
        for shift in (-0.05, 0.05):
            paths = simulate_paths(model, 0.0, sol.b_star + shift, 200_000, seed=5)
            alt = joint_estimate(model, paths, gain)
            band = 3.0 * (ref.stderr ** 2 + alt.stderr ** 2) ** 0.5
            assert alt.mean <= ref.mean + band

    def test_window_without_root(self, engine_m1):
        with pytest.raises(ArphaseError):
            solve_threshold_general(
                engine_m1, GainFunction.identity(), 5.0, 6.0
            )


class TestVerifySolution:
    def test_reference_solution_verifies(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        report = verify_solution(sol, engine_m1)
        assert report.dominance_margin >= -1e-6
        assert report.supermartingale_margin >= -1e-6
        assert report.passed

    def test_wrong_threshold_fails(self, engine_m1):
        gain = GainFunction.identity()
        b_bad = B_STAR_REF + 0.3
        system = ResidueSystem(engine_m1, b_bad)
        value_at = threshold_value(
            b_bad, gain, lambda x: psi_of(x, system, gain)
        )
        bad = StoppingSolution(
            b_star=b_bad,
            value_at=value_at,
            fit_residual=1.0,
            gain=gain,
            method="manual",
        )
        report = verify_solution(bad, engine_m1)
        assert not report.passed

    def test_solves_per_call_not_per_node(self, engine_m2, monkeypatch):
        # A per-node loop over the dominance grid or the quadrature nodes
        # made 4,445 solves here and one quadrature call per grid point 46;
        # the batched operator makes one per doubling level (4 here).
        gain = GainFunction.identity()
        sol = solve_threshold_general(engine_m2, gain, 0.3, 1.5)
        calls = []
        solve = ResidueSystem.solve

        def counted(system, x):
            calls.append(np.size(x))
            return solve(system, x)

        monkeypatch.setattr(ResidueSystem, "solve", counted)
        report = verify_solution(sol, engine_m2)
        assert report.passed
        assert len(calls) <= 8, len(calls)

    def test_one_quadrature_call(self, engine_m2, monkeypatch):
        # The supermartingale check is one batched operator over its grid,
        # not one adaptive quadrature per grid point (41 here).
        gain = GainFunction.identity()
        sol = solve_threshold_general(engine_m2, gain, 0.3, 1.5)
        shapes = []

        def counted(inn, func, **kwargs):
            shapes.append(np.shape(kwargs.get("at", 0.0)))
            return innovation_expectation(inn, func, **kwargs)

        monkeypatch.setattr(stopping, "innovation_expectation", counted)
        report = verify_solution(sol, engine_m2)
        assert report.passed
        assert shapes == [(41,)], shapes

    def test_value_dominates_gain_above_threshold(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        for x in np.linspace(sol.b_star, sol.b_star + 3.0, 25):
            assert sol.value_at(float(x)) == float(x)


class TestThresholdValue:
    def test_array_equals_scalar_calls(self, engine_m2):
        gain = GainFunction.call(0.5)
        b = 1.2
        system = ResidueSystem(engine_m2, b)
        value_at = threshold_value(b, gain, lambda x: psi_of(x, system, gain))
        xs = np.linspace(-2.0, 3.0, 21)   # both sides of b, and b itself
        xs[8] = b
        got = value_at(xs)
        assert got.shape == xs.shape
        assert np.array_equal(got, [value_at(x) for x in xs])
        assert np.array_equal(value_at(xs.reshape(3, 7)), got.reshape(3, 7))
        assert isinstance(value_at(0.3), float) and isinstance(value_at(2.0), float)
        with pytest.raises(ValidationError):   # NaN is not at or above b
            value_at(np.array([0.0, np.nan]))

    def test_below_sees_only_starts_under_b(self):
        seen = []
        value_at = threshold_value(1.0, GainFunction.identity(), lambda x: seen.append(x) or -x)
        assert np.array_equal(value_at(np.array([2.0, 0.5, 1.0, -1.0])), [2.0, -0.5, 1.0, 1.0])
        assert len(seen) == 1 and np.array_equal(seen[0], [0.5, -1.0])
        assert value_at(np.array([1.0, 3.0])).tolist() == [1.0, 3.0] and len(seen) == 1


def fit_gaps(engine, b):
    """|Psi_{b-eps}(b) - g(b)| for eps = 1e-2, 1e-3, 1e-4 and the identity gain."""
    psi = psi_of(b - np.array([1e-2, 1e-3, 1e-4]), ResidueSystem(engine, b), GainFunction.identity())
    return np.abs(psi - b)


class TestContinuousFit:
    def test_gaps_decrease_at_optimum(self, engine_m1):
        sol = solve_threshold_exp_identity(1.0, 0.5, 0.5)
        gaps = fit_gaps(engine_m1, sol.b_star)
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
        gaps = fit_gaps(engine_m1, B_STAR_REF + 0.4)
        assert min(gaps) > 1e-3
