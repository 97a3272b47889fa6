"""Crossing transform, closed forms, overshoot functionals, joint law."""

import math

import numpy as np
import pytest

from arphase import (
    GainFunction,
    PassageProblem,
    ResidueSystem,
    ValidationError,
    closed_form_exp,
    closed_form_exp_general,
    derivative_identity_check,
    joint_functional,
    overshoot_expectation,
    solve_phi,
)
from arphase.quadrature import ph_expectation

# Reference value of E_0(rho^tau) for mu=1, rho=lam=1/2, b=1, computed
# by direct summation of the q-exponential series ratio.
REF_M1_X0_B1 = 0.2844203352461466


class TestResidueSystem:
    def test_m1_reduces_to_closed_form(self, engine_m1):
        system = ResidueSystem(engine_m1, 1.0)
        for x in (0.0, 0.3, 0.7):
            got = system.solve(x).total()
            want = closed_form_exp_general(x, 1.0, engine_m1)
            assert abs(got - want) < 1e-11

    def test_partial_fraction_reconstruction_eta(self, engine_m2):
        b = 1.0
        system = ResidueSystem(engine_m2, b)
        rng = np.random.default_rng(31)
        for _ in range(5):
            delta = complex(rng.uniform(0.05, 0.8), rng.uniform(-0.3, 0.3))
            for i in range(2):
                rebuilt = sum(
                    system.a[i, j] / (engine_m2.mu[j] - delta)
                    for j in range(2)
                )
                direct = engine_m2.eta(delta, i, b) * np.exp(-delta * b)
                assert abs(rebuilt - direct) < 1e-9

    def test_partial_fraction_reconstruction_h(self, engine_m2):
        b, x = 1.0, 0.2
        system = ResidueSystem(engine_m2, b)
        c = system.c(x)
        rng = np.random.default_rng(32)
        for _ in range(5):
            delta = complex(rng.uniform(0.05, 0.8), rng.uniform(-0.3, 0.3))
            rebuilt = sum(c[j] / (engine_m2.mu[j] - delta) for j in range(2))
            direct = engine_m2.h_func(x, delta, b) * np.exp(-delta * b)
            assert abs(rebuilt - direct) < 1e-9

    def test_condition_number_reported(self, engine_m2):
        system = ResidueSystem(engine_m2, 1.0)
        assert np.isfinite(system.cond) and system.cond >= 1.0


class TestSolvePhi:
    def test_m1_against_q_series(self, engine_m1):
        problem = PassageProblem(engine_m1, 1.0, 0.0)
        got = solve_phi(problem).total()
        assert abs(got - REF_M1_X0_B1) < 1e-10
        assert abs(got - closed_form_exp(0.0, 1.0, 1.0, 0.5, 0.5)) < 1e-10

    def test_start_above_threshold_rejected(self, engine_m1):
        with pytest.raises(ValidationError):
            PassageProblem(engine_m1, 1.0, 1.0)
        system = ResidueSystem(engine_m1, 1.0)
        with pytest.raises(ValidationError):
            system.solve(1.2)

    def test_invariants_on_grid(self, engine_m2):
        rho = engine_m2.model.rho
        system = ResidueSystem(engine_m2, 1.0)
        for x in np.linspace(-0.5, 0.95, 12):
            ct = system.solve(float(x))
            assert np.all(ct.phi_vec >= 0.0)
            assert np.all(ct.phi_vec <= rho + 1e-12)
            assert ct.total() <= rho + 1e-9


class TestLaplaceTau:
    def test_bounded_by_rho(self, engine_m2):
        assert solve_phi(PassageProblem(engine_m2, 1.0, 0.0)).total() <= 0.5

    def test_monotone_in_x_and_b(self, engine_m2):
        system = ResidueSystem(engine_m2, 1.0)
        vals = [system.solve(float(x)).total() for x in np.linspace(0.0, 0.9, 10)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        by_b = [
            solve_phi(PassageProblem(engine_m2, b, 0.0)).total()
            for b in (0.8, 1.0, 1.5, 2.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(by_b, by_b[1:]))


class TestClosedFormExp:
    def test_x_zero_numerator_is_rho(self):
        mu, rho, lam, b = 1.0, 0.5, 0.5, 1.0
        denom_series = 0.0
        poch, term = 1.0, 1.0
        for k in range(200):
            denom_series += poch * term
            poch *= 1.0 - rho * lam ** k
            term *= mu * b / (k + 1)
        assert closed_form_exp(0.0, b, mu, rho, lam) == pytest.approx(
            rho / denom_series, abs=1e-13
        )

    def test_reference_value(self):
        assert closed_form_exp(0.0, 1.0, 1.0, 0.5, 0.5) == pytest.approx(
            REF_M1_X0_B1, abs=1e-12
        )

    def test_agrees_with_general_form(self, engine_m1):
        for x, b in ((0.0, 1.0), (0.3, 1.2), (0.6, 0.9)):
            a = closed_form_exp(x, b, 1.0, 0.5, 0.5)
            g = closed_form_exp_general(x, b, engine_m1)
            assert abs(a - g) < 1e-11

    def test_requires_x_below_b(self):
        with pytest.raises(ValidationError):
            closed_form_exp(1.0, 1.0, 1.0, 0.5, 0.5)


class TestClosedFormExpGeneral:
    def test_continuity_near_threshold(self, engine_m1_expT):
        b = 1.0
        v1 = closed_form_exp_general(b - 1e-6, b, engine_m1_expT)
        v2 = closed_form_exp_general(b - 2e-6, b, engine_m1_expT)
        assert abs(v1 - v2) < 1e-5

    def test_exponential_t_against_monte_carlo(self, engine_m1_expT):
        from arphase import estimate_phi

        got = closed_form_exp_general(0.0, 1.0, engine_m1_expT)
        est = estimate_phi(engine_m1_expT.model, 0.0, 1.0, 1_000_000, seed=51)[0]
        assert abs(got - est.mean) < 3 * est.stderr

    def test_rejects_multiphase(self, engine_m2):
        with pytest.raises(ValidationError):
            closed_form_exp_general(0.0, 1.0, engine_m2)


class TestOvershootExpectation:
    def test_constant_gain_normalizes(self, dist_hyper2):
        got = overshoot_expectation(dist_hyper2, 0, 1.0, GainFunction.power(0))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_identity_single_phase(self, dist_exp1):
        got = overshoot_expectation(dist_exp1, 0, 2.0, GainFunction.identity())
        assert got == pytest.approx(2.0 + 1.0, abs=1e-12)

    def test_call_at_the_money(self, dist_exp1):
        got = overshoot_expectation(dist_exp1, 0, 1.0, GainFunction.call(1.0))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_call_above_threshold_vs_quadrature(self, dist_hyper2):
        b, K = 1.0, 1.7
        for i in range(2):
            e_i = np.zeros(2)
            e_i[i] = 1.0
            direct = ph_expectation(
                dist_hyper2,
                lambda s: np.maximum(b + s - K, 0.0),
                init=e_i,
                breakpoints=[K - b],
                tol=1e-10,
            )
            got = overshoot_expectation(dist_hyper2, i, b, GainFunction.call(K))
            assert abs(got - direct) < 1e-8

    def test_power_vs_quadrature(self, dist_hyper2):
        b = 0.8
        for n in (1, 2, 3):
            direct = ph_expectation(
                dist_hyper2, lambda s: (b + s) ** n, tol=1e-10
            )
            got = overshoot_expectation(dist_hyper2, 0, b, GainFunction.power(n))
            e_0 = np.zeros(2)
            e_0[0] = 1.0
            direct0 = ph_expectation(
                dist_hyper2, lambda s: (b + s) ** n, init=e_0, tol=1e-10
            )
            assert abs(got - direct0) < 1e-8

    def test_custom_gain_quadrature_path(self, dist_exp1):
        gain = GainFunction.custom(lambda x: np.log1p(np.asarray(x)))
        got = overshoot_expectation(dist_exp1, 0, 1.0, gain)
        direct = ph_expectation(dist_exp1, lambda s: np.log1p(1.0 + s), tol=1e-10)
        assert abs(got - direct) < 1e-9


class TestJointFunctional:
    def test_constant_gain_equals_laplace_tau(self, engine_m2):
        problem = PassageProblem(engine_m2, 1.0, 0.0)
        got = joint_functional(problem, GainFunction.power(0))
        assert got == pytest.approx(solve_phi(problem).total(), abs=1e-12)

    def test_identity_gain_exponential_factorizes(self, engine_m1):
        problem = PassageProblem(engine_m1, 1.0, 0.2)
        got = joint_functional(problem, GainFunction.identity())
        want = solve_phi(problem).total() * (1.0 + 1.0 / 1.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_m2_against_monte_carlo(self, engine_m2):
        from arphase import estimate_joint

        problem = PassageProblem(engine_m2, 1.0, 0.0)
        got = joint_functional(problem, GainFunction.identity())
        est = estimate_joint(
            engine_m2.model, 0.0, 1.0, GainFunction.identity(), 200_000, seed=77
        )
        assert abs(got - est.mean) < 3 * est.stderr


class TestDerivativeIdentity:
    @pytest.mark.parametrize("x,b", [(0.0, 1.0), (0.0, 0.5)])
    def test_residual_small(self, x, b):
        assert derivative_identity_check(x, b, 1.0, 0.5, 0.5) < 1e-5

    def test_second_order_step_scaling(self):
        r1 = derivative_identity_check(0.0, 1.0, 1.0, 0.5, 0.5, step=2e-3)
        r2 = derivative_identity_check(0.0, 1.0, 1.0, 0.5, 0.5, step=1e-3)
        assert r2 < r1 / 3.0  # quartering up to rounding noise
