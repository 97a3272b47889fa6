"""Crossing transform, closed forms, overshoot functionals, joint law."""

import warnings

import numpy as np
import pytest
from mpref import Reference, q_exp
from scipy.linalg import expm

from arphase import (
    AR1Model,
    GainFunction,
    Innovation,
    NegativePart,
    NumericalConsistencyError,
    ResidueSystem,
    TransformEngine,
    ValidationError,
    closed_form_exp,
    derivative_identity_check,
    overshoot_expectation,
    psi_of,
    validate,
)
from arphase.quadrature import innovation_expectation

# Reference value of E_0(rho^tau) for mu=1, rho=lam=1/2, b=1, computed
# by direct summation of the q-exponential series ratio.
REF_M1_X0_B1 = 0.2844203352461466


class TestResidueSystem:
    def test_m1_reduces_to_closed_form(self, engine_m1):
        xs = np.linspace(-3.0, 0.99, 13)
        ct = ResidueSystem(engine_m1, 1.0).solve(xs)
        want = closed_form_exp(xs, 1.0, 1.0, 0.5, 0.5)
        assert ct.error_bound <= 1e-11
        assert np.all(np.abs(ct.total() - want) <= ct.error_bound)

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

    def test_overflowing_residues_raise_numerical_error(self, engine_m2):
        # b = 300 still solves; from about b = 500 e^{b a_n} overflows.
        assert ResidueSystem(engine_m2, 300.0).solve(0.0).total() > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalConsistencyError, match=r"residues at b=500\.0 are not"):
                ResidueSystem(engine_m2, 500.0)
            with pytest.raises(NumericalConsistencyError, match=r"b=600\.0"):
                ResidueSystem(engine_m2, [1.0, 600.0, 700.0])

    @pytest.mark.parametrize("b, shown", [
        (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), ([1.0, np.nan, np.inf], "nan"),
    ])
    def test_non_finite_threshold_rejected(self, engine_m2, b, shown):
        # Without the check these reach the tail series' block sizing and
        # raise a bare ValueError from int() or math.log.
        with pytest.raises(ValidationError, match=f"^threshold b={shown} must be finite$"):
            ResidueSystem(engine_m2, b)

    @pytest.mark.parametrize("b, shown", [(-0.5, "-0.5"), ([1.0, -1e-12, -2.0], "-1e-12")])
    def test_negative_threshold_rejected(self, engine_m2, b, shown):
        with pytest.raises(ValidationError, match=f"^threshold b={shown} is outside the domain b >= 0"):
            ResidueSystem(engine_m2, b)

    def test_zero_threshold_admitted(self, engine_m1):
        ct = ResidueSystem(engine_m1, [0.0, -0.0]).solve([[-2.0], [-0.5]])
        want = closed_form_exp([-2.0, -0.5], 0.0, 1.0, 0.5, 0.5)
        assert np.all(np.abs(ct.total()[:, 0] - want) <= ct.error_bound)


class TestSolvePhi:
    def test_m1_against_q_series(self, engine_m1):
        got = ResidueSystem(engine_m1, 1.0).solve(0.0).total()
        assert abs(got - REF_M1_X0_B1) < 1e-10
        assert abs(got - closed_form_exp(0.0, 1.0, 1.0, 0.5, 0.5)) < 1e-10

    def test_continuity_near_threshold(self, engine_m1_expT):
        system = ResidueSystem(engine_m1_expT, 1.0)
        v1, v2 = system.solve(np.array([1.0 - 1e-6, 1.0 - 2e-6])).total()
        assert abs(v1 - v2) < 1e-5

    def test_exponential_t_against_monte_carlo(self, engine_m1_expT):
        from arphase import estimate_phi

        got = ResidueSystem(engine_m1_expT, 1.0).solve(0.0).total()
        est = estimate_phi(engine_m1_expT.model, 0.0, 1.0, 1_000_000, seed=51)[0]
        assert abs(got - est.mean) < 3 * est.stderr

    def test_start_above_threshold_rejected(self, engine_m1):
        system = ResidueSystem(engine_m1, 1.0)
        with pytest.raises(ValidationError):
            system.solve(1.0)
        with pytest.raises(ValidationError):
            system.solve(1.2)

    @pytest.mark.parametrize("x", [-np.inf, [0.0, -np.inf, 0.5]])
    def test_minus_infinite_start_rejected(self, engine_m2, x):
        # -inf lies below b; unchecked it reached the tail series' block
        # sizing and raised ValueError: math domain error.
        with pytest.raises(ValidationError, match="^start x=-inf must be finite$"):
            ResidueSystem(engine_m2, 1.0).solve(x)

    def test_invariants_on_grid(self, engine_m2):
        rho = engine_m2.model.rho
        system = ResidueSystem(engine_m2, 1.0)
        for x in np.linspace(-0.5, 0.95, 12):
            ct = system.solve(float(x))
            assert np.all(ct.phi_vec >= 0.0)
            assert np.all(ct.phi_vec <= rho + 1e-12)
            assert ct.total() <= rho + 1e-9


class TestFirstStepBound:
    """Phi_i(x) >= rho (alpha e^{Q(b - lam x)})_i for T = 0: the process
    crosses at the first step when S >= b - lam x, and then in the phase
    the chain of S occupies at time b - lam x (ROADMAP item 1)."""

    @staticmethod
    def check(dist, lam, rho, x, b=1.0, rel=None):
        """Absolute slack 1e-9 by default; rel checks got >= bound (1 - rel),
        which the absolute slack cannot do for bounds far below 1e-9."""
        engine = TransformEngine(AR1Model(lam, rho, Innovation(dist, NegativePart.zero())))
        got = ResidueSystem(engine, b).solve(x).phi_vec
        bound = rho * dist.alpha @ expm(dist.Q * (b - lam * x))
        slack = 1e-9 if rel is None else rel * bound
        assert np.all(got >= bound - slack), (got, bound)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: tail series stops early")
    def test_lam_rho_099_at_zero(self, dist_hyper2):
        self.check(dist_hyper2, 0.99, 0.99, 0.0)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: tail series stops early")
    def test_lam_095_rho_05_far_left(self, dist_hyper2):
        self.check(dist_hyper2, 0.95, 0.5, -10.0)

    def test_lam_rho_090_at_zero(self, dist_hyper2):
        self.check(dist_hyper2, 0.9, 0.9, 0.0)

    # Phi = 7.69e-15 with error_bound 1e-12, against the bound 1.72e-14 and
    # the q-series value 0.0133: the tail series exits early at lam = 0.5 too.
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_m1_lam_rho_05_far_left_relative(self, dist_exp1):
        self.check(dist_exp1, 0.5, 0.5, -60.0, rel=1e-6)


class TestLaplaceTau:
    def test_bounded_by_rho(self, engine_m2):
        assert ResidueSystem(engine_m2, 1.0).solve(0.0).total() <= 0.5

    def test_monotone_in_x_and_b(self, engine_m2):
        system = ResidueSystem(engine_m2, 1.0)
        vals = [system.solve(float(x)).total() for x in np.linspace(0.0, 0.9, 10)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        by_b = [
            ResidueSystem(engine_m2, b).solve(0.0).total()
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

    def test_agrees_with_reference(self, engine_m1):
        ref = Reference(engine_m1.model.inn)
        for b in (0.9, 1.0, 1.2, 2.5):
            xs = np.linspace(-3.0, b, 9, endpoint=False)
            want = ref.crossing(0.5, 0.5, b, xs)[:, 0]
            assert np.all(np.abs(closed_form_exp(xs, b, 1.0, 0.5, 0.5) - want) < 1e-13)

    def test_overflowing_series_fails_fast(self):
        # A non-finite total used to run to the 100,000-term cap (about 2 s).
        with pytest.raises(NumericalConsistencyError, match="q-exponential"):
            closed_form_exp(0.0, 3000.0, 1.0, 0.5, 0.5)

    @pytest.mark.parametrize("rho,lam", [(0.5, 0.5), (0.9, 0.9), (0.3, 0.95), (0.9, 0.999)])
    def test_far_left_matches_direct_summation(self, rho, lam):
        # The power series alternates for x < 0: summed in floats it gave
        # -0.0071 at x = -80 (rho = lam = 1/2), where the value is 0.0100,
        # and overflowed at x = -3000.
        xs = np.array([-300.0, -80.0, -40.0, -15.0, -2.0, -0.1, 0.5])
        want = [rho * q_exp(x * lam, rho, lam) / q_exp(1.0, rho, lam) for x in xs]
        got = closed_form_exp(xs, 1.0, 1.0, rho, lam)
        assert np.all(np.abs(got / want - 1.0) < 1e-14)
        far = closed_form_exp(-3000.0, 1.0, 1.0, rho, lam)
        assert 0.0 < far < got[0]
        with pytest.raises(ValidationError):
            closed_form_exp(-np.inf, 1.0, 1.0, rho, lam)
        if (rho, lam) == (0.5, 0.5):
            assert got[1] == pytest.approx(0.0100059668741962, rel=1e-14)

    def test_requires_x_below_b(self):
        with pytest.raises(ValidationError):
            closed_form_exp(1.0, 1.0, 1.0, 0.5, 0.5)

    def test_requires_nonnegative_b(self):
        with pytest.raises(ValidationError, match="^threshold b=-0.5 is outside the domain b >= 0"):
            closed_form_exp(-3.0, -0.5, 1.0, 0.5, 0.5)


def per_phase_quadrature(dist, func, kinks=()):
    """E(func(R^i)) for R^i ~ PH(Q, e_i), every phase i, by the one-step
    operator at tol 1e-10 on Innovation(PH(Q, e_i), 0): a route apart from
    the closed forms and from ph_expectation."""
    return np.array([
        innovation_expectation(Innovation(validate(dist.Q, e), NegativePart.zero()), func,
                               breakpoints=kinks, tol=1e-10)
        for e in np.eye(dist.m)
    ])


class TestOvershootExpectation:
    def test_constant_gain_normalizes(self, dist_hyper2):
        got = overshoot_expectation(dist_hyper2, 1.0, GainFunction.power(0))
        assert np.allclose(got, [1.0, 1.0], rtol=0.0, atol=1e-12)

    def test_identity_single_phase(self, dist_exp1):
        got = overshoot_expectation(dist_exp1, 2.0, GainFunction.identity())
        assert got.shape == (1,) and got[0] == pytest.approx(2.0 + 1.0, abs=1e-12)

    def test_call_at_the_money(self, dist_exp1):
        got = overshoot_expectation(dist_exp1, 1.0, GainFunction.call(1.0))
        assert got[0] == pytest.approx(1.0, abs=1e-10)

    def test_call_above_threshold_vs_quadrature(self, dist_hyper2):
        b, K = 1.0, 1.7
        direct = per_phase_quadrature(dist_hyper2, lambda s: np.maximum(b + s - K, 0.0), [K - b])
        got = overshoot_expectation(dist_hyper2, b, GainFunction.call(K))
        assert np.abs(got - direct).max() < 1e-8

    def test_power_vs_quadrature(self, dist_hyper2):
        b = 0.8
        for n in (1, 2, 3):
            direct = per_phase_quadrature(dist_hyper2, lambda s: (b + s) ** n)
            got = overshoot_expectation(dist_hyper2, b, GainFunction.power(n))
            assert np.abs(got - direct).max() < 1e-8

    def test_custom_gain_quadrature_path(self, dist_exp1):
        gain = GainFunction.custom(lambda x: np.log1p(np.asarray(x)))
        got = overshoot_expectation(dist_exp1, 1.0, gain)
        direct = per_phase_quadrature(dist_exp1, lambda s: np.log1p(1.0 + s))
        assert np.abs(got - direct).max() < 1e-9

    @pytest.mark.parametrize("model", ["m2", "m6"])
    @pytest.mark.parametrize("gain,kinks", [
        (GainFunction.identity(), ()),
        (GainFunction.power(2), ()),
        (GainFunction.call(0.6), ()),       # K < b: linear in the overshoot
        (GainFunction.call(1.7), [0.7]),    # K > b: kink at R = K - b
        (GainFunction.custom(lambda x: np.log1p(np.asarray(x))), ()),
    ], ids=["identity", "power2", "call-below", "call-above", "custom"])
    def test_phase_vector_vs_quadrature(self, dist_hyper2, engine_m6, model, gain, kinks):
        dist = dist_hyper2 if model == "m2" else engine_m6.model.inn.s_part
        b = 1.0
        got = overshoot_expectation(dist, b, gain)
        assert got.shape == (dist.m,)
        direct = per_phase_quadrature(dist, lambda s: gain(b + s), kinks)
        assert np.abs(got - direct).max() < 1e-8, got - direct


    @pytest.mark.parametrize("gain", [
        GainFunction.identity(), GainFunction.power(3), GainFunction.call(1.0),
        GainFunction.custom(lambda y: np.sqrt(np.abs(y))),
    ], ids=["identity", "power3", "call-inside", "custom"])
    def test_threshold_array_equals_scalar_calls(self, dist_hyper2, gain):
        bs = np.linspace(0.4, 1.6, 7).reshape(7, 1)
        got = overshoot_expectation(dist_hyper2, bs, gain)
        assert got.shape == (7, 1, 2)
        for k, b in enumerate(bs[:, 0]):
            assert np.array_equal(got[k, 0], overshoot_expectation(dist_hyper2, float(b), gain))


class TestJointFunctional:
    def test_constant_gain_equals_laplace_tau(self, engine_m2):
        system = ResidueSystem(engine_m2, 1.0)
        got = psi_of(0.0, system, GainFunction.power(0))
        want = system.solve(0.0).total()
        assert got == pytest.approx(want, abs=1e-12)

    def test_identity_gain_exponential_factorizes(self, engine_m1):
        system = ResidueSystem(engine_m1, 1.0)
        got = psi_of(0.2, system, GainFunction.identity())
        want = system.solve(0.2).total() * (1.0 + 1.0 / 1.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_m2_against_monte_carlo(self, engine_m2):
        from arphase import joint_estimate, simulate_paths

        got = psi_of(0.0, ResidueSystem(engine_m2, 1.0), GainFunction.identity())
        paths = simulate_paths(engine_m2.model, 0.0, 1.0, 200_000, seed=77)
        est = joint_estimate(engine_m2.model, paths, GainFunction.identity())
        assert abs(got - est.mean) < 3 * est.stderr


class TestDerivativeIdentity:
    @pytest.mark.parametrize("x,b", [(0.0, 1.0), (0.0, 0.5)])
    def test_residual_small(self, x, b):
        assert derivative_identity_check(x, b, 1.0, 0.5, 0.5) < 1e-5


class TestArrayPath:
    """x of any shape gives results of that shape, row for row equal to the
    scalar calls; 0-d input gives a scalar."""

    @pytest.mark.parametrize("model", ["m2", "m6"])
    def test_batched_solve_equals_rowwise(self, engine_m2, engine_m6, model):
        engine = engine_m2 if model == "m2" else engine_m6
        b = 1.0
        system = ResidueSystem(engine, b)
        # The rows close their geometric tails at different n (for m6: after
        # 73 terms at x = -10 and 81 terms at x = 0.99).
        xs = np.linspace(-10.0, b - 0.01, 23)
        ct = system.solve(xs)
        assert ct.phi_vec.shape == (xs.size, engine.m)
        for k, x in enumerate(xs):
            row = system.solve(x)
            assert np.array_equal(ct.phi_vec[k], row.phi_vec)
            assert ct.total()[k] == row.total()
        grid = system.solve(xs.reshape(-1, 1))
        assert np.array_equal(grid.phi_vec[:, 0], ct.phi_vec)

    @pytest.mark.parametrize("model", ["m2", "m6", "chain_point"])
    def test_threshold_array_equals_stacked_scalar_systems(self, request, model):
        engine = request.getfixturevalue(f"engine_{model}")
        grid = np.linspace(0.3, 1.5, 41)
        system = ResidueSystem(engine, grid)
        assert system.a.shape == (41, engine.m, engine.m)
        xs = grid[:, None] - [2.0, 0.4, 1e-7]
        ct = system.solve(xs)
        assert ct.phi_vec.shape == (41, 3, engine.m) and ct.error_bound.shape == (41,)
        for k, b in enumerate(grid):
            one = ResidueSystem(engine, b)
            row = one.solve(xs[k])
            assert np.array_equal(ct.phi_vec[k], row.phi_vec)
            assert ct.error_bound[k] == row.error_bound
        assert system.cond == max(ResidueSystem(engine, b).cond for b in grid)

    def test_threshold_array_checks_each_start_against_its_own_b(self, engine_m2):
        system = ResidueSystem(engine_m2, np.array([1.0, 2.0]))
        system.solve(np.array([[0.5, 0.99], [1.5, 1.99]]))
        with pytest.raises(ValidationError, match="start x=1.5 must lie strictly below b=1.0"):
            system.solve(np.array([[0.5, 1.5], [1.5, 2.5]]))
        with pytest.raises(ValueError):   # starts without b's shape in front
            system.solve(np.array([0.5, 0.6, 0.7]))

    def test_imaginary_parts_judged_per_threshold(self, engine_m2):
        # On the scale 1e3 of the whole batch the first b's imaginary part
        # would pass, and the second b's sum would raise; on its own scale 1
        # the first b is rejected, as in its scalar build.
        system = ResidueSystem(engine_m2, np.array([1.0, 2.0]))
        system.system = np.broadcast_to(np.eye(2), (2, 2, 2))
        system.c = lambda x: np.array([[0.2, 0.1 + 1e-8j], [1e3, 0.0]])
        with pytest.raises(NumericalConsistencyError, match="imaginary part 1.000e-08"):
            system.solve(np.array([0.0, 0.0]))

    @pytest.mark.parametrize("c", [
        [[0.2, -1e-3], [0.2, 0.1 + 1.0j]],   # a negative weight, then an imaginary part
        [[0.2, 0.1], [0.6, 0.6]],            # a good threshold, then a sum past rho
        [[0.6, 0.6], [-1.0, 0.0]],           # a sum past rho, then a negative weight
    ])
    def test_batch_raises_the_first_failing_thresholds_error(self, engine_m2, c):
        def error(system, x):
            try:
                system.solve(x)
            except NumericalConsistencyError as exc:
                return str(exc)

        def rigged(b, c):
            system = ResidueSystem(engine_m2, b)
            system.system = np.broadcast_to(np.eye(2), np.shape(c)[:-1] + (2, 2))
            system.c = lambda x: np.array(c)
            return system

        want = next(filter(None, (error(rigged(b, row), 0.0) for b, row in zip((1.0, 2.0), c))))
        assert error(rigged(np.array([1.0, 2.0]), c), np.zeros(2)) == want

    @pytest.mark.parametrize("bad", [np.nan, 1.0, 1.5])
    def test_solve_rejects_any_bad_start(self, engine_m2, bad):
        system = ResidueSystem(engine_m2, 1.0)
        with pytest.raises(ValidationError, match=f"start x={bad} must lie strictly below b=1.0"):
            system.solve(np.array([0.0, bad, 0.5]))

    def test_scalar_in_scalar_out(self, engine_m2):
        ct = ResidueSystem(engine_m2, 1.0).solve(0.2)
        assert ct.phi_vec.shape == (2,)
        assert np.ndim(ct.total()) == 0 and isinstance(ct.total(), float)
        assert isinstance(psi_of(0.2, ResidueSystem(engine_m2, 1.0), GainFunction.identity()), float)
        assert isinstance(engine_m2.h_func(0.2, 0.1, 1.0), complex)
        assert engine_m2.f_gamma(0.2).shape == (2, 2)
        assert isinstance(closed_form_exp(0.2, 1.0, 1.0, 0.5, 0.5), float)

    def test_psi_of_equals_scalar_calls(self, engine_m2):
        gain = GainFunction.call(0.8)
        system = ResidueSystem(engine_m2, 1.0)
        xs = np.linspace(-3.0, 0.99, 9)
        got = psi_of(xs, system, gain)
        want = [psi_of(x, system, gain) for x in xs]
        assert np.array_equal(got, want)

    def test_f_gamma_and_h_func_equal_scalar_calls(self, engine_m2):
        xs = np.linspace(-2.0, 1.6, 10)   # straddles b = 1 for h's indicator
        F = engine_m2.f_gamma(xs)
        F_half, _ = engine_m2.f_series_scalars(xs, 0.5)
        assert F.shape == (xs.size, 2, 2) and F_half.shape == (xs.size, 2)
        for k, x in enumerate(xs):
            assert np.array_equal(F[k], engine_m2.f_gamma(x))
            assert np.array_equal(F_half[k], engine_m2.f_series_scalars(x, 0.5)[0])
        for gamma in (1.0, 0.5):
            h = engine_m2.h_func(xs, 0.1, 1.0, gamma)
            assert h.shape == xs.shape
            for k, x in enumerate(xs):
                assert h[k] == engine_m2.h_func(x, 0.1, 1.0, gamma)

    def test_closed_form_exp_equals_scalar_calls(self):
        xs = np.linspace(-5.0, 0.99, 12)
        got = closed_form_exp(xs, 1.0, 1.0, 0.5, 0.5)
        assert np.array_equal(got, [closed_form_exp(x, 1.0, 1.0, 0.5, 0.5) for x in xs])
        with pytest.raises(ValidationError):
            closed_form_exp(np.array([0.0, np.nan]), 1.0, 1.0, 0.5, 0.5)
