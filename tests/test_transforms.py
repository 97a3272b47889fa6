"""Analytic transform engine: phi, f_gamma, alpha_delta, h, psi^i, eta."""

import math

import numpy as np
import pytest

from arphase import (
    AR1Model,
    BranchError,
    Innovation,
    NegativePart,
    PoleError,
    ResidueSystem,
    TransformEngine,
    ValidationError,
    euler_phi,
    validate,
)
from arphase.quadrature import innovation_expectation


class TestAR1Model:
    def test_parameter_ranges(self, dist_exp1):
        inn = Innovation(dist_exp1, NegativePart.zero())
        for lam, rho in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(ValidationError):
                AR1Model(lam, rho, inn)

    def test_valid_model(self, engine_m2):
        assert engine_m2.model.m == 2


class TestPhi:
    def test_zero(self, engine_m2):
        assert engine_m2.phi(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_euler_function_value(self, engine_m1):
        # exp(phi(lam * mu)) = 1 / (lam; lam)_inf for the mu=1 case
        lam = engine_m1.model.lam
        got = engine_m1.exp_phi(lam * 1.0)
        assert complex(got).real == pytest.approx(1.0 / euler_phi(lam), abs=1e-11)
        assert abs(complex(got).real - 3.4627) < 5e-4

    def test_fixed_point_identity_reference(self, engine_m2):
        u = 0.4
        lam = engine_m2.model.lam
        resid = abs(
            engine_m2.phi(u) - engine_m2.phi(lam * u) - engine_m2.psi(u)
        )
        assert resid < 1e-11

    def test_fixed_point_identity_random(self, engine_m2):
        lam = engine_m2.model.lam
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = float(rng.uniform(0.01, 0.9))
            resid = abs(
                engine_m2.phi(u) - engine_m2.phi(lam * u) - engine_m2.psi(u)
            )
            assert resid < 1e-10

    def test_pole_rejected(self, engine_m2):
        with pytest.raises(PoleError):
            engine_m2.phi(1.0)  # mu_1 = 1 is in the pole set

    def test_exp_phi_matches_phi(self, engine_m1_expT):
        for u in (0.2, 0.45, 0.7):
            lhs = engine_m1_expT.exp_phi(u)
            rhs = np.exp(engine_m1_expT.phi(u))
            assert abs(lhs - rhs) < 1e-12


# The 6-phase Coxian of the benchmark: rates below, continuation 0.7.
_COX_RATES = [1.0, 1.4, 1.9, 2.6, 3.3, 4.1]
_COX_Q = [
    [(-r if j == i else (0.7 * r if j == i + 1 else 0.0)) for j in range(6)]
    for i, r in enumerate(_COX_RATES)
]
_T_PARTS = {
    "zero": NegativePart.zero(),
    "point": NegativePart.point_mass(0.3),
    "exp": NegativePart.exponential(2.0),
    "gamma": NegativePart.gamma_int(2, 3.0),
}


class TestExpPhiChain:
    @pytest.mark.parametrize("lam, limit", [(0.5, 200), (0.9, 1200)])
    def test_cold_system_exp_psi_work(self, dist_hyper2, monkeypatch, lam, limit):
        # Rebuilding each chain value as a fresh product cost 1,763 (lam 0.5)
        # and 81,525 (lam 0.9) evaluations here; one chain fill costs O(K).
        evaluated = []
        exp_psi = TransformEngine.exp_psi

        def counted(engine, u):
            evaluated.append(np.size(u))
            return exp_psi(engine, u)

        monkeypatch.setattr(TransformEngine, "exp_psi", counted)
        engine = TransformEngine(AR1Model(lam, lam, Innovation(dist_hyper2, NegativePart.zero())))
        ResidueSystem(engine, 1.0).solve(np.linspace(-2.0, 0.9, 30))
        assert sum(evaluated) < limit, sum(evaluated)

    @pytest.mark.parametrize("t", sorted(_T_PARTS))
    @pytest.mark.parametrize("model", ["m2", "m6"])
    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_chain_fill_matches_log_series(self, dist_hyper2, model, t, gamma):
        if model == "m2":
            dist, lam, rho = dist_hyper2, 0.5, 0.5
        else:
            dist, lam, rho = validate(_COX_Q, [1.0, 0, 0, 0, 0, 0]), 0.6, 0.7
        ar1 = AR1Model(lam, rho, Innovation(dist, _T_PARTS[t]))
        TransformEngine(ar1).check_gamma(gamma)
        compared = 0
        for start in lam * gamma * TransformEngine(ar1).mu:
            engine = TransformEngine(ar1)
            engine.exp_phi(start)
            stored = dict(engine._exp_phi_values)
            assert start in stored
            for a, value in stored.items():
                rec = engine.exp_psi(a) * engine.exp_phi(a * lam)
                assert abs(value - rec) <= 1e-12 * abs(value), (a, value, rec)
                try:
                    ref = np.exp(engine.phi(a))
                except BranchError:
                    continue  # a negative-real factor: phi has no principal log
                # The 1e-12 of TestPhi::test_exp_phi_matches_phi, relative
                # past 1 because the m6 values reach 6.5e5.
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (a, value, ref)
                compared += 1
        assert compared > 0


class TestFGamma:
    def test_scalar_series_reimplementation(self, engine_m1):
        lam, rho = engine_m1.model.lam, engine_m1.model.rho
        mu = 1.0
        for x in (0.0, 0.4, 0.9):
            direct = 0.0
            for n in range(1, 200):
                arg = lam ** n * mu
                direct += (
                    math.exp(x * arg) / complex(engine_m1.exp_phi(arg)).real
                ) * rho ** (n - 1)
            got = complex(engine_m1.f_gamma(x)[0, 0]).real
            assert abs(got - direct) < 1e-12

    def test_harmonicity(self, engine_m1):
        # rho E(f(lam x + Z)) = f(x) - e^{lam x Q_1 - phi(lam Q_1)} at x = 0.3
        model = engine_m1.model
        lam, rho, x = model.lam, model.rho, 0.3
        lhs = rho * innovation_expectation(
            model.inn,
            lambda z: np.asarray(
                [engine_m1.f_gamma(lam * x + zi)[0, 0].real
                 for zi in np.atleast_1d(z)]
            ),
            tol=1e-9,
        )
        arg = lam * engine_m1.mu[0]
        rhs = engine_m1.f_gamma(x)[0, 0] - np.exp(x * arg) / engine_m1.exp_phi(arg)
        assert abs(lhs - rhs.real) < 1e-6

    def test_geometric_tail(self, engine_m2):
        # the n-th factor stays within an engine-level bound C
        F, err = engine_m2.f_series_scalars(0.3)
        assert err >= 0.0
        assert np.all(np.isfinite(F))

    def test_commutes_with_q(self, engine_m2):
        Q = engine_m2.model.inn.s_part.Q
        F = engine_m2.f_gamma(0.25)
        assert np.abs(F @ Q - Q @ F).max() < 1e-9

    def test_real_output(self, engine_m2):
        F = engine_m2.f_gamma(0.4)
        assert np.abs(F.imag).max() < 1e-9


class TestAlphaDelta:
    def test_scalar_tail_formula(self, engine_m1):
        # alpha_0 e^{-lam x Q} q = rho e^{-mu(b - lam x)} = rho P(S >= b - lam x)
        model = engine_m1.model
        lam, rho = model.lam, model.rho
        b, x, mu = 1.0, 0.3, 1.0
        ad = engine_m1.alpha_delta(0.0, b)
        got = complex(ad[0] * np.exp(lam * x * engine_m1.mu[0]) * 1.0).real
        assert got == pytest.approx(rho * math.exp(-mu * (b - lam * x)), abs=1e-12)

    def test_quadrature_identity(self, engine_m2):
        model = engine_m2.model
        lam, rho = model.lam, model.rho
        x, b, delta = 0.3, 1.0, 0.1
        lhs = rho * innovation_expectation(
            model.inn,
            lambda z: np.exp(delta * (lam * x + z)) * (lam * x + z >= b),
            breakpoints_z=[b - lam * x],
            tol=1e-10,
        )
        ad = engine_m2.alpha_delta(delta, b)
        sd = model.inn.s_part.spectral
        rhs = sum(
            np.exp(lam * x * sd.mu[j])
            * (ad @ sd.projectors[j] @ model.inn.s_part.q)
            for j in range(2)
        )
        assert abs(lhs - complex(rhs).real) < 1e-6

    def test_pole_rejected(self, engine_m2):
        with pytest.raises(PoleError):
            engine_m2.alpha_delta(1.0, 1.0)


class TestHFunc:
    def test_indicator_active_above_b(self, engine_m2):
        delta, b, x = 0.1, 1.0, 1.5
        got = engine_m2.h_func(x, delta, b)
        series_part = got - math.exp(delta * x)
        # the beta-weighted series term is small but present
        assert abs(complex(series_part)) < 1.0
        assert abs(complex(got) - math.exp(delta * x)) == abs(complex(series_part))

    def test_single_phase_display(self, engine_m1):
        # h_0(x) = e^{psi2(mu) - mu b + phi(lam mu)} sum_n e^{lam^n mu x
        #          - phi(lam^n mu)} rho^n for x < b
        model = engine_m1.model
        lam, rho = model.lam, model.rho
        mu, b = 1.0, 1.0
        for x in (0.0, 0.4, 0.8):
            series = sum(
                math.exp(lam ** n * mu * x)
                / complex(engine_m1.exp_phi(lam ** n * mu)).real
                * rho ** n
                for n in range(1, 200)
            )
            prefactor = (
                math.exp(-mu * b) * complex(engine_m1.exp_phi(lam * mu)).real
            )
            want = prefactor * series
            got = complex(engine_m1.h_func(x, 0.0, b)).real
            assert abs(got - want) < 1e-12

    def test_discrete_harmonic_balance(self, engine_m2):
        model = engine_m2.model
        lam, rho = model.lam, model.rho
        gamma, delta, x, b = 0.5, 0.1, 0.2, 1.0
        engine_m2.check_gamma(gamma)

        def h_scalar(y):
            return engine_m2.h_func(float(y), delta, b, gamma).real

        lhs = rho * innovation_expectation(
            model.inn,
            lambda z: np.asarray(
                [h_scalar(lam * x + zi) for zi in np.atleast_1d(z)]
            ),
            breakpoints_z=[b - lam * x],
            tol=1e-9,
        ) - h_scalar(x)
        ad = engine_m2.alpha_delta(delta, b)
        sd = model.inn.s_part.spectral
        rhs = sum(
            (ad @ sd.projectors[j] @ model.inn.s_part.q)
            * (
                np.exp(lam * x * sd.mu[j])
                - np.exp(gamma * lam * x * sd.mu[j])
            )
            for j in range(2)
        )
        assert abs(lhs - complex(rhs).real) < 1e-6


class TestPsiI:
    def test_zero(self, engine_m2):
        for i in range(2):
            assert engine_m2.psi_i(i, 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_reduces_to_psi1_for_m1(self, engine_m1):
        from arphase import psi1

        for u in (0.2, 0.6, 0.9):
            assert engine_m1.psi_i(0, u) == pytest.approx(
                complex(psi1(engine_m1.model.inn, u)), abs=1e-12
            )

    def test_matches_unit_resolvent(self, engine_m2, dist_hyper2):
        u = 0.3
        for i in range(2):
            e_i = np.zeros(2)
            e_i[i] = 1.0
            ref = e_i @ np.linalg.solve(
                -u * np.eye(2) - dist_hyper2.Q, dist_hyper2.q
            )
            assert abs(np.exp(engine_m2.psi_i(i, u)) - ref) < 1e-12


class TestEta:
    def test_single_phase_reduction(self, engine_m1):
        # eta_{0,1} = e^{psi2(mu) - mu b + phi(lam mu)}
        #             * sum_{n>=0} e^{lam^n mu b - phi(lam^{n+1} mu)
        #             - psi2(lam^n mu)} rho^n for T = 0
        model = engine_m1.model
        lam, rho = model.lam, model.rho
        mu, b = 1.0, 1.0
        series = sum(
            math.exp(lam ** n * mu * b)
            / complex(engine_m1.exp_phi(lam ** (n + 1) * mu)).real
            * rho ** n
            for n in range(0, 200)
        )
        want = (
            math.exp(-mu * b)
            * complex(engine_m1.exp_phi(lam * mu)).real
            * series
        )
        got = complex(engine_m1.eta(0.0, 0, b)).real
        assert abs(got - want) < 1e-11

    @pytest.mark.parametrize("case", ["m2", "chain-point-T"])
    def test_residue_rows_term_by_term(self, case, engine_m2, dist_chain2):
        # a_{ij} = e_i P_j q + r_j e^{-mu_j b} L_T(mu_j) e^{phi(lam mu_j)}
        #          * sum_{n>=1} rho^n e^{b a_n - phi(a_n)} e_i (-a_n I - Q)^{-1} q,
        # a_n = lam^n mu_j, summed term by term with an independent
        # eigen-decomposition and dense resolvent solves.
        if case == "m2":
            engine, d = engine_m2, 0.0
        else:
            d = 0.3
            inn = Innovation(dist_chain2, NegativePart.point_mass(d))
            engine = TransformEngine(AR1Model(0.6, 0.7, inn))
        dist = engine.model.inn.s_part
        lam, rho, b, m = engine.model.lam, engine.model.rho, 1.0, dist.m
        Q, alpha = np.asarray(dist.Q), np.asarray(dist.alpha)
        q = -Q @ np.ones(m)
        w, V = np.linalg.eig(Q)
        Vinv = np.linalg.inv(V)
        want = np.empty((m, m), dtype=complex)
        for j, mu in enumerate(engine.mu):
            k = int(np.argmin(np.abs(-w - mu)))
            P = np.outer(V[:, k], Vinv[k])
            weight = (alpha @ P @ q) * np.exp(-mu * b) * np.exp(-mu * d) * engine.exp_phi(lam * mu)
            series = np.zeros(m, dtype=complex)
            for n in range(1, 150):
                a = lam ** n * mu
                resolvent = np.linalg.solve(-a * np.eye(m) - Q, q)
                series += rho ** n * np.exp(b * a) / engine.exp_phi(a) * resolvent
            want[:, j] = P @ q + weight * series
        got = engine.eta_residues(b)
        assert got.shape == (m, m)
        assert np.abs(got - want).max() < 1e-11

    def test_quadrature_of_h_at_overshoot(self, engine_m2, dist_hyper2):
        # eta_{gamma,delta,i} = E(h_{gamma,delta}(b + R^i)); the
        # expectation only exists for small gamma (at gamma = 1 this
        # model's integral diverges and eta is an analytic continuation)
        from arphase.quadrature import ph_expectation

        gamma, delta, b = 0.5, 0.1, 1.0
        engine_m2.check_gamma(gamma)
        for i in range(2):
            e_i = np.zeros(2)
            e_i[i] = 1.0
            direct = ph_expectation(
                dist_hyper2,
                lambda s: np.asarray(
                    [engine_m2.h_func(b + si, delta, b, gamma).real
                     for si in np.atleast_1d(s)]
                ),
                init=e_i,
                tol=1e-9,
            )
            got = complex(engine_m2.eta(delta, i, b, gamma)).real
            assert abs(got - direct) < 1e-6


class TestTolerance:
    def test_halving_tol_is_stable(self, dist_hyper2):
        inn = Innovation(dist_hyper2, NegativePart.zero())
        model = AR1Model(0.5, 0.5, inn)
        coarse = TransformEngine(model, tol=1e-10)
        fine = TransformEngine(model, tol=5e-11)
        Fc, err = coarse.f_series_scalars(0.3)
        Ff, _ = fine.f_series_scalars(0.3)
        assert np.abs(Fc - Ff).max() <= max(err, 1e-10)
