"""Analytic transform engine: E(e^{uZ}), e^{phi(u)} and the crossing
transform against the mpmath reference, f_gamma, alpha_delta, h, the
resolvent residues and eta, rebuilt from its residues."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpref import Reference

from arphase import (
    AR1Model,
    ArphaseError,
    Innovation,
    NegativePart,
    PoleError,
    ResidueSystem,
    TransformEngine,
    ValidationError,
    q_pochhammer_inf,
    validate,
)
from arphase.cli import IDENTITY_CHECKS
from arphase.quadrature import innovation_expectation
from arphase.transforms import SERIES_TOL


class TestAR1Model:
    def test_parameter_ranges(self, dist_exp1):
        inn = Innovation(dist_exp1, NegativePart.zero())
        for lam, rho in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(ValidationError):
                AR1Model(lam, rho, inn)

    def test_valid_model(self, engine_m2):
        assert engine_m2.model.m == 2

    @pytest.mark.parametrize("gamma, n", [(2 / 3, 1), (4 / 3, 2), (0.8, None)])
    def test_gamma_separation(self, engine_m2, gamma, n):
        # mu = (1, 3) at lam = 0.5: lam^n gamma 3 = 1 at gamma = 2^n / 3.
        if n is None:
            engine_m2.check_gamma(gamma)
            return
        with pytest.raises(ValidationError, match=rf"lambda\^{n} "):
            engine_m2.check_gamma(gamma)


class TestPhi:
    def test_zero(self, engine_m2):
        assert engine_m2.exp_phi(0.0) == 1.0

    def test_euler_function_value(self, engine_m1):
        # exp(phi(lam * mu)) = 1 / (lam; lam)_inf for the mu=1 case
        lam = engine_m1.model.lam
        got = engine_m1.exp_phi(lam * 1.0)
        assert complex(got).real == pytest.approx(1.0 / q_pochhammer_inf(lam, lam), abs=1e-11)
        assert abs(complex(got).real - 3.4627) < 5e-4

    def test_fixed_point_identity_reference(self, engine_m2):
        # e^{phi(u)} = e^{phi(lam u)} E(e^{uZ}), the factor from the reference.
        u = 0.4
        lam = engine_m2.model.lam
        ref = Reference(engine_m2.model.inn)
        rhs = engine_m2.exp_phi(lam * u) * complex(ref.exp_psi(u))
        assert abs(engine_m2.exp_phi(u) / rhs - 1.0) < 1e-11

    def test_fixed_point_identity_random(self, engine_m2):
        lam = engine_m2.model.lam
        ref = Reference(engine_m2.model.inn)
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = float(rng.uniform(0.01, 0.9))
            rhs = engine_m2.exp_phi(lam * u) * complex(ref.exp_psi(u))
            assert abs(engine_m2.exp_phi(u) / rhs - 1.0) < 1e-10
            assert abs(engine_m2.exp_phi(u) / complex(ref.exp_phi(u, lam)) - 1.0) < 1e-10

    def test_pole_rejected(self, engine_m2):
        with pytest.raises(PoleError):
            engine_m2.exp_phi(1.0)  # mu_1 = 1 is in the pole set

    def test_exp_phi_matches_phi(self, engine_m1_expT):
        model = engine_m1_expT.model
        ref = Reference(model.inn)
        for u in (0.2, 0.45, 0.7):
            engine = TransformEngine(model)
            lhs = engine.exp_phi(u)
            # The product's arithmetic: the mp product over the keys exp_phi
            # stored for u, i.e. over the factors its own cut kept.
            assert abs(lhs - complex(ref.product(engine._exp_phi_values))) < 1e-12
            # The cut: it stops where a factor is within SERIES_TOL (1 - lam)
            # of 1, so the factors left out multiply to 1 + O(SERIES_TOL lam).
            true = complex(ref.exp_phi(u, model.lam))
            assert abs(lhs - true) < SERIES_TOL * model.lam * abs(true)


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


def _draw_innovation(data, max_m):
    """Coxian S with m <= max_m distinct rates in any order, and any T law."""
    m = data.draw(st.integers(1, max_m), label="m")
    steps = [data.draw(st.floats(0.5, 3.0))] + [data.draw(st.floats(0.3, 2.0)) for _ in range(m - 1)]
    rates = np.cumsum(steps)[data.draw(st.permutations(range(m)), label="order")]
    Q = np.diag(-rates)
    for i in range(m - 1):
        Q[i, i + 1] = data.draw(st.floats(0.0, 0.9)) * rates[i]
    weights = np.array([data.draw(st.floats(0.05, 1.0)) for _ in range(m)])
    t_part = data.draw(st.one_of(
        st.just(NegativePart.zero()),
        st.builds(NegativePart.point_mass, st.floats(0.0, 1.0)),
        st.builds(NegativePart.exponential, st.floats(0.5, 4.0)),
        st.builds(NegativePart.gamma_int, st.integers(1, 3), st.floats(0.5, 4.0)),
    ), label="T")
    return Innovation(validate(Q, weights / weights.sum()), t_part)


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
        # Every key one cold exp_phi call stores, against the mpmath product
        # over the same keys, past the poles (negative factors) included.
        if model == "m2":
            dist, lam, rho = dist_hyper2, 0.5, 0.5
        else:
            dist, lam, rho = validate(_COX_Q, [1.0, 0, 0, 0, 0, 0]), 0.6, 0.7
        ar1 = AR1Model(lam, rho, Innovation(dist, _T_PARTS[t]))
        TransformEngine(ar1).check_gamma(gamma)
        ref = Reference(ar1.inn)
        for start in lam * gamma * TransformEngine(ar1).mu:
            engine = TransformEngine(ar1)
            engine.exp_phi(start)
            stored = dict(engine._exp_phi_values)
            assert start in stored
            want = ref.exp_phi_chain(start, lam)
            assert stored.keys() <= want.keys()
            for a, value in stored.items():
                rec = engine.exp_psi(a) * engine.exp_phi(a * lam)
                assert abs(value - rec) <= 1e-12 * abs(value), (a, value, rec)
                # Relative past 1, because the m6 values reach 6.5e5.
                ref_value = complex(want[a])
                assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value)), (a, value, ref_value)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_random_models(self, data):
        # A random innovation law, and a start on a pole's lambda-chain or
        # inside the disk |u| < min mu.
        inn = _draw_innovation(data, max_m=3)
        lam = data.draw(st.floats(0.2, 0.9), label="lambda")
        pole = data.draw(st.booleans(), label="pole start")
        try:
            engine = TransformEngine(AR1Model(lam, 0.5, inn))
            if pole:
                gamma = data.draw(st.floats(0.2, 1.0), label="gamma")
                engine.check_gamma(gamma)
                u = lam * gamma * engine.mu[data.draw(st.integers(0, inn.m - 1), label="j")]
            else:
                u = data.draw(st.floats(0.01, 0.9), label="u / min mu") * float(engine.mu.real.min())
            engine.exp_phi(u)
        except (PoleError, ValidationError):
            return
        want = Reference(inn).exp_phi_chain(u, lam)
        # First-order rounding of the float product from a key on: each factor
        # sum_j r_j / (mu_j - a) E(e^{-aT}) loses eps per term, scaled by the
        # term's distance to its pole (mu_j itself carries eps |mu_j|) and by
        # the cancellation in the sum.
        eps = np.finfo(float).eps
        spread = 0.0
        for a in sorted(engine._exp_phi_values, key=abs):
            terms = engine.r / (engine.mu - a)
            near = np.abs(terms) * (1.0 + np.abs(engine.mu) / np.abs(engine.mu - a))
            spread += 1.0 + near.sum() / abs(terms.sum())
            ref = complex(want[a])
            tol = 1e-12 * max(1.0, abs(ref)) + 8.0 * eps * spread * abs(ref)
            assert abs(engine._exp_phi_values[a] - ref) <= tol, (a, ref)

    def test_nonzero_root_past_pole_does_not_stop_chain(self, dist_hyper2):
        # m2 has exp_psi(1.8) = 1 with 1.8 past the pole mu = 1.  At lam = 0.6
        # the chain stopped there: exp_phi(1.8) = 1 and Phi(0) = (0.1383, 0.0241).
        def engine(lam):
            return TransformEngine(AR1Model(lam, 0.5, Innovation(dist_hyper2, NegativePart.zero())))

        m2 = engine(0.6)
        want = np.prod([m2.exp_psi(1.8 * 0.6 ** k) for k in range(200)])
        assert abs(want + 15.15835) < 1e-4
        assert abs(m2.exp_phi(1.8) - want) < 1e-10 * abs(want)
        # At lam = 0.6 +- 1e-9 the chain from lam mu_2 misses the root.
        near = [ResidueSystem(engine(0.6 + d), 1.0).solve(0.0).phi_vec for d in (-1e-9, 1e-9)]
        want = np.mean(near, axis=0)
        assert np.allclose(want, [0.13516, 0.03705], atol=1e-5), want
        got = ResidueSystem(m2, 1.0).solve(0.0).phi_vec
        assert np.abs(got - want).max() < 1e-7, (got, want)


class TestResidueReference:
    """ResidueSystem against the 30-digit residue solve of mpref: every
    phase within the reported error_bound."""

    @staticmethod
    def check(inn, lam, rho, b, xs):
        ct = ResidueSystem(TransformEngine(AR1Model(lam, rho, inn)), b).solve(xs)
        want = Reference(inn).crossing(lam, rho, b, xs)
        err = np.abs(ct.phi_vec - want)
        assert np.all(err <= ct.error_bound), (err.max(), ct.error_bound)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("t", sorted(_T_PARTS))
    def test_m1(self, dist_exp1, t, b):
        self.check(Innovation(dist_exp1, _T_PARTS[t]), 0.5, 0.5, b, np.linspace(-3.0, b, 9, endpoint=False))

    @pytest.mark.parametrize("model, lam, rho", [("m2", 0.5, 0.5), ("m2", 0.9, 0.9), ("m6", 0.6, 0.7)])
    def test_multiphase(self, dist_hyper2, model, lam, rho):
        if model == "m2":
            inn = Innovation(dist_hyper2, _T_PARTS["zero"])
        else:
            inn = Innovation(validate(_COX_Q, [1.0, 0, 0, 0, 0, 0]), _T_PARTS["exp"])
        self.check(inn, lam, rho, 1.0, np.linspace(-3.0, 0.99, 7))

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_models(self, data):
        # Within error_bound, or refused with an ArphaseError.
        inn = _draw_innovation(data, max_m=2)
        lam = data.draw(st.floats(0.3, 0.8), label="lambda")
        rho = data.draw(st.floats(0.3, 0.8), label="rho")
        b = data.draw(st.floats(0.5, 2.0), label="b")
        x = data.draw(st.floats(-2.0, b, exclude_max=True), label="x")
        try:
            self.check(inn, lam, rho, b, np.array([x]))
        except ArphaseError:
            pass


class TestInnovationExpectation:
    @pytest.mark.parametrize("t", sorted(_T_PARTS))
    def test_batch_equals_scalar_calls(self, dist_hyper2, t):
        # A kinked value-like function; shifts past b + t put the kink at
        # or left of s = 0, where its panel is skipped.
        inn = Innovation(dist_hyper2, _T_PARTS[t])
        b = 1.0

        def func(y):
            return np.where(y >= b, y, 0.4 * np.exp(y - b) + 0.6 * np.cos(y))

        at = np.concatenate([np.linspace(-3.0, 2.0, 11), [b, b + 0.3]]).reshape(13, 1)
        got = innovation_expectation(inn, func, at=at, breakpoints=[b])
        assert got.shape == at.shape
        want = [innovation_expectation(inn, func, at=float(y), breakpoints=[b]) for y in at.flat]
        assert all(isinstance(w, float) for w in want)
        assert np.allclose(got.ravel(), want, rtol=1e-15, atol=0.0), got.ravel() - want


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

    def test_harmonicity(self):
        # rho E(f(lam x + Z)) = f(x) - e^{lam x Q_1 - phi(lam Q_1)} at x = 0.3
        check, tol = IDENTITY_CHECKS["harm2"]
        assert check() <= tol

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

    def test_quadrature_identity(self):
        # rho E(e^{delta(lam x+Z)} 1{lam x+Z >= b}) = alpha_delta e^{-lam x Q} q
        check, tol = IDENTITY_CHECKS["harm1"]
        assert check() <= tol

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

    def test_discrete_harmonic_balance(self):
        # the discrete-harmonic balance of h_{gamma,delta} at gamma = 0.5
        check, tol = IDENTITY_CHECKS["harm3"]
        assert check() <= tol


class TestPsiI:
    # e_i (-uI - Q)^{-1} q = sum_j u_mat[i, j] / (mu_j - u): the resolvent
    # residues behind eta's rows.
    def test_zero(self, engine_m2):
        # (-Q)^{-1} q is the vector of ones.
        got = np.sum(engine_m2.u_mat / engine_m2.mu, axis=1)
        assert np.abs(got - 1.0).max() < 1e-13

    def test_matches_unit_resolvent(self, engine_m2, dist_hyper2):
        u = 0.3
        ref = np.linalg.solve(-u * np.eye(2) - dist_hyper2.Q, dist_hyper2.q)
        got = np.sum(engine_m2.u_mat / (engine_m2.mu - u), axis=1)
        assert np.abs(got - ref).max() < 1e-12


def eta(engine, delta, i, b):
    """eta_{delta,i} = e^{delta b} sum_j a_ij / (mu_j - delta), a = eta_residues(b)."""
    a = engine.eta_residues(b)[i]
    return complex(np.exp(delta * b) * np.sum(a / (engine.mu - delta)))


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
        got = eta(engine_m1, 0.0, 0, b).real
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

    def test_quadrature_of_h_at_overshoot(self, dist_hyper2):
        # eta_{delta,i} = E(h_{1,delta}(b + R^i)); the expectation exists
        # only while lam max mu_j < min mu_j (at lam = 0.5 this model's
        # integral diverges and eta is an analytic continuation), so lam = 0.25.
        from arphase.quadrature import ph_expectation

        engine = TransformEngine(AR1Model(0.25, 0.5, Innovation(dist_hyper2, NegativePart.zero())))
        delta, b = 0.1, 1.0
        for i in range(2):
            e_i = np.zeros(2)
            e_i[i] = 1.0
            direct = ph_expectation(
                dist_hyper2,
                lambda s: np.asarray(
                    [engine.h_func(b + si, delta, b).real
                     for si in np.atleast_1d(s)]
                ),
                init=e_i,
            )
            got = eta(engine, delta, i, b).real
            assert abs(got - direct) < 1e-6
