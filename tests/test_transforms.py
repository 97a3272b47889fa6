"""Analytic transform engine: E(e^{uZ}), e^{phi(u)} and the crossing
transform against the mpmath reference, f_gamma, alpha_delta, h, the
resolvent residues and eta, rebuilt from its residues."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpref import Reference

from arphase import (
    AR1Model,
    ArphaseError,
    ConvergenceError,
    Innovation,
    NegativePart,
    PoleError,
    ResidueSystem,
    TransformEngine,
    ValidationError,
    q_pochhammer_inf,
    validate,
)
from arphase import transforms
from arphase.cli import IDENTITY_CHECKS
from arphase.quadrature import _laggauss, innovation_expectation


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
        # The factors down to the chain's stop, times the cumulant closure
        # past it, against the 30-digit product of mpref's chain, which runs
        # on to |a| < 1e-20.
        model = engine_m1_expT.model
        ref = Reference(model.inn)
        for u in (0.2, 0.45, 0.7):
            engine = TransformEngine(model)
            lhs = engine.exp_phi(u)
            true = complex(ref.exp_phi(u, model.lam))
            assert abs(lhs - true) < 4 * np.finfo(float).eps * abs(true)
            # The chain stores its rows down to the first |a| <= eps R, R = 1.
            keys = sorted(engine._exp_phi_values, key=abs)
            assert abs(keys[0]) <= transforms._CLOSURE_EPS < abs(keys[1])


# The 6-phase Coxian of the benchmark: rates below, continuation 0.7.
_COX_RATES = [1.0, 1.4, 1.9, 2.6, 3.3, 4.1]
_COX_Q = [
    [(-r if j == i else (0.7 * r if j == i + 1 else 0.0)) for j in range(6)]
    for i, r in enumerate(_COX_RATES)
]
# A 3-phase Q with a complex pair of eigenvalues.
_COMPLEX_Q = [[-2.0, 1.5, 0.0], [0.0, -2.0, 1.5], [1.0, 0.0, -3.0]]
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


@functools.lru_cache(maxsize=None)
def _reference_chains(model, t, gamma, lam):
    """mpref's 30-digit chains from lam gamma mu_j, run to |a| < 1e-20, as
    float keys and values: (args, values) per chain."""
    ar1 = _ar1(*_DISTS, model, t)
    engine = TransformEngine(ar1)
    ref = Reference(ar1.inn)
    chains = []
    for head in lam * gamma * engine.mu:
        chain = ref.exp_phi_chain(head, lam)
        chains.append((np.array(list(chain), dtype=complex),
                       np.array([complex(v) for v in chain.values()])))
    return chains


def per_n_tail_series(engine, chains, x, rows):
    """The tail series summed one n at a time in floats, over mpref's chains,
    which run on until every factor is 1 + O(1e-20 (|x| + 1)); the terms past
    them are closed geometrically.  No stop rule and no closure of its own."""
    rho, k = engine.model.rho, 1 if rows else 0
    cols = []
    for args, values in chains:
        terms = np.exp(np.multiply.outer(x, args)) / values
        if rows:
            resolvent = (engine.u_mat[:, :, None] / (engine.mu[:, None] - args)).sum(axis=1)
            terms = terms[:, None, :] * resolvent
        power = rho ** (np.arange(args.size) + k)
        cols.append((terms * power).sum(axis=-1) + rho ** (args.size + k) / (1.0 - rho))
    return np.stack(cols, axis=-1)


def _recorded(monkeypatch, name):
    """The calls of TransformEngine.<name> from now on, as the list of their
    last arguments (the scale of _chain_table, the u of exp_psi)."""
    calls = []
    method = getattr(TransformEngine, name)

    def recorded(engine, *args):
        calls.append(args[-1])
        return method(engine, *args)

    monkeypatch.setattr(TransformEngine, name, recorded)
    return calls


def _ar1(dist_exp1, dist_hyper2, model, t="zero"):
    """m1 and m2 at lambda = rho = 0.5, m6 and the complex-spectrum m3c at
    lambda 0.6, rho 0.7; T from _T_PARTS."""
    if model == "m6":
        return AR1Model(0.6, 0.7, Innovation(validate(_COX_Q, [1.0, 0, 0, 0, 0, 0]), _T_PARTS[t]))
    if model == "m3c":
        return AR1Model(0.6, 0.7, Innovation(validate(_COMPLEX_Q, [0.5, 0.3, 0.2]), _T_PARTS[t]))
    dist = dist_exp1 if model == "m1" else dist_hyper2
    return AR1Model(0.5, 0.5, Innovation(dist, _T_PARTS[t]))


_DISTS = (validate([[-1.0]], [1.0]), validate([[-1.0, 0.0], [0.0, -3.0]], [0.4, 0.6]))


def rule_rows(args, scale):
    """The closure's N per chain: the first n with |a_n| scale <= eps,
    scale = |x| + 1/R, found by walking the chain."""
    rows = []
    for chain in np.atleast_2d(args):
        n = 1
        while abs(chain[n - 1]) * scale > transforms._CLOSURE_EPS:
            n += 1
        rows.append(n)
    return rows


class TestTailSeriesKernel:
    # Starts from x = -9 to x = 0.99: each x closes its series at its own N.
    XS = np.concatenate([np.linspace(-9.0, 0.99, 23), [0.5]])

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    @pytest.mark.parametrize("t", sorted(_T_PARTS))
    @pytest.mark.parametrize("model", ["m1", "m2", "m6", "m3c"])
    def test_matches_per_n_loop(self, model, t, gamma, rows):
        # Against the float loop over mpref's 30-digit chains, which run some
        # 60-90 rows past the closure's N; m6's e^{phi} reach 6.5e5, so the
        # rounding of both sides is relative.  The real spectra run the
        # kernel in float64 and m3c in complex.
        ar1 = _ar1(*_DISTS, model, t)
        chains = _reference_chains(model, t, gamma, ar1.lam)
        for rho in (0.9, 0.5):
            engine = TransformEngine(AR1Model(ar1.lam, rho, ar1.inn))
            want = per_n_tail_series(engine, chains, self.XS, rows)
            got, bound = engine._tail_series(self.XS.reshape(4, 6), gamma, rows)
            got = got.reshape(want.shape)
            scale = np.maximum(1.0, np.abs(want).reshape(self.XS.size, -1).max(axis=1))
            err = np.abs(got - want).reshape(self.XS.size, -1).max(axis=1)
            assert np.all(err <= 5e-14 * scale), (err / scale).max()
            assert np.all(bound.ravel() <= 1e-16 * scale)

    @pytest.mark.parametrize("model", ["m1", "m2", "m6", "m3c"])
    def test_float64_blocks_on_real_spectra(self, dist_exp1, dist_hyper2, model):
        # The tables of real spectra are real, so their sums run in float64.
        engine = TransformEngine(_ar1(dist_exp1, dist_hyper2, model, "gamma"))
        engine.f_series_scalars(self.XS)
        engine.eta_residues(1.0)
        engine.f_series_scalars(self.XS, 0.5)
        assert [np.iscomplexobj(engine._tables[g].values) for g in (1.0, 0.5)] == [model == "m3c"] * 2

    def test_conjugate_chains_stay_conjugate(self, dist_exp1, dist_hyper2):
        # m3c's mu_2 and mu_3 are a conjugate pair: so are their chains,
        # their table columns and their sums, to the bit.
        engine = TransformEngine(_ar1(dist_exp1, dist_hyper2, "m3c", "gamma"))
        assert engine.mu[1] == np.conj(engine.mu[2])
        F, _ = engine.f_series_scalars(self.XS)
        G, _ = engine._tail_series(self.XS, 1.0, True)
        table = engine._tables[1.0]
        pairs = [(table.args[1], table.args[2]), (table.values[1], table.values[2]),
                 (table.resolvent[:, 1], table.resolvent[:, 2]), (F[..., 1], F[..., 2]),
                 (G[..., 1], G[..., 2])]
        for one, other in pairs:
            assert np.array_equal(one, np.conj(other))

    @pytest.mark.parametrize("model", ["m2", "m3c"])
    def test_empty_x(self, dist_exp1, dist_hyper2, model):
        # No x: sums of shape (0, m) in the chain table's dtype, residues of
        # shape (0, m, m) in complex128, and no bound.
        engine = TransformEngine(_ar1(dist_exp1, dist_hyper2, model))
        m = engine.m
        F, bound = engine.f_series_scalars(np.array([]))
        assert F.dtype == (np.complex128 if model == "m3c" else np.float64)
        assert F.shape == (0, m) and bound.shape == (0,)
        residues = engine.eta_residues(np.array([]))
        assert residues.dtype == np.complex128 and residues.shape == (0, m, m)

    @pytest.mark.parametrize("model", ["m2", "m3c"])
    def test_sums_and_c_take_the_spectrum_dtype(self, dist_exp1, dist_hyper2, model):
        # One rule types the f-series and the residue system's c(x): float64
        # on a real spectrum, complex128 on a complex one, with or without x.
        engine = TransformEngine(_ar1(dist_exp1, dist_hyper2, model))
        system = ResidueSystem(engine, 1.0)
        want = np.complex128 if model == "m3c" else np.float64
        for xs in (np.array([]), self.XS):
            assert engine.f_series_scalars(xs)[0].dtype == want
            assert system.c(xs).dtype == want

    @pytest.mark.parametrize("lam, rho, limit", [(0.5, 0.99, 180), (0.3, 0.95, 120), (0.99, 0.99, 10_332)])
    def test_cold_single_x_exp_psi_entries(self, dist_hyper2, monkeypatch, lam, rho, limit):
        # A table's factors are one exp_psi call over the rows down to the
        # chains' x = 0 stop, under the limits of the block schedule that
        # grew tables to a stop rule (which evaluated 120, 80 and 6,888
        # entries here).  A wider x grows the table from the cumulant
        # closure alone.
        calls = _recorded(monkeypatch, "exp_psi")
        engine = TransformEngine(AR1Model(lam, rho, Innovation(dist_hyper2, NegativePart.zero())))
        engine.eta_residues(1.0)
        engine.f_series_scalars(0.0)
        table = engine._tables[1.0]
        stops = rule_rows(table.args, 1.0 / engine._radius)
        assert [np.shape(u) for u in calls] == [(2, max(stops))]
        assert sum(np.size(u) for u in calls) <= limit
        engine.f_series_scalars(np.linspace(-6.0, 0.99, 201))
        assert len(calls) == 1
        assert engine._tables[1.0].values.shape[1] == max(rule_rows(engine._tables[1.0].args, 7.0))

    def test_cold_grid_blocks(self, engine_m2, monkeypatch):
        # The 4-row schedule took 13 blocks and 7 exp_psi calls here.
        blocks = _recorded(monkeypatch, "_chain_table")
        calls = _recorded(monkeypatch, "exp_psi")
        engine = TransformEngine(engine_m2.model)
        ResidueSystem(engine, 1.0).solve(np.linspace(-5.0, 0.99, 201))
        assert len(blocks) <= 4 and len(calls) <= 2, (blocks, [np.shape(u) for u in calls])

    def test_warm_table_gives_the_cold_sums(self, engine_m2):
        # A table grown by other calls, here to x = -30, serves a later one
        # unchanged: a row's value does not depend on how far the table reaches.
        want = TransformEngine(engine_m2.model)._tail_series(self.XS, 1.0, True)
        engine_m2.f_series_scalars(np.linspace(-30.0, 0.9, 5))
        got = engine_m2._tail_series(self.XS, 1.0, True)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("max_terms", [5, 23, 26])
    def test_short_max_terms_raises_the_loop_error(self, dist_hyper2, monkeypatch, max_terms, rows):
        # lambda 0.8: the chains need N = 36 rows at x = -9, so every cap
        # below that raises before any factor is computed, and a cap of N
        # sums the series.
        ar1 = AR1Model(0.8, 0.9, Innovation(dist_hyper2, NegativePart.zero()))
        need = max(rule_rows(0.8 ** np.arange(1, 80) * np.array([[1.0], [3.0]]), 10.0))
        assert need == 36
        monkeypatch.setattr(transforms, "_MAX_TERMS", max_terms)
        with pytest.raises(ConvergenceError, match=f"lambda-chain from .* needs more than {max_terms} rows"):
            TransformEngine(ar1)._tail_series(self.XS, 1.0, rows)
        monkeypatch.setattr(transforms, "_MAX_TERMS", need)
        TransformEngine(ar1)._tail_series(self.XS, 1.0, rows)


class TestChainTable:
    @pytest.mark.parametrize("case", ["m2", "m6-exp", "m2-lam0.99"])
    def test_rows_equal_cold_exp_phi(self, dist_exp1, dist_hyper2, case):
        # Each entry against exp_phi on a fresh engine: rows around each
        # chain's x = 0 stop, past it and a random sample.  A fresh chain
        # from a row before the stop steps and stops where the table's does,
        # so the two agree to the bit.  Past the stop the table holds the
        # cumulant value, and exp_phi the factor times the next one, whose
        # resolvent sum cancels (m6's residues reach 30 against a sum of 1):
        # there the table is checked against mpref.
        if case == "m2-lam0.99":
            ar1 = AR1Model(0.99, 0.99, Innovation(dist_hyper2, NegativePart.zero()))
        else:
            ar1 = _ar1(dist_exp1, dist_hyper2, case[:2], "exp" if case == "m6-exp" else "zero")
        engine = TransformEngine(ar1)
        engine.eta_residues(1.0)
        engine.f_series_scalars(np.linspace(-3.0, 0.9, 7))
        table = engine._tables[1.0]
        stops = rule_rows(table.args, 1.0 / engine._radius)
        ref = Reference(ar1.inn)
        rng = np.random.default_rng(11)
        for j, stop in enumerate(stops):
            end = table.values.shape[1]
            assert end > stop
            rows = {0, 1, stop - 2, stop - 1, stop, stop + 1, end - 1}
            rows |= set(rng.integers(0, end, 8).tolist())
            for k in sorted(rows):
                a = table.args[j, k]
                cold = TransformEngine(ar1).exp_phi(a)
                if k < stop:
                    assert cold == table.values[j, k], (j, k, cold, table.values[j, k])
                else:
                    want = complex(ref.exp_phi(a, ar1.lam))
                    assert abs(table.values[j, k] - want) <= 2 * np.finfo(float).eps * abs(want)

    @pytest.mark.parametrize("case", ["m1", "m2", "m6-exp", "m6-gamma", "m3c-point", "chain2-point"])
    @pytest.mark.parametrize("xs", [[0.0], [1.0], [-6.0, 0.5], [-60.0]])
    def test_table_has_the_rules_rows(self, dist_exp1, dist_hyper2, dist_chain2, case, xs):
        # After an eta series at b = 1 and an f-series at xs, gamma's table
        # has exactly N rows: the rule's N at the largest |x| seen, for the
        # chain that needs the most.
        if case == "chain2-point":
            ar1 = AR1Model(0.6, 0.8, Innovation(dist_chain2, _T_PARTS["point"]))
        else:
            model, _, t = case.partition("-")
            ar1 = _ar1(dist_exp1, dist_hyper2, model, t or "zero")
        engine = TransformEngine(ar1)
        engine.eta_residues(1.0)
        engine.f_series_scalars(np.array(xs))
        table = engine._tables[1.0]
        heads = ar1.lam * engine.mu
        chains = heads[:, None] * ar1.lam ** np.arange(table.args.shape[1])
        scale = max(1.0, *np.abs(xs)) + 1.0 / engine._radius
        assert table.values.shape[1] == max(rule_rows(chains, scale))
        assert np.allclose(table.args, chains, rtol=1e-13)

    def test_closure_value_matches_the_reference(self, dist_hyper2):
        # e^{phi(a)} from eight cumulants, at |a| = 1e-2 R and at 1e-3 R,
        # against mpref's 30-digit chain product, for every T law.
        for t, part in _T_PARTS.items():
            for lam in (0.5, 0.9, 0.99):
                engine = TransformEngine(AR1Model(lam, 0.5, Innovation(dist_hyper2, part)))
                ref = Reference(engine.model.inn)
                for a in (1e-2 * engine._radius, 1e-3 * engine._radius):
                    want = complex(ref.exp_phi(a, lam))
                    got = engine._exp_phi_closure(np.array(a))
                    assert abs(got - want) <= 2e-15 * abs(want), (t, lam, a, got, want)

    @pytest.mark.parametrize("t", sorted(_T_PARTS))
    def test_values_are_the_scalar_chain_products(self, t):
        # exp_phi's stored chain against one factor at a time and the
        # backward product in Python's complex arithmetic, from the cumulant
        # value at the first row past the stop.  This Q has complex
        # eigenvalues, so the factors are complex.
        ar1 = AR1Model(0.6, 0.7, Innovation(validate(_COMPLEX_Q, [0.5, 0.3, 0.2]), _T_PARTS[t]))
        probe = TransformEngine(ar1)
        assert np.iscomplexobj(probe.mu)
        for u in [*(ar1.lam * probe.mu), 0.4 - 0.2j]:
            chain, arg = [], complex(u)
            while True:
                chain.append((arg, complex(probe.exp_psi(arg))))
                arg *= ar1.lam
                if abs(chain[-1][0]) <= transforms._CLOSURE_EPS * probe._radius:
                    break
            want, total = {}, complex(probe._exp_phi_closure(np.array(arg)))
            for key, factor in reversed(chain):
                total *= factor
                want[key] = total
            engine = TransformEngine(ar1)
            engine.exp_phi(u)
            assert engine._exp_phi_values.keys() == want.keys()
            for key, value in want.items():
                assert abs(engine._exp_phi_values[key] - value) <= 8 * np.finfo(float).eps * abs(value)

    def test_exp_phi_values_hold_only_the_heads(self, dist_hyper2):
        # A table's growth stores the heads' values, the keys pole_weight
        # reads, and no other row: at lambda = 0.99 the chains run to
        # hundreds of rows.
        engine = TransformEngine(AR1Model(0.99, 0.99, Innovation(dist_hyper2, NegativePart.zero())))
        engine.eta_residues(1.0)
        engine.f_series_scalars(np.linspace(-3.0, 0.9, 7))
        table = engine._tables[1.0]
        assert table.values.shape[1] > 400
        assert engine._exp_phi_values == dict(zip(table.args[:, 0].tolist(), table.values[:, 0].tolist()))
        assert len(engine._exp_phi_values) == 2
        engine.pole_weight(1.0)
        assert len(engine._exp_phi_values) == 2

    def test_pole_on_a_chain_raises(self, engine_m2):
        # mu = (1, 3), lambda 0.5: the chain from 2 reaches the pole 1.
        for u in (1.0, 3.0, 2.0):
            with pytest.raises(PoleError, match="collides with eigenvalue"):
                engine_m2.exp_phi(u)

    def test_table_is_published_not_mutated(self, dist_hyper2):
        # A reader holding a table keeps what it read while the table grows.
        engine = TransformEngine(AR1Model(0.9, 0.9, Innovation(dist_hyper2, NegativePart.zero())))
        small = engine._chain_table(1.0, 1.0)
        copy = [np.copy(a) for a in small]
        grown = engine._chain_table(1.0, 100.0)
        assert engine._tables[1.0] is grown and grown.values.shape[1] > small.values.shape[1] + 40
        assert all(np.array_equal(a, b) for a, b in zip(small, copy))
        done = small.values.shape[1]
        assert np.array_equal(grown.values[:, :done], small.values)
        assert np.array_equal(grown.args[:, :done + 1], small.args)


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
        # Within error_bound, or refused with an ArphaseError: up to three
        # phases, lambda up to 0.95 and starts down to x = -20 (ROADMAP
        # item 1, whose stop rule failed this region).
        inn = _draw_innovation(data, max_m=3)
        lam = data.draw(st.floats(0.3, 0.95), label="lambda")
        rho = data.draw(st.floats(0.3, 0.8), label="rho")
        b = data.draw(st.floats(0.5, 2.0), label="b")
        x = data.draw(st.floats(-20.0, b, exclude_max=True), label="x")
        try:
            self.check(inn, lam, rho, b, np.array([x]))
        except ArphaseError:
            pass


class TestInnovationExpectation:
    @pytest.mark.parametrize("t", sorted(_T_PARTS))
    def test_batch_equals_scalar_calls(self, dist_hyper2, t):
        # A kinked value-like function; shifts past b + t put the kink at
        # or left of s = 0.  A batch sweeps panels between all its shifts
        # and a scalar call has one panel, so each is held to a 30-digit
        # closed form rather than the two to each other's bits.
        inn = Innovation(dist_hyper2, _T_PARTS[t])
        b = 1.0

        def func(y):
            return np.where(y >= b, y, 0.4 * np.exp(y - b) + 0.6 * np.cos(y))

        at = np.concatenate([np.linspace(-3.0, 2.0, 11), [b, b + 0.3]]).reshape(13, 1)
        got = innovation_expectation(inn, func, at=at, breakpoints=[b])
        assert got.shape == at.shape
        single = [innovation_expectation(inn, func, at=float(y), breakpoints=[b]) for y in at.flat]
        assert all(isinstance(w, float) for w in single)
        # func as (lo, hi, terms a t^n e^{beta t}), cos t = (e^{it} + e^{-it}) / 2
        pieces = [(-mp.inf, b, [(0.4 * mp.exp(-b), 0, 1), (0.3, 0, 1j), (0.3, 0, -1j)]),
                  (b, mp.inf, [(1, 1, 0)])]
        ref = Reference(inn)
        want = np.array([float(ref.expectation(pieces, y)) for y in at.flat])
        self.assert_close(got.ravel(), want)
        self.assert_close(np.array(single), want)
        order = np.random.default_rng(5).permutation(at.size)
        shuffled = innovation_expectation(inn, func, at=at.ravel()[order], breakpoints=[b])
        assert np.array_equal(shuffled, got.ravel()[order])

    # m2, the m6 Coxian, the two-phase chain, a complex pair, and rates 100
    # apart, which one Laguerre tail scaled to the slowest rate cannot
    # resolve (it was 8.2e-2 off on the identity).
    ACCURACY_MODELS = {
        "m2": ([[-1.0, 0.0], [0.0, -3.0]], [0.4, 0.6]),
        "m6": (_COX_Q, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        "chain2": ([[-2.0, 1.0], [0.0, -3.0]], [0.5, 0.5]),
        "complex": (_COMPLEX_Q, [0.5, 0.3, 0.2]),
        "stiff": ([[-0.2, 0.0], [0.0, -20.0]], [0.5, 0.5]),
    }
    SHIFTS = np.linspace(-6.0, 3.0, 19)

    @staticmethod
    def assert_close(got, ref):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), got - ref

    @pytest.mark.parametrize("d", [0.0, 0.3])
    @pytest.mark.parametrize("model", sorted(ACCURACY_MODELS))
    def test_default_accuracy_against_closed_forms(self, model, d):
        # E(y + Z) = y - d + E S, and E(y + Z - K)^+ = y - d - K + E S for
        # a = K - y + d <= 0, else E(S - a)^+ = alpha e^{Qa} (-Q)^{-1} 1.
        from scipy.linalg import expm

        dist = validate(*self.ACCURACY_MODELS[model])
        inn = Innovation(dist, NegativePart.point_mass(d) if d else NegativePart.zero())
        y = self.SHIFTS
        mean_res = np.linalg.solve(-dist.Q, np.ones(dist.m))
        mean = float(dist.alpha @ mean_res)
        self.assert_close(innovation_expectation(inn, lambda z: z, at=y), y - d + mean)
        for strike in (0.5, 1.0, 2.5):
            a = strike - y + d
            ref = [dist.alpha @ expm(dist.Q * ak) @ mean_res if ak > 0 else mean - ak for ak in a]
            got = innovation_expectation(inn, lambda z: np.maximum(z - strike, 0.0), at=y,
                                         breakpoints=[strike])
            self.assert_close(got, np.array(ref))

    @pytest.mark.parametrize("t", ["exp", "gamma"])
    @pytest.mark.parametrize("model", sorted(ACCURACY_MODELS))
    def test_identity_with_continuous_t(self, model, t):
        # E(y + Z) = y + E S - E T, with E T = shape / rate.
        dist, law = validate(*self.ACCURACY_MODELS[model]), _T_PARTS[t]
        mean = float(dist.alpha @ np.linalg.solve(-dist.Q, np.ones(dist.m)))
        got = innovation_expectation(Innovation(dist, law), lambda z: z, at=self.SHIFTS)
        self.assert_close(got, self.SHIFTS + mean - law.shape / law.rate)

    @staticmethod
    def call_with_t(dist, law, y, calls=None):
        """E(y + Z - 1)^+ at tol 1e-9, adding to `calls` the number of
        points the integrand is evaluated at."""
        def func(z):
            if calls is not None:
                calls.append(np.size(z))
            return np.maximum(z - 1.0, 0.0)

        return innovation_expectation(Innovation(dist, law), func, at=y, breakpoints=[1.0], tol=1e-9)

    @pytest.mark.parametrize("y", [0.0, 2.0])
    def test_call_with_exponential_t(self, dist_hyper2, y):
        # E(y + Z - K)^+ for T ~ Exp(theta), with a = K - y and S's density
        # sum_k w_k e^{-mu_k s}: sum_k w_k e^{-mu_k a} theta / (mu_k^2 (mu_k + theta))
        # for a >= 0, else E S - E T - a + c0 e^{theta a} / theta^2 with
        # c0 = theta sum_k w_k / (mu_k + theta), as T - S has density
        # c0 e^{-theta w} above 0.
        theta, strike, sd = 2.0, 1.0, dist_hyper2.spectral
        w = np.array([dist_hyper2.alpha @ P @ dist_hyper2.q for P in sd.projectors]).real
        mu, a = sd.mu.real, strike - y
        if a >= 0:
            ref = float(np.sum(w * np.exp(-mu * a) * theta / (mu ** 2 * (mu + theta))))
        else:
            mean_s = float(dist_hyper2.alpha @ np.linalg.solve(-dist_hyper2.Q, np.ones(2)))
            c0 = theta * float(np.sum(w / (mu + theta)))
            ref = mean_s - 1.0 / theta - a + c0 * math.exp(theta * a) / theta ** 2
        self.assert_close(self.call_with_t(dist_hyper2, NegativePart.exponential(theta), y), ref)

    # E(y + Z - 1)^+ on m2 with T ~ gamma_int(2, 3), from a nested mpmath
    # quad over the densities of S and T at 30 digits.
    GAMMA_CALL_REFS = {0.0: 0.085262227681967719508, 2.0: 0.97025874237283242438}

    @pytest.mark.parametrize("y", sorted(GAMMA_CALL_REFS))
    def test_call_with_gamma_t(self, dist_hyper2, y):
        got = self.call_with_t(dist_hyper2, NegativePart.gamma_int(2, 3.0), y)
        self.assert_close(got, self.GAMMA_CALL_REFS[y])

    def test_call_with_continuous_t_evaluates_func_rarely(self, dist_hyper2):
        # Integrating T's law by its own Gauss-Laguerre rule evaluated f
        # 3,840 times at y = 0 and about 126,000 times at y = 2, where it ran
        # to its node cap; Z's density needs at most a tenth of that.
        for law in (NegativePart.exponential(2.0), NegativePart.gamma_int(2, 3.0)):
            for y, most in ((0.0, 384), (2.0, 12_632)):
                calls = []
                self.call_with_t(dist_hyper2, law, y, calls)
                assert sum(calls) <= most, (law, y, calls)

    # T laws for the sweep: none, a point mass, and gamma shapes 1 to 3.
    SWEEP_LAWS = {
        "zero": NegativePart.zero(),
        "point": NegativePart.point_mass(0.3),
        "exp": NegativePart.exponential(2.0),
        "gamma2": NegativePart.gamma_int(2, 3.0),
        "gamma3": NegativePart.gamma_int(3, 1.5),
    }
    # Kinks at -1 and 0.5 and a jump at 1.5, with shifts below, between,
    # on and above them.
    SWEEP_KINKS = (-1.0, 0.5, 1.5)
    SWEEP_SHIFTS = np.array([-2.0, -0.3, 0.5, 1.1, 2.4])
    # 0.5 |t + 1| + (t - 0.5)^+ + (0.7 at t >= 1.5, else 0.3 cos t) as
    # (lo, hi, terms a t^n e^{beta t}), cos t = (e^{it} + e^{-it}) / 2.
    _COS = [(0.15, 0, 1j), (0.15, 0, -1j)]
    SWEEP_PIECES = [(-mp.inf, -1.0, [(-0.5, 1, 0), (-0.5, 0, 0), *_COS]),
                    (-1.0, 0.5, [(0.5, 1, 0), (0.5, 0, 0), *_COS]),
                    (0.5, 1.5, [(1.5, 1, 0), *_COS]),
                    (1.5, mp.inf, [(1.5, 1, 0), (0.7, 0, 0)])]

    @staticmethod
    def sweep_func(z):
        return 0.5 * np.abs(z + 1.0) + np.maximum(z - 0.5, 0.0) + np.where(z >= 1.5, 0.7, 0.3 * np.cos(z))

    @pytest.mark.parametrize("law", sorted(SWEEP_LAWS))
    @pytest.mark.parametrize("model", sorted(ACCURACY_MODELS))
    def test_sweep_through_kinks_against_reference(self, model, law):
        # One sweep serves shifts interleaved with the kinks: each entry is
        # within 1e-12 of a 30-digit closed form, and duplicated or
        # permuted shifts get the same bits.
        inn = Innovation(validate(*self.ACCURACY_MODELS[model]), self.SWEEP_LAWS[law])
        y = self.SWEEP_SHIFTS
        got = innovation_expectation(inn, self.sweep_func, at=y, breakpoints=self.SWEEP_KINKS)
        ref = Reference(inn)
        self.assert_close(got, np.array([float(ref.expectation(self.SWEEP_PIECES, yi)) for yi in y]))
        order = np.concatenate([y.size - 1 - np.arange(y.size), [2, 2, 0]])
        again = innovation_expectation(inn, self.sweep_func, at=y[order], breakpoints=self.SWEEP_KINKS)
        assert np.array_equal(again, got[order])

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_no_shifts(self, dist_hyper2, shape):
        def func(z):
            raise AssertionError("func evaluated without shifts")

        got = innovation_expectation(Innovation(dist_hyper2, NegativePart.zero()), func,
                                     at=np.empty(shape), breakpoints=[1.0])
        assert got.shape == shape

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_or_kink_refused(self, dist_hyper2, bad):
        # Refused before func runs: a NaN shift once ran every doubling to
        # 2,048 nodes before ConvergenceError.
        def func(z):
            raise AssertionError("func evaluated at a non-finite shift")

        inn = Innovation(dist_hyper2, NegativePart.exponential(2.0))
        with pytest.raises(ValidationError, match=f"shift y={bad}"):
            innovation_expectation(inn, func, at=np.array([0.5, bad, np.nan]), breakpoints=[1.0])
        # A NaN kink was dropped without a word, and an infinite one ran to
        # ConvergenceError through inf - inf.
        with pytest.raises(ValidationError, match=f"breakpoint={bad}"):
            innovation_expectation(inn, func, at=0.5, breakpoints=[1.0, bad])

    def test_complex_pair_shares_its_tail_nodes(self):
        # -Q has one real eigenvalue and a complex pair, whose two Laguerre
        # rules have the same nodes: the first level at y = 0 evaluates f on
        # one 4-node panel [0, 1] and 16 tail nodes per distinct rate, two
        # rules for three eigenvalues.
        dist = validate(_COMPLEX_Q, [0.5, 0.3, 0.2])
        assert np.iscomplexobj(dist.spectral.mu) and np.unique(dist.spectral.mu.real).size == 2
        calls = []

        def func(z):
            calls.append(np.size(z))
            return np.maximum(z - 1.0, 0.0)

        innovation_expectation(Innovation(dist, NegativePart.zero()), func, at=0.0, breakpoints=[1.0])
        assert calls[0] == 4 + 2 * 16

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    def test_laguerre_rule(self, n):
        # numpy's rule: nodes against scipy's, and sum w x^k = k!.  Above
        # the cap of 128 nodes, n gets the capped rule.
        from scipy.special import roots_laguerre

        size = min(n, 128)
        x, w = _laggauss(n)
        ref = roots_laguerre(size)[0]
        assert x.size == size
        assert np.all(np.abs(x - ref) <= 1e-12 * ref)
        for k in range(min(2 * size, 40)):
            assert abs(np.sum(w * x ** k) / math.factorial(k) - 1.0) <= 1e-12, k


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
