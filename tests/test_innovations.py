"""Innovation model Z = S - T: Laplace transforms of S, T and Z, and
samples of Z drawn as the simulator draws them, a chain lifetime minus T.

psi1, psi2 and psi name the log-Laplace exponents of S, -T and Z; the
package evaluates e^{psi2} = T's laplace_neg and e^{psi} =
TransformEngine.exp_psi, whose T = 0 case is e^{psi1}, so no logarithm
branch is chosen.  laplace_neg is one numpy expression per law; its
values are checked against CPython's cmath form of the same formula and
against mpmath."""

import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest
from mpref import Reference

from arphase import (
    AR1Model,
    GainFunction,
    Innovation,
    NegativePart,
    PoleError,
    TransformEngine,
    ValidationError,
    sample_chains,
    validate,
)


@pytest.fixture(scope="module")
def inn_exp2():
    return Innovation(validate([[-2.0]], [1.0]), NegativePart.zero())


def sample(inn, rng, size):
    """Draws of Z = S - T: chain lifetimes, then T, from one generator."""
    return sample_chains(inn.s_part, rng, size, at=np.zeros(size))[0] - inn.t_part.sample(rng, size)


def exp_psi(inn):
    """E(e^{uZ}) as the engine evaluates it."""
    return TransformEngine(AR1Model(0.5, 0.5, inn)).exp_psi


class TestNegativePart:
    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            NegativePart.point_mass(-1.0)
        with pytest.raises(ValidationError):
            NegativePart.exponential(0.0)
        with pytest.raises(ValidationError):
            NegativePart.gamma_int(0, 1.0)
        with pytest.raises(ValidationError):
            NegativePart.gamma_int(2, -1.0)

    @pytest.mark.parametrize("cls, variant", [
        (NegativePart, "nope"), (NegativePart, "identity"), (NegativePart, 5), (NegativePart, [1]),
        (GainFunction, "nope"), (GainFunction, "zero"), (GainFunction, 5), (GainFunction, [1]),
    ])
    def test_unknown_variant_rejected(self, cls, variant):
        # An unhashable variant is unknown too, not a TypeError.
        message = f"unknown .* variant {re.escape(repr(variant))}$"
        with pytest.raises(ValidationError, match=message):
            cls(variant)

    @pytest.mark.parametrize("shape", [2.5, float("nan"), float("inf")])
    def test_non_integral_gamma_shape_rejected(self, shape):
        # gamma_int keeps the shape it is given, so 2.5 is not run as 2.
        with pytest.raises(ValidationError, match="gamma shape must be a positive integer"):
            NegativePart.gamma_int(shape, 1.0)


class TestPsi1:
    def test_zero(self, inn_exp2):
        assert exp_psi(inn_exp2)(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_scalar_log(self, inn_exp2):
        # 2 / (2 - 1)
        assert exp_psi(inn_exp2)(1.0) == pytest.approx(2.0, abs=1e-12)

    def test_pole(self, inn_exp2):
        with pytest.raises(PoleError):
            exp_psi(inn_exp2)(2.0)

    def test_exponentiates_to_laplace(self, dist_hyper2):
        inn = Innovation(dist_hyper2, NegativePart.zero())
        ref = Reference(inn)
        for u in (0.2, 0.5, 0.3 + 0.1j):
            assert abs(complex(ref.exp_psi(u)) - exp_psi(inn)(u)) < 1e-12


def cmath_laplace_neg(t, u: complex) -> complex:
    """E(e^{-uT}) at one point in CPython's cmath: exp of log E(e^{-uT})."""
    if t.variant == "zero":
        return 1.0 + 0.0j
    if t.variant == "point_mass":
        return cmath.exp(-u * t.d)
    return cmath.exp(t.shape * cmath.log(t.rate / (t.rate + u)))


def mp_relative_errors(t, u, values) -> list:
    """|value / E(e^{-uT}) - 1| per point for a continuous T, against
    (nu / (nu + u))^k at 40 digits."""
    with mp.workdps(40):
        refs = [(mp.mpf(t.rate) / (t.rate + mp.mpc(v))) ** t.shape for v in u]
        return [float(abs(mp.mpc(v) / r - 1)) for v, r in zip(values, refs)]


def law_id(t) -> str:
    return {"zero": "zero", "point_mass": f"point_mass-{t.d}", "exponential": "exponential"}.get(
        t.variant, f"gamma_int-{t.shape}")


class TestPsi2:
    def test_zero_variant(self):
        t = NegativePart.zero()
        assert t.laplace_neg(0.7) == 1.0

    def test_point_mass(self):
        t = NegativePart.point_mass(1.0)
        assert t.laplace_neg(1.0) == pytest.approx(math.exp(-1.0))

    def test_exponential(self):
        t = NegativePart.exponential(2.0)
        assert t.laplace_neg(2.0) == pytest.approx(0.5)

    def test_gamma_int(self):
        t = NegativePart.gamma_int(3, 2.0)
        assert t.laplace_neg(2.0) == pytest.approx(0.125)


class TestArrays:
    # Real points, complex points, a point mass at 0 and a pole of T.
    POINTS = np.array([[0.0, 0.3, 1.7, -0.4], [0.2 + 0.5j, -1.1 - 0.3j, 2.5, 1e-300]])
    T_LAWS = [NegativePart.zero(), NegativePart.point_mass(0.0), NegativePart.point_mass(0.3),
              NegativePart.exponential(2.0), NegativePart.gamma_int(2, 3.0)]
    CONTINUOUS = [NegativePart.exponential(2.0), NegativePart.gamma_int(2, 3.0),
                  NegativePart.gamma_int(5, 1.5), NegativePart.gamma_int(30, 0.7)]

    @staticmethod
    def random_points(rng, n):
        """n real u from 1e-12 nu to 10 nu on a log scale, then n complex u
        with Re u in (-nu / 2, 5 nu) and |Im u| < 3 nu, all for nu = 1."""
        real = 10.0 ** rng.uniform(-12.0, 1.0, n)
        return np.concatenate([real, rng.uniform(-0.5, 5.0, n) + 1j * rng.uniform(-3.0, 3.0, n)])

    @pytest.mark.parametrize("t", T_LAWS, ids=lambda t: f"{t.variant}-{t.d}")
    def test_laplace_neg_is_cmath_exp_of_the_log(self, t):
        # Equal to the cmath form within rounding: bit for bit where no
        # logarithm is taken, within a few ulps for the exponential and
        # gamma laws, whose complex log and division are numpy's.
        got = t.laplace_neg(self.POINTS)
        assert got.shape == self.POINTS.shape
        want = np.array([cmath_laplace_neg(t, u) for u in self.POINTS.flat])
        if t.variant in ("zero", "point_mass"):
            assert got.ravel().tolist() == want.tolist()
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("t", T_LAWS + CONTINUOUS[2:], ids=law_id)
    def test_laplace_neg_bits_do_not_depend_on_the_array(self, t):
        # The chain tables evaluate E(e^{-uT}) in blocks of any size, and
        # exp_phi and pole_weight one point at a time: an element's value
        # must not depend on its offset in the array or on the array's size.
        u = 2.0 * self.random_points(np.random.default_rng(11), 40)
        whole = t.laplace_neg(u)
        for offset in range(9):
            assert t.laplace_neg(u[offset:]).tolist() == whole[offset:].tolist()
        assert [complex(t.laplace_neg(v)) for v in u] == whole.tolist()

    @pytest.mark.parametrize("t", CONTINUOUS, ids=law_id)
    def test_laplace_neg_no_less_accurate_than_cmath(self, t):
        # 4,000 points per law against 40-digit mpmath: the largest relative
        # error of the array expression is at most that of the cmath form.
        u = t.rate * self.random_points(np.random.default_rng(7), 2000)
        err_new = mp_relative_errors(t, u, t.laplace_neg(u).tolist())
        err_old = mp_relative_errors(t, u, [cmath_laplace_neg(t, v) for v in u])
        assert max(err_new) <= max(err_old)

    @pytest.mark.parametrize("t", T_LAWS, ids=lambda t: f"{t.variant}-{t.d}")
    def test_exp_psi_array_is_the_python_product(self, dist_hyper2, t):
        # Each element is the resolvent sum times E(e^{-uT}) in Python's
        # complex product, as one scalar evaluation computes it.
        engine = TransformEngine(AR1Model(0.5, 0.5, Innovation(dist_hyper2, t)))
        got = engine.exp_psi(self.POINTS)
        assert got.shape == self.POINTS.shape
        for u, value in zip(self.POINTS.flat, got.flat):
            resolvent = complex(np.sum(engine.r / (engine.mu - u)))
            assert value == resolvent * complex(t.laplace_neg(u))
            assert engine.exp_psi(u) == value

    def test_pole_names_the_argument(self, inn_exp2):
        with pytest.raises(PoleError, match=r"argument \(2\+0j\) collides with eigenvalue 2\.0"):
            exp_psi(inn_exp2)(np.array([0.5, 1.0, 2.0]))
        with pytest.raises(PoleError, match="psi2 undefined"):
            NegativePart.exponential(2.0).laplace_neg(np.array([0.5, -2.0]))


class TestPsi:
    def test_zero(self, dist_exp1):
        inn = Innovation(dist_exp1, NegativePart.exponential(1.0))
        assert exp_psi(inn)(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_reduces_to_psi1_without_t(self, inn_exp2):
        for u in (0.1, 0.8, 1.5):
            assert exp_psi(inn_exp2)(u) == pytest.approx(2.0 / (2.0 - u))

    def test_against_monte_carlo(self, dist_exp1):
        inn = Innovation(dist_exp1, NegativePart.exponential(2.0))
        u = 0.3
        rng = np.random.default_rng(99)
        z = sample(inn, rng, 1_000_000)
        vals = np.exp(u * z)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exp_psi(inn)(u).real) < 3 * se

    def test_additivity_identity(self, dist_hyper2):
        # E(e^{uZ}) = E(e^{uS}) E(e^{-uT}) on complex points, against
        # the reference's own resolvent and closed-form T transform.
        inn = Innovation(dist_hyper2, NegativePart.exponential(1.5))
        ref = Reference(inn)
        rng = np.random.default_rng(4)
        cap = 0.9 * float(dist_hyper2.spectral.mu.real.min())
        for _ in range(20):
            u = complex(rng.uniform(0.0, cap), rng.uniform(-1.0, 1.0))
            assert abs(exp_psi(inn)(u) - complex(ref.exp_psi(u))) < 1e-12


class TestSampling:
    # E(Z) = E(S) - E(T), E(S) = 0.4 / 1 + 0.6 / 3 for the hyperexponential.
    @pytest.mark.parametrize(
        "t_part, t_mean",
        [
            (NegativePart.zero(), 0.0),
            (NegativePart.point_mass(0.3), 0.3),
            (NegativePart.exponential(2.0), 0.5),
            (NegativePart.gamma_int(2, 3.0), 2.0 / 3.0),
        ],
        ids=[f"t_part{k}" for k in range(4)],
    )
    def test_mean(self, dist_hyper2, t_part, t_mean):
        inn = Innovation(dist_hyper2, t_part)
        rng = np.random.default_rng(12)
        z = sample(inn, rng, 100_000)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - (0.6 - t_mean)) < 3 * se

    def test_log_moment_finite(self, dist_hyper2):
        # E log(1 + |Z|) is finite for every supported family
        inn = Innovation(dist_hyper2, NegativePart.exponential(1.0))
        rng = np.random.default_rng(8)
        z = sample(inn, rng, 100_000)
        assert np.isfinite(np.log1p(np.abs(z)).mean())
