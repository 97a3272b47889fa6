"""Innovation model Z = S - T: Laplace transforms of S, T and Z, and
samples of Z drawn as the simulator draws them, a chain lifetime minus T.

psi1, psi2 and psi name the log-Laplace exponents of S, -T and Z; the
package evaluates psi2 = T's log_laplace_neg and e^{psi} =
TransformEngine.exp_psi, whose T = 0 case is e^{psi1}, so no logarithm
branch is chosen."""

import math

import numpy as np
import pytest
from mpref import Reference

from arphase import (
    AR1Model,
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


class TestPsi2:
    def test_zero_variant(self):
        t = NegativePart.zero()
        assert t.log_laplace_neg(0.7) == 0.0

    def test_point_mass(self):
        t = NegativePart.point_mass(1.0)
        assert t.log_laplace_neg(1.0) == pytest.approx(-1.0)

    def test_exponential(self):
        t = NegativePart.exponential(2.0)
        assert t.log_laplace_neg(2.0) == pytest.approx(math.log(0.5))

    def test_gamma_int(self):
        t = NegativePart.gamma_int(3, 2.0)
        assert t.log_laplace_neg(2.0) == pytest.approx(3.0 * math.log(0.5))


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
