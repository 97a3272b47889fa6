"""The infinite q-Pochhammer symbol: the Euler function and the q-binomial
identity."""

import numpy as np
import pytest

from arphase import ValidationError, q_pochhammer_inf

# (1/2; 1/2)_inf evaluated by partial products until the factors are
# within 1e-12 of 1 (independent high-precision evaluation).
EULER_HALF = 0.2887880950866024


class TestQPochhammerInf:
    def test_a_zero(self):
        assert q_pochhammer_inf(0.0, 0.5) == 1.0

    def test_euler_half(self):
        assert q_pochhammer_inf(0.5, 0.5) == pytest.approx(EULER_HALF, abs=1e-12)

    @pytest.mark.parametrize("a, q, message", [
        (0.5, 1.0, "|q| must be < 1"),
        (0.5, -1.5, "|q| must be < 1"),
        (2.0, 0.5, "|a| must be < 1/|q|"),
        (-4.0, -0.25, "|a| must be < 1/|q|"),
    ])
    def test_refusals_are_validation_errors(self, a, q, message):
        # A package error, and still a ValueError for handlers that catch one.
        with pytest.raises(ValidationError) as info:
            q_pochhammer_inf(a, q)
        assert str(info.value).startswith(message)


class TestQBinomialTheorem:
    @staticmethod
    def series(z, q):
        total, term, poch = 0.0, 1.0, 1.0
        for k in range(1, 10_000):
            total += term / poch
            term *= z
            poch *= 1.0 - q ** k
            if abs(term / poch) < 1e-18 * max(1.0, abs(total)):
                return total
        raise AssertionError("series did not converge")

    def test_reference_point(self):
        z, q = 0.3, 0.5
        assert self.series(z, q) * q_pochhammer_inf(z, q) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            z = float(rng.uniform(-0.8, 0.8))
            q = float(rng.uniform(0.1, 0.8))
            resid = abs(self.series(z, q) - 1.0 / q_pochhammer_inf(z, q))
            assert resid < 1e-10
