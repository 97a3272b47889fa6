"""Innovation model Z = S - T.

S is phase-type distributed and T >= 0 comes from a small closed family
of laws with closed-form Laplace transforms E(e^{-uT}), defined at
arbitrary complex arguments.  With S's resolvent they give E(e^{uZ}),
which TransformEngine.exp_psi evaluates without taking a logarithm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, ValidationError
from .phasetype import PhaseTypeDist


@dataclass(frozen=True)
class NegativePart:
    """The nonnegative subtrahend T of the innovation Z = S - T.  PARAMS
    maps each variant to its parameters and their types."""

    PARAMS = {
        "zero": {},
        "point_mass": {"d": float},
        "exponential": {"rate": float},
        "gamma_int": {"shape": int, "rate": float},
    }

    variant: str
    d: float = 0.0       # point mass location
    rate: float = 0.0    # exponential / gamma rate
    shape: int = 0       # integer gamma shape

    def __post_init__(self):
        if self.variant not in tuple(self.PARAMS):
            raise ValidationError(f"unknown negative-part variant {self.variant!r}")
        if not (math.isfinite(self.d) and math.isfinite(self.rate)):
            raise ValidationError(f"T parameters must be finite, got d={self.d}, rate={self.rate}")
        if self.variant == "point_mass" and self.d < 0:
            raise ValidationError("point mass location must be nonnegative")
        if self.variant == "exponential" and self.rate <= 0:
            raise ValidationError("exponential rate must be positive")
        if self.variant == "gamma_int":
            if self.rate <= 0:
                raise ValidationError("gamma rate must be positive")
            if not (self.shape >= 1 and float(self.shape).is_integer()):
                raise ValidationError("gamma shape must be a positive integer")

    @classmethod
    def zero(cls) -> "NegativePart":
        return cls("zero")

    @classmethod
    def point_mass(cls, d: float) -> "NegativePart":
        return cls("point_mass", d=float(d))

    @classmethod
    def exponential(cls, rate: float) -> "NegativePart":
        return cls("exponential", rate=float(rate))

    @classmethod
    def gamma_int(cls, shape: int, rate: float) -> "NegativePart":
        return cls("gamma_int", rate=float(rate), shape=shape)

    def log_laplace_neg(self, u: complex) -> complex:
        """psi2(u) = log E(e^{-uT}), analytic on the right half plane."""
        u = complex(u)
        if self.variant == "zero":
            return 0.0 + 0.0j
        if self.variant == "point_mass":
            return -u * self.d
        nu = self.rate
        if abs(nu + u) < 1e-300:
            raise PoleError(f"psi2 undefined at u = {-nu} for rate {nu}")
        if self.variant == "exponential":
            return cmath.log(nu / (nu + u))
        return self.shape * cmath.log(nu / (nu + u))

    def laplace_neg(self, u) -> np.ndarray:
        """E(e^{-uT}) = e^{psi2(u)} elementwise over a complex array u.

        Each value is exactly cmath.exp(log_laplace_neg(u)).  The
        logarithmic laws take cmath one element at a time for that: numpy's
        complex log and division round differently.
        """
        u = np.asarray(u, dtype=complex)
        if self.variant == "zero":
            return np.ones(u.shape, dtype=complex)
        if self.variant == "point_mass":
            return np.exp(-u * self.d)
        values = [cmath.exp(self.log_laplace_neg(v)) for v in u.flat]
        return np.array(values, dtype=complex).reshape(u.shape)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.variant == "zero":
            return np.zeros(size)
        if self.variant == "point_mass":
            return np.full(size, self.d)
        if self.variant == "exponential":
            return rng.exponential(1.0 / self.rate, size=size)
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def quadrature_nodes(self, n: int):
        """Nodes/weights (t_i, w_i) with sum w_i f(t_i) approximating E f(T)."""
        if self.variant == "zero":
            return np.array([0.0]), np.array([1.0])
        if self.variant == "point_mass":
            return np.array([self.d]), np.array([1.0])
        from scipy.special import roots_genlaguerre

        k = 1 if self.variant == "exponential" else self.shape
        x, w = roots_genlaguerre(n, k - 1)
        return x / self.rate, w / math.gamma(k)


@dataclass(frozen=True)
class Innovation:
    """Z = S - T with independent phase-type S and parametric T."""

    s_part: PhaseTypeDist
    t_part: NegativePart

    @property
    def m(self) -> int:
        return self.s_part.m

