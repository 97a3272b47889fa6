"""Innovation model Z = S - T.

S is phase-type distributed and T >= 0 comes from a small closed family
of laws with closed-form Laplace transforms E(e^{-uT}), numpy array
expressions defined at arbitrary complex arguments.  With S's resolvent
they give E(e^{uZ}), which TransformEngine.exp_psi evaluates without
choosing a logarithm branch.
"""

from __future__ import annotations

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
    shape: int = 0       # integer gamma shape; 1 for the exponential law

    def __post_init__(self):
        if self.variant not in tuple(self.PARAMS):
            raise ValidationError(f"unknown negative-part variant {self.variant!r}")
        if not (math.isfinite(self.d) and math.isfinite(self.rate)):
            raise ValidationError(f"T parameters must be finite, got d={self.d}, rate={self.rate}")
        if self.variant == "point_mass" and self.d < 0:
            raise ValidationError("point mass location must be nonnegative")
        params = self.PARAMS[self.variant]
        # Readers take the law from the fields alone: d is 0 but for a point
        # mass, and shape is 1 for the exponential law and 0 without a rate.
        object.__setattr__(self, "d", self.d if "d" in params else 0.0)
        if "shape" not in params:
            object.__setattr__(self, "shape", int("rate" in params))
        if "rate" in params:
            if self.rate <= 0:
                raise ValidationError(f"{self.variant} rate must be positive")
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

    def laplace_neg(self, u) -> np.ndarray:
        """E(e^{-uT}) elementwise over a complex array u: 1, e^{-ud}, or
        (nu / (nu + u))^k for the exponential (k = 1) and gamma laws, as
        exp(k log(nu / (nu + u))).  Each element rounds alike at any array
        offset and for 0-d u; ratio ** k would not."""
        u = np.asarray(u, dtype=complex)
        if self.variant == "zero":
            return np.ones(u.shape, dtype=complex)
        if self.variant == "point_mass":
            return np.exp(-u * self.d)
        nu = self.rate
        if np.any(np.abs(nu + u) < 1e-300):
            raise PoleError(f"psi2 undefined at u = {-nu} for rate {nu}")
        return np.exp(self.shape * np.log(nu / (nu + u)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.variant in ("zero", "point_mass"):
            return np.full(size, self.d)
        if self.shape == 1:
            # The bits of rng.gamma(1, ...), drawn faster.
            return rng.exponential(1.0 / self.rate, size)
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Innovation:
    """Z = S - T with independent phase-type S and parametric T."""

    s_part: PhaseTypeDist
    t_part: NegativePart

    @property
    def m(self) -> int:
        return self.s_part.m

