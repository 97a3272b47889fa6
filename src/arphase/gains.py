"""Gain functions for the stopping problem and overshoot functionals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class GainFunction:
    """Nonnegative continuous payoff g; closed-form overshoot expectations
    exist for every variant except `custom`.  PARAMS maps each variant a
    config may name to its parameters and their types; `custom`, which
    takes a Python callable, is for library use only and stays out of it."""

    PARAMS = {"identity": {}, "power": {"n": int}, "call": {"strike": float}}

    variant: str
    n: int = 0
    strike: float = 0.0
    func: object = None

    def __post_init__(self):
        if self.variant not in (*self.PARAMS, "custom"):
            raise ValidationError(f"unknown gain variant {self.variant!r}")
        if self.variant == "power" and self.n < 0:
            raise ValidationError("power exponent must be nonnegative")
        if self.variant == "call" and not math.isfinite(self.strike):
            raise ValidationError(f"call strike must be finite, got {self.strike}")
        if self.variant == "custom" and not callable(self.func):
            raise ValidationError("custom gain requires a callable")

    @classmethod
    def identity(cls) -> "GainFunction":
        return cls("identity")

    @classmethod
    def power(cls, n: int) -> "GainFunction":
        return cls("power", n=int(n))

    @classmethod
    def call(cls, strike: float) -> "GainFunction":
        return cls("call", strike=float(strike))

    @classmethod
    def custom(cls, func) -> "GainFunction":
        return cls("custom", func=func)

    def __call__(self, x):
        if self.variant == "identity":
            return x
        if self.variant == "power":
            return np.power(x, self.n)
        if self.variant == "call":
            return np.maximum(np.asarray(x) - self.strike, 0.0)
        return self.func(x)
