"""Reference values and checks, written independently of arphase.

Nothing here imports the package under test: the single-phase closed form,
the one-step lower bound and the statistical thresholds are re-derived
from the model definition with numpy/scipy alone.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy.linalg import expm

# Per-run false-alarm budget shared by all statistical checks of one run.
RUN_FALSE_ALARM = 1e-5
MIN_Z = 4.0


def z_threshold(n_checks: int) -> float:
    """Two-sided normal threshold, Bonferroni-corrected, never below 4."""
    alpha = RUN_FALSE_ALARM / max(1, n_checks)
    return max(MIN_Z, NormalDist().inv_cdf(1.0 - alpha / 2.0))


def ks_threshold(n_samples: int, n_checks: int) -> float:
    """DKW bound sqrt(ln(2/alpha) / 2n) at the corrected level."""
    alpha = RUN_FALSE_ALARM / max(1, n_checks)
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n_samples))


def _t_laplace(t: dict, u):
    """E(e^{-uT}) for the parametric T families."""
    variant = t.get("variant", "zero")
    if variant == "zero":
        return np.ones_like(u)
    if variant == "point_mass":
        return np.exp(-u * t["d"])
    shape = 1 if variant == "exponential" else t["shape"]
    return (t["rate"] / (t["rate"] + u)) ** shape


def _t_matrix(t: dict, Q: np.ndarray) -> np.ndarray:
    """E(e^{QT}) as a matrix."""
    variant = t.get("variant", "zero")
    eye = np.eye(Q.shape[0])
    if variant == "zero":
        return eye
    if variant == "point_mass":
        return expm(Q * t["d"])
    shape = 1 if variant == "exponential" else t["shape"]
    step = t["rate"] * np.linalg.inv(t["rate"] * eye - Q)
    return np.linalg.matrix_power(step, shape)


class SinglePhaseClosedForm:
    """E_x(rho^tau) for one exponential phase and any supported T:

        sum_{n>=1} rho^n e^{lam^n mu x - phi(lam^n mu)}
        --------------------------------------------------------------------
        sum_{n>=0} rho^n e^{lam^n mu b - phi(lam^{n+1} mu)} / E(e^{-lam^n mu T})

    with phi(u) = sum_{k>=0} log E(e^{lam^k u Z}).  Every term is positive,
    so double precision carries no cancellation.
    """

    def __init__(self, mdl: dict):
        self.mu = -float(mdl["Q"][0][0])
        self.lam, self.rho = float(mdl["lambda"]), float(mdl["rho"])
        self.t = mdl.get("t", {"variant": "zero"})
        n_terms = int(math.ceil(math.log(1e-20) / math.log(self.rho))) + 2
        n_log = n_terms + 200
        args = self.mu * self.lam ** np.arange(n_log)       # lam^j mu
        with np.errstate(divide="ignore"):
            log_psi = np.log(self.mu / (self.mu - args)) + np.log(_t_laplace(self.t, args))
        log_psi[0] = np.inf                                  # pole at u = mu
        # phi(lam^j mu) = sum_{k >= j} log_psi[k]
        phi = np.cumsum(log_psi[::-1])[::-1]
        n = np.arange(n_terms)
        self.args = args[:n_terms]
        self.num_w = np.where(n >= 1, self.rho ** n * np.exp(-phi[np.minimum(n, n_log - 1)]), 0.0)
        self.den_w = self.rho ** n * np.exp(-phi[n + 1]) / _t_laplace(self.t, self.args)

    def laplace_tau(self, xs, b: float) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        num = np.exp(np.multiply.outer(xs, self.args)) @ self.num_w
        den = float(np.exp(b * self.args) @ self.den_w)
        return num / den


def first_step_bound(mdl: dict, b: float, xs) -> np.ndarray:
    """Per-phase lower bound rho * P(X_1 >= b, phase i at crossing | X_0 = x).

    The chain started at alpha is in phase i at the crossing time
    u = b - lam x + T with probability (alpha e^{Qu})_i.
    """
    Q = np.asarray(mdl["Q"], dtype=float)
    alpha = np.asarray(mdl["alpha"], dtype=float)
    lam, rho = float(mdl["lambda"]), float(mdl["rho"])
    tail = _t_matrix(mdl.get("t", {"variant": "zero"}), Q)
    out = [rho * (alpha @ expm(Q * max(b - lam * x, 0.0)) @ tail) for x in xs]
    return np.clip(np.array(out), 0.0, None)

