"""Analytic engine for the AR(1) model with phase-type positive innovations.

Everything here is built from the log-Laplace exponent of the stationary
limit, phi(u) = sum_{k>=0} psi(lambda^k u), and from matrix series whose
arguments are scalar multiples of Q.  Since all such matrices share the
spectral projectors of Q, every matrix-valued series collapses to m
scalar series evaluated at the eigenvalues; the engine works with those
per-eigenvalue scalars and reassembles matrices only on demand.

Series tails: once the exponents in a term fall below machine precision
the remaining terms are geometric in rho and are closed analytically, so
truncation error sits at rounding level rather than at the tolerance.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PoleError, ValidationError
from .innovations import Innovation, _checked_log, psi as _psi_scalar
from .phasetype import POLE_GUARD

_SEPARATION_GAP = 1e-8


@dataclass(frozen=True)
class AR1Model:
    """X_n = lambda X_{n-1} + Z_n with discount rho, innovations Z = S - T."""

    lam: float
    rho: float
    inn: Innovation

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValidationError(f"lambda must lie in (0,1), got {self.lam}")
        if not 0.0 < self.rho < 1.0:
            raise ValidationError(f"rho must lie in (0,1), got {self.rho}")
        _check_separation(self.inn.s_part.spectral.mu, self.lam, 1.0)

    @property
    def m(self) -> int:
        return self.inn.m


def _check_separation(mu: np.ndarray, lam: float, gamma: complex) -> None:
    """Require lambda^n gamma mu_j to stay away from every mu_i, n >= 1.

    This covers both the lambda^n Q spectral-separation condition (gamma=1)
    and its gamma-scaled variant; only finitely many n matter because the
    scaled eigenvalues decay geometrically below min Re(mu).
    """
    mu = np.asarray(mu)
    floor = 0.5 * float(np.min(mu.real))
    scaled = gamma * mu * lam
    n = 1
    while float(np.max(np.abs(scaled))) >= floor:
        for a in scaled:
            for b in mu:
                if abs(a - b) < _SEPARATION_GAP * max(1.0, abs(b)):
                    raise ValidationError(
                        f"eigenvalue separation violated: lambda^{n} * gamma * mu "
                        f"= {a} collides with eigenvalue {b} of -Q"
                    )
        scaled = scaled * lam
        n += 1
        if n > 10_000:
            break


class TransformEngine:
    """Caches the spectral data of one AR1Model and evaluates phi, f_gamma,
    alpha_delta, h, psi^i and eta.

    Immutable after construction apart from the write-once phi cache;
    concurrent readers are safe.
    """

    def __init__(self, model: AR1Model, tol: float = 1e-12, max_terms: int = 10_000):
        if tol <= 0:
            raise ValidationError("tol must be positive")
        self.model = model
        self.tol = float(tol)
        self.max_terms = int(max_terms)

        dist = model.inn.s_part
        sd = dist.spectral
        self.sd = sd
        self.mu = sd.mu
        self.m = sd.m
        # alpha P_j as rows, and the resolvent residues alpha P_j q, e_i P_j q.
        self.alpha_rows = np.array([dist.alpha @ P for P in sd.projectors])
        self.r = np.array([dist.alpha @ P @ dist.q for P in sd.projectors])
        self.u_mat = np.array([P @ dist.q for P in sd.projectors]).T  # u_mat[i, j]
        # L_T(mu_j) = E(e^{-mu_j T}).
        self.lt = np.array(
            [np.exp(model.inn.t_part.log_laplace_neg(muj)) for muj in sd.mu]
        )
        self.psi2_mu = np.array(
            [model.inn.t_part.log_laplace_neg(muj) for muj in sd.mu]
        )
        self._phi_cache: dict[complex, complex] = {}
        self._exp_phi_cache: dict[complex, complex] = {}

    # -- scalar transforms -------------------------------------------------

    def psi(self, u: complex) -> complex:
        return _psi_scalar(self.model.inn, u)

    def exp_psi(self, u: complex) -> complex:
        """E(e^{uZ}) continued analytically: alpha(-uI-Q)^{-1}q * e^{psi2(u)}.

        Unlike psi this needs no branch choice; past a pole of the resolvent
        the value may be a negative real.
        """
        self._pole_guard(u, what="exp_psi")
        resolvent = complex(np.sum(self.r / (self.mu - u)))
        return resolvent * cmath.exp(self.model.inn.t_part.log_laplace_neg(u))

    def psi_i(self, i: int, u: complex) -> complex:
        """Principal-branch log of e_i (-uI - Q)^{-1} q."""
        return _checked_log(self.resolvent_i(i, u), f"psi_{i}")

    def resolvent_i(self, i: int, u: complex) -> complex:
        """e_i (-uI - Q)^{-1} q, the transform value itself (sign-carrying)."""
        self._pole_guard(u, what="psi_i")
        return complex(np.sum(self.u_mat[i] / (self.mu - u)))

    def _pole_guard(self, u: complex, what: str) -> None:
        for muj in self.mu:
            if abs(u - muj) < POLE_GUARD * max(1.0, abs(muj)):
                raise PoleError(f"{what}: argument {u} collides with eigenvalue {muj}")

    def phi(self, u: complex) -> complex:
        """Stationary log-Laplace phi(u) = sum_{k>=0} psi(lambda^k u)."""
        u = complex(u)
        if u == 0:
            return 0.0 + 0.0j
        cached = self._phi_cache.get(u)
        if cached is not None:
            return cached
        lam = self.model.lam
        total = 0.0 + 0.0j
        arg = u
        prev_imag = None
        for k in range(self.max_terms):
            try:
                term = self.psi(arg)
            except PoleError as exc:
                raise PoleError(f"phi: term k={k}: {exc}") from exc
            # Branch continuity along the series: unwrap jumps of ~2*pi.
            if prev_imag is not None:
                jump = term.imag - prev_imag
                if abs(jump) > cmath.pi:
                    term -= 2j * cmath.pi * round(jump / (2 * cmath.pi))
            prev_imag = term.imag
            total += term
            if abs(term) < self.tol * (1.0 - lam):
                self._phi_cache[u] = total
                return total
            arg *= lam
        raise ConvergenceError(f"phi series did not converge at u={u}")

    def exp_phi(self, u: complex) -> complex:
        """e^{phi(u)} as the product prod_{k>=0} E(e^{lambda^k u Z}).

        Working with the product avoids logarithm branch choices entirely;
        individual factors past a resolvent pole may be negative.
        """
        u = complex(u)
        if u == 0:
            return 1.0 + 0.0j
        cached = self._exp_phi_cache.get(u)
        if cached is not None:
            return cached
        lam = self.model.lam
        total = 1.0 + 0.0j
        arg = u
        for k in range(self.max_terms):
            try:
                factor = self.exp_psi(arg)
            except PoleError as exc:
                raise PoleError(f"exp_phi: factor k={k}: {exc}") from exc
            total *= factor
            if abs(factor - 1.0) < self.tol * (1.0 - lam):
                self._exp_phi_cache[u] = total
                return total
            arg *= lam
        raise ConvergenceError(f"exp_phi product did not converge at u={u}")

    def exp_phi_at_eigen(self, c: complex) -> np.ndarray:
        """e^{phi(c * mu_j)} for every eigenvalue, as a vector."""
        return np.array([self.exp_phi(c * muj) for muj in self.mu])

    # -- matrix series -----------------------------------------------------

    def check_gamma(self, gamma: complex) -> None:
        _check_separation(self.mu, self.model.lam, gamma)

    def f_series_scalars(self, x: float, gamma: complex = 1.0):
        """Per-eigenvalue values F_j of the martingale series

            F_j = sum_{n>=1} exp(x lam^n gamma mu_j - phi(lam^n gamma mu_j)) rho^{n-1}

        so that f_gamma(x) = sum_j F_j P_j.  Returns (F, error_bound).
        """
        if gamma != 1.0:
            self.check_gamma(gamma)
        lam, rho = self.model.lam, self.model.rho
        F = np.zeros(self.m, dtype=complex)
        n = 1
        while n <= self.max_terms:
            args = (lam ** n) * gamma * self.mu
            factors = np.exp(x * args) / np.array([self.exp_phi(a) for a in args])
            F += factors * rho ** (n - 1)
            dev = float(np.max(np.abs(factors - 1.0)))
            tail_scale = rho ** n / (1.0 - rho)
            if dev < 1e-15:
                # Remaining terms are rho^{n'-1}(1 + O(dev * lam)); close the
                # geometric tail analytically.
                F += tail_scale
                return F, dev * lam * tail_scale
            if tail_scale * float(np.max(np.abs(factors))) < self.tol:
                return F, tail_scale * float(np.max(np.abs(factors)))
            n += 1
        raise ConvergenceError(f"f_gamma series did not converge at x={x}, gamma={gamma}")

    def f_gamma(self, x: float, gamma: complex = 1.0) -> np.ndarray:
        """The m x m matrix f_gamma(x) = sum_n e^{x lam^n Q_gamma - phi(lam^n Q_gamma)} rho^{n-1}."""
        F, _ = self.f_series_scalars(x, gamma)
        return np.tensordot(F, self.sd.projectors, axes=(0, 0))

    def alpha_delta(self, delta: complex, b: float) -> np.ndarray:
        """Row vector rho * alpha (-delta I - Q)^{-1} e^{(delta I + Q) b + psi2(-Q)}."""
        self._pole_guard(delta, what="alpha_delta")
        rho = self.model.rho
        coeff = rho / (self.mu - delta) * np.exp((delta - self.mu) * b) * self.lt
        return coeff @ self.alpha_rows

    def h_func(self, x: float, delta: complex, b: float, gamma: complex = 1.0) -> complex:
        """h_{gamma,delta}(x) = e^{delta x} 1_{x>=b} + beta_{gamma,delta} f_gamma(x) q."""
        self._pole_guard(delta, what="h_func")
        F, _ = self.f_series_scalars(x, gamma)
        exp_phi_l = self.exp_phi_at_eigen(gamma * self.model.lam)
        series = np.sum(
            self.model.rho
            * self.r
            / (self.mu - delta)
            * np.exp((delta - self.mu) * b)
            * self.lt
            * exp_phi_l
            * F
        )
        indicator = cmath.exp(delta * x) if x >= b else 0.0
        return complex(indicator + series)

    def eta_series_scalars(self, i: int, b: float, gamma: complex = 1.0):
        """Per-eigenvalue values G_{ij} of the series inside alpha_{gamma,i}:

            G_{ij} = sum_{n>=1} rho^n exp(b lam^n gamma mu_j
                                          - phi(lam^n gamma mu_j)
                                          + psi^i(lam^n gamma mu_j)).
        """
        if gamma != 1.0:
            self.check_gamma(gamma)
        lam, rho = self.model.lam, self.model.rho
        G = np.zeros(self.m, dtype=complex)
        n = 1
        while n <= self.max_terms:
            args = (lam ** n) * gamma * self.mu
            factors = (
                np.exp(b * args)
                / np.array([self.exp_phi(a) for a in args])
                * np.array([self.resolvent_i(i, a) for a in args])
            )
            G += factors * rho ** n
            dev = float(np.max(np.abs(factors - 1.0)))
            tail_scale = rho ** (n + 1) / (1.0 - rho)
            if dev < 1e-15:
                G += tail_scale
                return G, dev * lam * tail_scale
            if tail_scale * float(np.max(np.abs(factors))) < self.tol:
                return G, tail_scale * float(np.max(np.abs(factors)))
            n += 1
        raise ConvergenceError(f"eta series did not converge for phase {i}")

    def eta_residues(self, i: int, b: float, gamma: complex = 1.0) -> np.ndarray:
        """Residues a_{ij} of e^{-delta b} eta_{gamma,delta,i} at delta = mu_j.

        e^{-delta b} eta_{gamma,delta,i} = sum_j a_{ij} / (mu_j - delta).
        """
        G, _ = self.eta_series_scalars(i, b, gamma)
        exp_phi_l = self.exp_phi_at_eigen(gamma * self.model.lam)
        weight = self.r * np.exp(-self.mu * b + self.psi2_mu) * exp_phi_l
        return self.u_mat[i] + weight * G

    def eta(self, delta: complex, i: int, b: float, gamma: complex = 1.0) -> complex:
        """eta_{gamma,delta,i} = E(h_{gamma,delta}(b + R^i)) = e^{delta b} alpha_{gamma,i} (-delta I - Q)^{-1} q."""
        self._pole_guard(delta, what="eta")
        a = self.eta_residues(i, b, gamma)
        return complex(cmath.exp(delta * b) * np.sum(a / (self.mu - delta)))
