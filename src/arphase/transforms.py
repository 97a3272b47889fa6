"""Analytic engine for the AR(1) model with phase-type positive innovations.

Everything here is built from the stationary transform

    e^{phi(u)} = prod_{k>=0} E(e^{lambda^k u Z}),

evaluated only as that product of E(e^{aZ}) = alpha (-aI - Q)^{-1} q
E(e^{-aT}) factors, so no logarithm branch is ever chosen; past a pole of
the resolvent a factor may be a negative real.  The matrix series have
arguments that are scalar multiples of Q.  Since all such matrices share
the spectral projectors of Q, every matrix-valued series collapses to m
scalar series evaluated at the eigenvalues; the engine works with those
per-eigenvalue scalars and reassembles matrices only on demand.

The series evaluate e^{phi} along lambda-chains a_n = lambda^n a_1.  As
e^{phi(u)} = E(e^{uZ}) e^{phi(lambda u)}, one backward pass over the
chain's factors E(e^{a_n Z}) gives every value of a chain, with O(K)
exp_psi calls for a chain of K factors.

Series tails: once the exponents in a term fall below machine precision
the remaining terms are geometric in rho and are closed analytically, so
truncation error sits at rounding level rather than at the tolerance.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PoleError, ValidationError
from .innovations import Innovation
from .phasetype import POLE_GUARD

_SEPARATION_GAP = 1e-8
_MAX_TERMS = 10_000  # factors of an exp_phi product, terms of a tail series
# Cut of the exp_phi products and of the tail series; a ResidueSystem's
# error bound is its condition number times this.
SERIES_TOL = 1e-12


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
    and its gamma-scaled variant, for every n.  The argument of
    lambda^n gamma mu_j does not move with n, so |lambda^n gamma mu_j - mu_i|^2
    is a convex quadratic in the modulus r = lambda^n |gamma mu_j|, least at
    r* = Re(mu_i conj(gamma mu_j)) / |gamma mu_j|: per pair (j, i) only the
    two n whose moduli bracket r* can come closest.
    """
    mu = np.asarray(mu, dtype=complex)
    start = (gamma * lam * mu)[:, None]  # n = 1, rows j
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.log((mu * np.conj(start)).real / np.abs(start) ** 2) / np.log(lam)
    # No bracket (r* <= 0, or a zero start): n = 1 then comes no closer than |mu_i|.
    steps = np.where(np.isfinite(steps) & (steps > 0), steps, 0.0)
    n = np.stack([np.floor(steps), np.ceil(steps)]) + 1
    scaled = start * lam ** (n - 1)
    hit = np.abs(scaled - mu) < _SEPARATION_GAP * np.maximum(1.0, np.abs(mu))
    if hit.any():
        k, j, i = np.argwhere(hit)[0]
        raise ValidationError(
            f"eigenvalue separation violated: lambda^{int(n[k, j, i])} * gamma * mu "
            f"= {scaled[k, j, i]} collides with eigenvalue {mu[i]} of -Q"
        )


class TransformEngine:
    """Caches the spectral data of one AR1Model and evaluates E(e^{uZ}),
    e^{phi(u)}, f_gamma, alpha_delta, h and the residues of eta.

    Immutable after construction apart from the exp_phi values, which one
    miss stores for a whole lambda-chain at once; a key is only ever written
    with the value computed from its own factors, so concurrent readers are
    safe.
    """

    def __init__(self, model: AR1Model):
        self.model = model
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
        self._exp_phi_values: dict[complex, complex] = {}

    # -- scalar transforms -------------------------------------------------

    def exp_psi(self, u: complex) -> complex:
        """E(e^{uZ}) continued analytically: alpha(-uI-Q)^{-1}q * E(e^{-uT}).

        No branch choice is made; past a pole of the resolvent the value may
        be a negative real.
        """
        self._pole_guard(u, what="exp_psi")
        resolvent = complex(np.sum(self.r / (self.mu - u)))
        return resolvent * cmath.exp(self.model.inn.t_part.log_laplace_neg(u))

    def _pole_guard(self, u: complex, what: str) -> None:
        for muj in self.mu:
            if abs(u - muj) < POLE_GUARD * max(1.0, abs(muj)):
                raise PoleError(f"{what}: argument {u} collides with eigenvalue {muj}")

    def exp_phi(self, u: complex) -> complex:
        """e^{phi(u)} = prod_{k>=0} E(e^{a_k Z}) on the lambda-chain a_0 = u,
        a_{k+1} = a_k lambda, cut at the first K with |E(e^{a_K Z}) - 1| <
        SERIES_TOL (1 - lambda) and |a_K| < min |mu_j|: past a pole, E(e^{aZ}) = 1
        can hold at a nonzero root a, where the product is far from done.

        A miss costs K + 1 exp_psi calls and stores the whole chain, since
        e^{phi(u)} = E(e^{uZ}) e^{phi(lambda u)} gives E_K = E(e^{a_K Z}) and E_k =
        E(e^{a_k Z}) E_{k+1} backward: a later call on any a_k is a dict hit
        with the factors and the K that a direct call would use.
        Working with the product avoids logarithm branch choices entirely;
        individual factors past a resolvent pole may be negative.
        """
        u = complex(u)
        if u == 0:
            return 1.0 + 0.0j
        cached = self._exp_phi_values.get(u)
        if cached is not None:
            return cached
        lam = self.model.lam
        radius = float(np.min(np.abs(self.mu)))
        chain = []
        arg = u
        for k in range(_MAX_TERMS):
            try:
                factor = self.exp_psi(arg)
            except PoleError as exc:
                raise PoleError(f"exp_phi: factor k={k}: {exc}") from exc
            chain.append((arg, factor))
            if abs(factor - 1.0) < SERIES_TOL * (1.0 - lam) and abs(arg) < radius:
                break
            arg *= lam
        else:
            raise ConvergenceError(f"exp_phi product did not converge at u={u}")
        total = 1.0 + 0.0j
        for arg, factor in reversed(chain):
            total *= factor
            self._exp_phi_values[arg] = total
        return total

    # -- matrix series -----------------------------------------------------

    def check_gamma(self, gamma: complex) -> None:
        _check_separation(self.mu, self.model.lam, gamma)

    def _tail_series(self, x, gamma: complex, rows: bool):
        """The one series loop behind f_gamma and eta, with a_n = lam^n gamma mu_j:

            sum_{n>=1} rho^{n-1+k} exp(x a_n - phi(a_n)) R(a_n).

        Without rows: R = 1 and k = 0, a vector over j (the f-series).
        With rows: R_{ij}(a) = e_i (-aI - Q)^{-1} q and k = 1, an m x m
        matrix over (i, j) (the eta series).  x may be an array: each x
        closes its own geometric tail at its own n, and the result has the
        shape of x in front.  Returns (sum, error_bound).
        """
        if gamma != 1.0:
            self.check_gamma(gamma)
        lam, rho = self.model.lam, self.model.rho
        k = 1 if rows else 0
        x = np.asarray(x, dtype=float)
        shape = (self.m, self.m) if rows else (self.m,)
        total = np.zeros((x.size, *shape), dtype=complex)
        bound = np.zeros(x.size)
        live = np.arange(x.size)
        # a_1 = lam gamma mu_j, then a_{n+1} = a_n lam: the keys exp_phi stores.
        args = lam * gamma * self.mu
        for n in range(1, _MAX_TERMS + 1):
            factors = np.exp(np.multiply.outer(x.flat[live], args)) / np.array(
                [self.exp_phi(a) for a in args]
            )
            if rows:
                resolvent = self.u_mat[:, :, None] / (self.mu[:, None] - args)
                factors = factors[:, None, :] * resolvent.sum(axis=1)
            total[live] += factors * rho ** (n - 1 + k)
            dev = np.abs(factors - 1.0).reshape(live.size, -1).max(axis=1)
            tail_scale = rho ** (n + k) / (1.0 - rho)
            size = tail_scale * np.abs(factors).reshape(live.size, -1).max(axis=1)
            # Where dev is negligible the remaining terms are rho^{n'-1+k}(1 + O(dev * lam)):
            # close the geometric tail analytically.
            closed = dev < 1e-15
            total[live[closed]] += tail_scale
            bound[live] = np.where(closed, dev * lam * tail_scale, size)
            live = live[~(closed | (size < SERIES_TOL))]
            if live.size == 0:
                return total.reshape(x.shape + shape), bound.reshape(x.shape)[()]
            args = args * lam
        raise ConvergenceError(
            f"tail series did not converge at x={x.flat[live[0]]}, gamma={gamma}"
        )

    def f_series_scalars(self, x, gamma: complex = 1.0):
        """Per-eigenvalue values F_j of the martingale series

            F_j = sum_{n>=1} exp(x lam^n gamma mu_j - phi(lam^n gamma mu_j)) rho^{n-1}

        so that f_gamma(x) = sum_j F_j P_j.  Returns (F, error_bound); x of
        any shape gives F of shape x.shape + (m,) and a bound of shape
        x.shape, so 0-d x gives an m-vector and a scalar bound.
        """
        return self._tail_series(x, gamma, rows=False)

    def f_gamma(self, x) -> np.ndarray:
        """The m x m matrix f_1(x) = sum_n e^{x lam^n Q_1 - phi(lam^n Q_1)} rho^{n-1},
        of shape x.shape + (m, m), with Q_1 = -Q; f_series_scalars gives the
        per-eigenvalue scalars for any gamma."""
        F, _ = self.f_series_scalars(x)
        return np.tensordot(F, self.sd.projectors, axes=([-1], [0]))

    def alpha_delta(self, delta: complex, b: float) -> np.ndarray:
        """Row vector rho * alpha (-delta I - Q)^{-1} e^{(delta I + Q) b + psi2(-Q)}."""
        self._pole_guard(delta, what="alpha_delta")
        rho = self.model.rho
        coeff = rho / (self.mu - delta) * np.exp((delta - self.mu) * b) * self.lt
        return coeff @ self.alpha_rows

    def pole_weight(self, b, gamma: complex = 1.0) -> np.ndarray:
        """r_j e^{-mu_j b} L_T(mu_j) e^{phi(gamma lam mu_j)}: the factor that the
        residues of eta and h at delta = mu_j share, of shape b.shape + (m,)."""
        # The same keys as a_1 in _tail_series: one exp_phi chain serves both.
        exp_phi_l = np.array([self.exp_phi(a) for a in self.model.lam * gamma * self.mu])
        return self.r * np.exp(-self.mu * np.expand_dims(b, -1)) * self.lt * exp_phi_l

    def h_func(self, x, delta: complex, b: float, gamma: complex = 1.0):
        """h_{gamma,delta}(x) = e^{delta x} 1_{x>=b} + beta_{gamma,delta} f_gamma(x) q;
        x of any shape gives that shape, 0-d x gives a complex scalar."""
        self._pole_guard(delta, what="h_func")
        x = np.asarray(x, dtype=float)
        F, _ = self.f_series_scalars(x, gamma)
        weight = self.model.rho * self.pole_weight(b, gamma) * np.exp(delta * b)
        series = np.sum(weight / (self.mu - delta) * F, axis=-1)
        indicator = np.where(x >= b, np.exp(delta * x), 0.0)
        return (indicator + series)[()]

    def eta_residues(self, b) -> np.ndarray:
        """Residues a_{ij} of e^{-delta b} eta_{delta,i} = E(h_{1,delta}(b + R^i))
        at delta = mu_j, an m x m matrix for each b of an array of any shape:

            e^{-delta b} eta_{delta,i} = sum_j a_{ij} / (mu_j - delta),
            a_{ij} = e_i P_j q + pole_weight_j G_{ij},
            G_{ij} = sum_{n>=1} rho^n exp(b a_n - phi(a_n)) e_i (-a_n I - Q)^{-1} q.
        """
        G, _ = self._tail_series(b, 1.0, rows=True)
        return self.u_mat + self.pole_weight(b)[..., None, :] * G
