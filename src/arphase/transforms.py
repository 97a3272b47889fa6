"""Analytic engine for the AR(1) model with phase-type positive innovations.

Everything here is built from the stationary transform

    e^{phi(u)} = prod_{k>=0} E(e^{lambda^k u Z}),

evaluated as that product of E(e^{aZ}) = alpha (-aI - Q)^{-1} q E(e^{-aT})
factors, so no logarithm branch is ever chosen; past a pole of the
resolvent a factor may be a negative real.  The matrix series have
arguments that are scalar multiples of Q.  Since all such matrices share
the spectral projectors of Q, every matrix-valued series collapses to m
scalar series evaluated at the eigenvalues; the engine works with those
per-eigenvalue scalars and reassembles matrices only on demand.

The series run along lambda-chains a_n = lambda^n gamma mu_j, and their
far ends are closed from the cumulants kappa_r of Z = S - T.  For small a,

    phi(a) = sum_r kappa_r a^r / (r! (1 - lambda^r)),

so e^{x a - phi(a)} times a resolvent row is a power series in a whose
coefficients d_q(x) are polynomials in x, and every row n > N of a series
sums in closed form: sum_{n>N} rho^{n-1+k} a_n^q = rho^{N+k} a_{N+1}^q /
(1 - rho lambda^q).  A chain's N is fixed in advance: the first n with
|a_n| (|x| + 1/R) <= _CLOSURE_EPS, R the radius of the expansion (min |mu_j|,
and T's rate for a gamma or exponential T), so no rule reads a term.  The
cumulants run to r = _CUMULANTS; the first omitted coefficient bounds the
closure.

The engine keeps one chain table per gamma: rows n of a_n, e^{phi(a_n)}
and the resolvent rows e_i (-a_n I - Q)^{-1} q, none of which depends on
x.  A chain's rows up to its x = 0 stop N_0 take one exp_psi call and one
backward product E(e^{a_n Z}) e^{phi(a_{n+1})} seeded with the cumulant
value e^{phi(a_{N_0+1})}; rows past N_0, which a larger |x| needs, take
their cumulant values directly.  So a row's value never depends on how far
the table reaches, or on the other chains.  A table is float64 exactly
when its heads and the spectrum of Q are real, and its series then run,
and return their sums, in float64.  Conjugate chains are kept exactly
conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, PoleError, ValidationError
from .innovations import Innovation
from .phasetype import POLE_GUARD

_SEPARATION_GAP = 1e-8
_MAX_TERMS = 10_000  # rows of a lambda-chain
# Order of the cumulant closure, and its reach: a chain is summed term by
# term until |a_n| (|x| + 1/R) <= _CLOSURE_EPS, R the expansion's radius.
_CUMULANTS = 8
_CLOSURE_EPS = 1e-2
# The closure's orders 0..K+1, and its Toeplitz pattern: entry [p, q]
# reads order q - p, and is 0 below the diagonal.
_ORDERS = np.arange(_CUMULANTS + 2)
_LAG = np.maximum(_ORDERS - _ORDERS[:, None], 0)
_UPPER = _ORDERS >= _ORDERS[:, None]
# The passage routes' error bounds are their condition number times this:
# A's for a ResidueSystem, at least (I - rho K)'s for the Nystrom route.
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


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with Python's complex product; numpy's may fuse a multiply-add
    and round differently."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _conjugate_pairs(heads: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """arr (chains on its second-last axis) with each chain whose head is
    the conjugate of a head with positive imaginary part set to the
    conjugate of that chain, so that conjugate pairs stay exactly conjugate."""
    if np.iscomplexobj(arr):
        for j in np.flatnonzero(heads.imag > 0):
            arr[..., heads == np.conj(heads[j]), :] = np.conj(arr[..., j:j + 1, :])
    return arr


def _log_series(c: list) -> list:
    """Taylor coefficients of log C(a) from those of C(a), c[0] = 1."""
    out = [0.0] * len(c)
    for p in range(1, len(c)):
        out[p] = c[p] - sum(i * out[i] * c[p - i] for i in range(1, p)) / p
    return out


def _exp_series(c: list) -> list:
    """Taylor coefficients of exp(P(a)) from those of P(a), c[0] = 0."""
    out = [1.0] + [0.0] * (len(c) - 1)
    for q in range(1, len(c)):
        out[q] = sum(r * c[r] * out[q - r] for r in range(1, q + 1)) / q
    return out


def _horner(coeffs, a):
    """sum_q coeffs[q] a^q, in one multiply and one add per coefficient."""
    total = coeffs[-1] * a + coeffs[-2]
    for c in coeffs[-3::-1]:
        total *= a
        total += c
    return total


class _Chains(NamedTuple):
    """Rows n = 1, ..., N of lambda-chains a_n = a_1 lambda^{n-1}, one
    column per chain, with e^{phi(a_n)} and the resolvent rows
    e_i (-a_n I - Q)^{-1} q (axis 0 over i); rows run along the last axis.
    args holds one row more, a_{N+1}, where the longest chain's closure
    starts.  float64 exactly when the heads and the spectrum of Q are
    real, else complex128.  Never mutated: growing builds a new tuple.
    """

    args: np.ndarray       # (c, N + 1)
    values: np.ndarray     # (c, N)
    resolvent: np.ndarray  # (m, c, N)


class TransformEngine:
    """Caches the spectral data of one AR1Model and evaluates E(e^{uZ}),
    e^{phi(u)}, f_gamma, alpha_delta, h and the residues of eta.

    Immutable after construction apart from two caches: the exp_phi values,
    keyed by argument, and one chain table per gamma.  A key is only ever
    written with e^{phi} of its own chain, and a grown table is published as
    a new tuple and never mutated, so concurrent readers are safe.
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
        self.lt = model.inn.t_part.laplace_neg(sd.mu)
        self._exp_phi_values: dict[complex, complex] = {}
        self._tables: dict[complex, _Chains] = {}
        self._closure_coefficients(dist.Q, dist.alpha)

    def _closure_coefficients(self, Q: np.ndarray, alpha: np.ndarray) -> None:
        """The closure's Taylor coefficients in a, orders q = 0..K+1 (K =
        _CUMULANTS), and the radius R.

        phi(a) = sum_r kappa_r a^r / (r! (1 - lambda^r)): kappa_r / r! are the
        log coefficients of E(e^{aS}) = sum_p alpha (-Q)^{-p} 1 a^p, a point
        mass d adds -d to kappa_1, and a gamma(k, theta) T adds
        (-1)^r k (r-1)! / theta^r to kappa_r.  With c_r = phi's coefficients,
        e^{x a - phi(a)} R(a) = e^{(x - c_1) a} H(a) with H(a) = e^{-sum_{r>=2}
        c_r a^r} R(a) free of x, and R's coefficients (-Q)^{-p} 1 by row i.
        So d_q(x) = sum_{p<=q} (x - c_1)^p / p! H_{q-p}; _closure holds
        H_{q-p} / (1 - rho lambda^q) at [p, q], and _closure_rows the same
        by row i, so that the closed sum is one product with the powers."""
        lam, rho, t = self.model.lam, self.model.rho, self.model.inn.t_part
        inverse = np.linalg.inv(-Q)
        rows = np.empty((_ORDERS.size, self.m))                 # (q, i)
        rows[0] = 1.0
        for p in _ORDERS[1:]:
            rows[p] = inverse @ rows[p - 1]
        kappa = _log_series((rows @ alpha).tolist())
        kappa[1] -= t.d
        phi = [0.0] + [(kappa[r] + (t.shape * (-1.0) ** r / (r * t.rate ** r) if t.shape else 0.0))
                       / (1.0 - lam ** r) for r in _ORDERS[1:].tolist()]
        self._phi_taylor = np.array(phi)
        h = np.array(_exp_series([0.0, 0.0] + [-c for c in phi[2:]]))
        geometric = 1.0 - rho * lam ** _ORDERS
        self._closure = h[_LAG] * _UPPER / geometric
        self._closure_rows = (rows.T @ (h[_LAG] * _UPPER))[:, _LAG] * _UPPER / geometric
        self._radius = min(float(np.abs(self.mu).min()), t.rate if t.shape else math.inf)

    # -- scalar transforms -------------------------------------------------

    def exp_psi(self, u):
        """E(e^{uZ}) continued analytically: alpha(-uI-Q)^{-1}q * E(e^{-uT}),
        elementwise over u of any shape; 0-d u gives a complex scalar.

        No branch choice is made; past a pole of the resolvent the value may
        be a negative real.
        """
        u = np.asarray(u, dtype=complex)
        self._pole_guard(u, what="exp_psi")
        resolvent = np.sum(self.r / (self.mu - u[..., None]), axis=-1)
        return _times(resolvent, self.model.inn.t_part.laplace_neg(u))[()]

    def _pole_guard(self, u, what: str) -> None:
        u = np.asarray(u)
        hit = np.abs(u[..., None] - self.mu) < POLE_GUARD * np.maximum(1.0, np.abs(self.mu))
        if hit.any():
            *at, j = np.argwhere(hit)[0]
            raise PoleError(f"{what}: argument {u[tuple(at)]} collides with eigenvalue {self.mu[j]}")

    def exp_phi(self, u: complex) -> complex:
        """e^{phi(u)} = prod_{k>=0} E(e^{a_k Z}) on the lambda-chain a_0 = u,
        a_{k+1} = a_k lambda: the factors up to the chain's x = 0 stop times
        the cumulant value there (see _chain).

        A miss builds u's chain and stores e^{phi(a_k)} for every row, so a
        later call on any a_k is a dict hit with the value a direct call
        would give.  Working with the product avoids logarithm branch
        choices entirely; individual factors past a resolvent pole may be
        negative.
        """
        u = complex(u)
        if u == 0:
            return 1.0 + 0.0j
        cached = self._exp_phi_values.get(u)
        if cached is not None:
            return cached
        # A real u steps as a real table head does, so both give the same bits.
        chain = self._chain(np.array([u if u.imag else u.real]), 1.0 / self._radius, None)
        self._exp_phi_values.update(zip(chain.args[0, :-1].tolist(), chain.values[0].tolist()))
        return self._exp_phi_values[u]

    # -- lambda-chains -----------------------------------------------------

    def _rows(self, args: np.ndarray, scale) -> np.ndarray:
        """Per chain (and per scale, in front), N: the first row n whose
        |a_n| scale <= _CLOSURE_EPS, counted as the rows before it plus 1."""
        far = np.abs(args) * np.asarray(scale)[..., None, None] > _CLOSURE_EPS
        return far.sum(axis=-1) + 1

    def _exp_phi_closure(self, a: np.ndarray) -> np.ndarray:
        """e^{phi(a)} from the first K cumulants, for |a| well inside the radius."""
        return np.exp(_horner(self._phi_taylor[: _CUMULANTS + 1], a))

    def _chain(self, heads: np.ndarray, scale: float, table: _Chains | None) -> _Chains:
        """The chains from a_1 = heads with every chain's N rows at scale:
        table, when given, grown by rows past its end.  A new table's rows
        up to each chain's x = 0 stop N_0 are one exp_psi call and one
        backward product, seeded with the cumulant value at a_{N_0+1};
        every later row is its cumulant value."""
        lam = self.model.lam
        args = heads[:, None] if table is None else table.args
        # |a_n| falls by lambda per row: the rows to the stop, and 2 to spare.
        reach = float(np.abs(args[:, -1]).max()) * scale / _CLOSURE_EPS
        count = max(math.ceil(math.log(reach) / -math.log(lam)), 0) + 2
        count = min(count, _MAX_TERMS + 1 - args.shape[1])
        # a_{n+1} = a_n lambda one step at a time, as a scalar chain steps.
        steps = np.full((heads.size, count + 1), lam, dtype=args.dtype)
        steps[:, 0] = args[:, -1]
        args = np.concatenate([args, np.multiply.accumulate(steps, axis=1)[:, 1:]], axis=1)
        rows = self._rows(args, scale)
        if rows.max() >= args.shape[1]:
            raise ConvergenceError(
                f"lambda-chain from {complex(heads[np.argmax(rows)])} at scale {scale:.6g} "
                f"needs more than {_MAX_TERMS} rows")
        args = args[:, : rows.max() + 1]
        done = 0 if table is None else table.values.shape[1]
        # Rows from each chain's x = 0 stop on take the cumulant value, and
        # the closure sees 0 in the rows before, so never a far a.
        stops = self._rows(args, 1.0 / self._radius)
        late = np.arange(done, args.shape[1]) >= stops[:, None]
        closure = self._exp_phi_closure(np.where(late, args[:, done:], 0.0)).astype(complex)
        values = closure[:, :-1]
        if table is None:
            try:
                factors = self.exp_psi(args[:, : stops.max()])
            except PoleError as exc:
                raise PoleError(f"exp_phi: {exc}") from exc
            # Backward from the end: 1s, each chain's seed at row N_0 + 1, then
            # its factors, so every chain multiplies from its own seed.
            run = np.ones_like(closure)
            run[:, : factors.shape[1]] = factors
            run[late] = 1.0
            seed = (np.arange(heads.size), stops)
            run[seed] = closure[seed]
            product = np.multiply.accumulate(run[:, ::-1], axis=1)[:, ::-1]
            values = np.where(late, closure, product)[:, :-1]
        new = args[:, done:-1]
        resolvent = np.sum(self.u_mat[:, :, None, None] / (self.mu[:, None, None] - new), axis=1)
        if not (np.iscomplexobj(heads) or np.iscomplexobj(self.mu)):
            values, resolvent = values.real, resolvent.real
        values, resolvent = _conjugate_pairs(heads, values), _conjugate_pairs(heads, resolvent)
        if table is not None:
            values = np.concatenate([table.values, values], axis=1)
            resolvent = np.concatenate([table.resolvent, resolvent], axis=2)
        return _Chains(args=args, values=values, resolvent=resolvent)

    def _chain_table(self, gamma: complex, scale: float) -> _Chains:
        """The chain table of gamma, heads a_1 = lambda gamma mu_j, with every
        chain's rows for |x| + 1/R up to scale.  A growth stores the head
        values in the exp_phi values, the keys pole_weight reads."""
        table = self._tables.get(gamma)
        # Enough rows when every chain's last row meets the rule at scale.
        if table is None or np.abs(table.args[:, -2]).max() * scale > _CLOSURE_EPS:
            heads = self.model.lam * gamma * self.mu
            table = self._tables[gamma] = self._chain(heads, scale, table)
            self._exp_phi_values.update(zip(heads.tolist(), table.values[:, 0].tolist()))
        return table

    # -- matrix series -----------------------------------------------------

    def check_gamma(self, gamma: complex) -> None:
        _check_separation(self.mu, self.model.lam, gamma)

    def _tail_series(self, x, gamma: complex, rows: bool):
        """The one series kernel behind f_gamma and eta, with a_n = lam^n gamma mu_j:

            sum_{n>=1} rho^{n-1+k} exp(x a_n - phi(a_n)) R(a_n).

        Without rows: R = 1 and k = 0, a vector over j (the f-series).
        With rows: R_{ij}(a) = e_i (-aI - Q)^{-1} q and k = 1, an m x m
        matrix over (i, j) (the eta series).  x may be an array, and the
        result has the shape of x in front.  Returns (sum, error_bound).

        Each x and chain j sums rows n <= N_j(x) of gamma's chain table
        term by term, N_j(x) the first n with |a_n| (|x| + 1/R) <=
        _CLOSURE_EPS, by one running sum along n; the rest is the closure

            rho^{N+k} sum_{q<=K} d_q(x) a_{N+1}^q / (1 - rho lambda^q),

        d_q(x) the Taylor coefficients in a of e^{x a - phi(a)} R(a).  The
        bound is the first omitted closure term, q = K + 1.  An x's sum
        depends on that x alone, so any batch of starts gives the sums of
        its scalar calls.  The sums take the table's dtype: float64 on a real table.
        """
        if gamma != 1.0:
            self.check_gamma(gamma)
        lam, rho = self.model.lam, self.model.rho
        k = 1 if rows else 0
        x = np.asarray(x, dtype=float)
        shape = (self.m, self.m) if rows else (self.m,)
        if x.size == 0:  # in the dtype of gamma's table, whose heads are lam gamma mu_j
            return np.zeros(x.shape + shape, np.result_type(gamma, self.mu)), np.zeros(x.shape)
        flat = x.ravel()
        scale = np.abs(flat) + 1.0 / self._radius
        table = self._chain_table(gamma, float(scale.max()))
        stop = self._rows(table.args, scale)                 # (x, c): N_j(x)
        count = int(stop.max())
        # Axes (x, entries, n): the running sum runs along n, in n order.
        terms = np.exp(flat[:, None, None] * table.args[:, :count]) / table.values[:, :count]
        if rows:
            terms = terms[:, None] * table.resolvent[..., :count]
        # rho^{n-1+k}; powers of Python ints, since rho ** np.int64(n) rounds differently.
        power = np.array([rho ** (n + k) for n in range(count + 1)])
        terms *= power[:count]
        np.add.accumulate(terms, axis=-1, out=terms)
        pick = (stop - 1)[:, None, :, None] if rows else (stop - 1)[..., None]
        total = np.take_along_axis(terms, pick, axis=-1)[..., 0]
        # The closure from a_{N+1}: d_q(x) / (1 - rho lambda^q) by order q
        # (then by row i), from the powers (x - c_1)^p / p!.
        start = table.args[np.arange(stop.shape[1]), stop]        # (x, c)
        steps = (flat - self._phi_taylor[1])[:, None] / np.arange(1, _CUMULANTS + 2)
        powers = np.cumprod(np.column_stack([np.ones(flat.size), steps]), axis=1)
        if rows:
            d, start = np.einsum("xp,ipq->qxi", powers, self._closure_rows)[..., None], start[:, None]
        else:
            d = (powers @ self._closure).T[..., None]
        weight = power[stop] if not rows else power[stop][:, None]
        total = total + weight * _horner(d[:-1], start)
        bound = np.abs(d[-1] * start ** (_CUMULANTS + 1)) * weight
        bound = bound.reshape(flat.size, -1).max(axis=1)
        return total.reshape(x.shape + shape), bound.reshape(x.shape)[()]

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
        # The heads of gamma's chain table, which stores their values for exp_phi.
        self._chain_table(gamma, 1.0 / self._radius)
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
