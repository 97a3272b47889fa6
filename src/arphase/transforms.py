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

The series evaluate e^{phi} along lambda-chains a_n = lambda^n gamma mu_j.
As e^{phi(u)} = E(e^{uZ}) e^{phi(lambda u)}, one backward pass over a
chain's factors E(e^{a_n Z}) gives every value of the chain.  The engine
keeps one chain table per gamma: rows n of a_n, e^{phi(a_n)} and the
resolvent rows e_i (-a_n I - Q)^{-1} q, none of which depends on x.  A
table grows lazily, as far as a series asks and on to the chains' stops,
in blocks of rows with one array-valued exp_psi call each; the last
factors of a block predict the rows still missing, so one or two blocks
usually do.  Every later series call on the engine reads the table, and
only the heads' values e^{phi(lambda gamma mu_j)} also go to the exp_phi
values; exp_phi(u) fills u's own chain the same way and keeps all of it.

The tail series walk n in blocks, one entries x block x (live x) array
per block within a fixed element budget.  The first blocks reach the n
where the stop rules should end every x, later ones grow by half, and
each x's terms are added in n order.  Once the exponents in a term fall
below machine precision the remaining terms are geometric in rho and are
closed analytically, so truncation error sits at rounding level rather
than at the tolerance.  For a real spectrum of Q and a real gamma the
chain-table values and resolvent rows have zero imaginary parts, and the
series run in float64 on their real parts; that gives the real parts of
the complex arithmetic bit for bit (see TransformEngine._tail_series), and
the sums are returned as complex128 all the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, PoleError, ValidationError
from .innovations import Innovation
from .phasetype import POLE_GUARD

_SEPARATION_GAP = 1e-8
_MAX_TERMS = 10_000  # factors of an exp_phi product, terms of a tail series
# Element budget of one tail-series block: entries times rows n times live x.
_BLOCK_ELEMENTS = 2**13
# Rows of a tail-series block with this many elements (entries times live
# x) are summed along n one add per row: numpy's accumulate along n runs
# element by element, several times slower on wide rows.
_WIDE_ROW = 512
# A tail series closes once every factor of an x is this close to 1.
_CLOSURE_DEV = 1e-15
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


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with Python's complex product; numpy's may fuse a multiply-add
    and round differently."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class _Chains(NamedTuple):
    """Rows k = 0, 1, ... of lambda-chains a_k = a_0 lambda^k, one column per
    chain, and per row the factor E(e^{a_k Z}), e^{phi(a_k)} and the
    resolvent rows e_i (-a_k I - Q)^{-1} q (axis 0 over i); rows run along
    the last axis.

    Row k is a stop when |E(e^{a_k Z}) - 1| < SERIES_TOL (1 - lambda) and
    |a_k| < min |mu_j|: past a pole, E(e^{aZ}) = 1 can hold at a nonzero
    root a, where the product is far from done.  e^{phi(a_k)} is the
    product of the factors from row k to the first stop at or after it,
    final in the rows of column c below closed[c].  real: the args are real
    and no factor or resolvent row has a nonzero imaginary part, nor then
    has any value, a product of factors.  Never mutated: growing builds a
    new tuple.
    """

    next_args: np.ndarray  # (c,) a_K, the first row not filled yet
    args: np.ndarray       # (c, K), the dtype of a_0
    factors: np.ndarray    # (c, K)
    stops: np.ndarray      # (c, K) bool
    values: np.ndarray     # (c, K)
    resolvent: np.ndarray  # (m, c, K)
    closed: np.ndarray     # (c,) int
    real: bool


class TransformEngine:
    """Caches the spectral data of one AR1Model and evaluates E(e^{uZ}),
    e^{phi(u)}, f_gamma, alpha_delta, h and the residues of eta.

    Immutable after construction apart from two caches: the exp_phi values,
    keyed by argument, and one chain table per gamma.  A key is only ever
    written with the value computed from its own factors, and a grown table
    is published as a new tuple and never mutated, so concurrent readers
    are safe.
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
        a_{k+1} = a_k lambda, cut at its first stop K (see _Chains).

        A miss fills u's chain through _extend and stores e^{phi(a_k)} for
        k <= K: E_K = E(e^{a_K Z}) and E_k = E(e^{a_k Z}) E_{k+1} backward,
        as e^{phi(u)} = E(e^{uZ}) e^{phi(lambda u)}, so a later call on any
        a_k is a dict hit with the factors and the K that a direct call would
        use.  The chain tables store only their heads here.  Working with
        the product avoids logarithm branch choices entirely; individual
        factors past a resolvent pole may be negative.
        """
        u = complex(u)
        if u == 0:
            return 1.0 + 0.0j
        cached = self._exp_phi_values.get(u)
        if cached is not None:
            return cached
        chain = self._extend(self._chains(np.array([u])), 1)
        stop = int(np.argmax(chain.stops[0])) + 1
        self._exp_phi_values.update(zip(chain.args[0, :stop].tolist(), chain.values[0, :stop].tolist()))
        return self._exp_phi_values[u]

    # -- lambda-chains -----------------------------------------------------

    def _chains(self, heads: np.ndarray) -> _Chains:
        """Chains from a_0 = heads, with no rows filled yet."""
        c = heads.size
        return _Chains(
            next_args=heads, args=np.empty((c, 0), dtype=heads.dtype),
            factors=np.empty((c, 0), dtype=complex), stops=np.empty((c, 0), dtype=bool),
            values=np.empty((c, 0), dtype=complex),
            resolvent=np.empty((self.m, c, 0), dtype=complex), closed=np.zeros(c, dtype=int),
            real=not np.iscomplexobj(heads),
        )

    def _extend(self, chains: _Chains, need: int) -> _Chains:
        """chains grown by blocks of rows until every column's values are
        final in its first `need` rows.

        A block takes one exp_psi call.  Each run a block closes in a column
        is multiplied backward from its stop in Python's complex arithmetic,
        so a value never depends on the block sizes.  A block adds the rows
        asked for, and at least 32.  Past a column's last row without a
        stop it also adds the rows that row predicts, and 4 to spare: where
        |a| <= min|mu| / 2, |E(e^{aZ}) - 1| is about |a E(Z)| and shrinks by
        lambda per row, so one block usually reaches the stop.  Farther out
        a block adds at least half the rows there are, so such a chain costs
        at most about 1.5 times its length.
        """
        lam = self.model.lam
        radius = float(np.min(np.abs(self.mu)))
        while chains.closed.min() < need:
            have, start = chains.args.shape[1], chains.closed.min()
            if have - start >= _MAX_TERMS:
                u = chains.args[np.argmax(chains.closed == start), start]
                raise ConvergenceError(f"exp_phi product did not converge at u={complex(u)}")
            count = max(need - have, 32)
            if have and not chains.stops[:, -1].all():
                waiting = ~chains.stops[:, -1]
                arg = np.abs(chains.args[waiting, -1]).max()
                dev = np.abs(chains.factors[waiting, -1] - 1.0).max()
                if arg <= radius / 2:
                    rows = math.log(SERIES_TOL * (1.0 - lam) / dev) / math.log(lam)
                    count = max(count, math.ceil(rows) + 4)
                else:
                    count = max(count, have // 2)
            count = min(count, start + _MAX_TERMS - have)
            # a_{k+1} = a_k lambda one step at a time, as a scalar chain steps.
            steps = np.full((chains.next_args.size, count), lam, dtype=chains.next_args.dtype)
            steps[:, 0] = chains.next_args
            args = np.multiply.accumulate(steps, axis=1)
            try:
                factors = self.exp_psi(args)
            except PoleError as exc:
                raise PoleError(f"exp_phi: {exc}") from exc
            stops = (np.abs(factors - 1.0) < SERIES_TOL * (1.0 - lam)) & (np.abs(args) < radius)
            resolvent = np.sum(self.u_mat[:, :, None, None] / (self.mu[:, None, None] - args), axis=1)
            grown = _Chains(
                next_args=args[:, -1] * lam,
                args=np.concatenate([chains.args, args], axis=1),
                factors=np.concatenate([chains.factors, factors], axis=1),
                stops=np.concatenate([chains.stops, stops], axis=1),
                values=np.concatenate([chains.values, np.zeros_like(factors)], axis=1),
                resolvent=np.concatenate([chains.resolvent, resolvent], axis=2),
                closed=chains.closed.copy(),
                real=chains.real and not (factors.imag.any() or resolvent.imag.any()),
            )
            for j, lo in enumerate(chains.closed):
                ends = have + np.flatnonzero(stops[j])
                if ends.size == 0:
                    continue
                # A run of rows closes at each stop; a stop's own value is its
                # factor, and a longer run is one backward product.
                starts = np.concatenate([[lo], ends[:-1] + 1])
                grown.values[j, ends] = grown.factors[j, ends]
                for start, end in zip(starts[starts < ends], ends[starts < ends]):
                    run = grown.factors[j, start:end + 1].tolist()
                    grown.values[j, start:end + 1] = list(accumulate(reversed(run), mul))[::-1]
                grown.closed[j] = ends[-1] + 1
            chains = grown
        return chains

    def _chain_table(self, gamma: complex, need: int) -> _Chains:
        """The chain table of gamma, heads a_1 = lambda gamma mu_j (row k holds
        n = k + 1), with its first `need` rows final.  A growth stores the
        head values in the exp_phi values, the keys pole_weight reads."""
        table = self._tables.get(gamma)
        if table is None:
            table = self._chains(self.model.lam * gamma * self.mu)
        if table.closed.min() < need:
            table = self._tables[gamma] = self._extend(table, need)
            self._exp_phi_values.update(zip(table.args[:, 0].tolist(), table.values[:, 0].tolist()))
        return table

    # -- matrix series -----------------------------------------------------

    def check_gamma(self, gamma: complex) -> None:
        _check_separation(self.mu, self.model.lam, gamma)

    def _tail_series(self, x, gamma: complex, rows: bool):
        """The one series kernel behind f_gamma and eta, with a_n = lam^n gamma mu_j:

            sum_{n>=1} rho^{n-1+k} exp(x a_n - phi(a_n)) R(a_n).

        Without rows: R = 1 and k = 0, a vector over j (the f-series).
        With rows: R_{ij}(a) = e_i (-aI - Q)^{-1} q and k = 1, an m x m
        matrix over (i, j) (the eta series).  x may be an array: each x
        closes its own geometric tail at its own n, and the result has the
        shape of x in front.  Returns (sum, error_bound).

        a_n, e^{phi(a_n)} and R(a_n) are rows of gamma's chain table.  The
        kernel takes a block of n at a time for every live x, as one
        entries x block x (live x) array.  The first blocks run to the n
        where the stop rules should end every x (the rho size rule for terms
        of modulus up to 1, or the closure estimated from max|x| and
        max|gamma mu|, whichever comes first); past it a block has half as
        many rows as are done.  Every block is cut to what fits in
        _BLOCK_ELEMENTS but never below 4.  Each x stops at its first n that
        meets the stop rule (the first such row of the block), and its terms
        are added by one running sum along n, a left fold in n order, so
        neither the sum nor its bound depends on the block sizes.  A block
        whose rows hold at least _WIDE_ROW elements adds them row by row,
        the same additions in the same order as np.add.accumulate.  The
        running sums travel with the live x, and each x's sum is written to
        the result once, at its stop.

        While gamma's chain table is real (a real spectrum and a real
        gamma), a block runs in float64 on the real parts of e^{phi(a_n)}
        and R(a_n): the factors e^{x a_n} * (1 / e^{phi(a_n)}), times
        R(a_n), the rho powers, the stop tests and the running sums.  That
        is exact.  numpy divides (g + 0j) / (v + 0j) by Smith's algorithm,
        which gives g * (1 / v), and a complex product, sum or modulus with
        zero imaginary parts rounds its real part as the float64 operation
        does, so sums and bounds equal those of the complex arithmetic bit
        for bit.  Otherwise a block divides in complex; a table never turns
        real again, so the blocks after it and the running sums stay
        complex.  The sums are returned as complex128 either way, with
        imaginary parts 0 for a real spectrum.
        """
        if gamma != 1.0:
            self.check_gamma(gamma)
        lam, rho = self.model.lam, self.model.rho
        k = 1 if rows else 0
        x = np.asarray(x, dtype=float)
        shape = (self.m, self.m) if rows else (self.m,)
        total = np.zeros((*shape, x.size), dtype=complex)
        bound = np.zeros(x.size)
        # The x not done yet, and their running sums: float64 while gamma's
        # chain table is real.
        live, run = np.arange(x.size), np.zeros((*shape, x.size))
        # Blocks run at least to the first n where every x should be done:
        # terms of modulus up to 1 meet the size rule by n_rho, and a factor
        # e^{x a_n - phi(a_n)} R(a_n) is about 1 + O(|a_n| (|x| + 1)), which
        # reaches _CLOSURE_DEV by n_closed.
        n_rho = math.ceil(math.log(SERIES_TOL * (1.0 - rho)) / math.log(rho)) + 1 - k
        reach = float(np.abs(gamma * self.mu).max()) * (float(np.abs(x).max(initial=0.0)) + 1.0)
        n_closed = math.ceil(math.log(_CLOSURE_DEV / max(reach, _CLOSURE_DEV)) / math.log(lam))
        target = min(n_rho, n_closed)
        n = 1
        while live.size:
            if n > _MAX_TERMS:
                raise ConvergenceError(
                    f"tail series did not converge at x={x.flat[live[0]]}, gamma={gamma}"
                )
            fits = _BLOCK_ELEMENTS // (live.size * self.m ** len(shape))
            count = min(max(target + 1 - n, (n - 1) // 2, 4), max(fits, 4), _MAX_TERMS + 1 - n)
            table = self._chain_table(gamma, n + count - 1)
            block = slice(n - 1, n - 1 + count)
            # Axes (entries, n, x): reductions run over the outer axes.
            growth = x.flat[live] * table.args[:, block, None]
            np.exp(growth, out=growth)
            values, resolvent = table.values[:, block, None], table.resolvent[:, :, block, None]
            real = table.real
            if real:
                # numpy divides (g + 0j) / (v + 0j) as g * (1 / v).
                values, resolvent = values.real, resolvent.real
                factors = np.multiply(growth, 1.0 / values, out=growth)
            else:
                factors = growth / values
            if rows:
                factors = factors * resolvent
            # rho^{n-1+k} for the block and one more n; powers of Python ints,
            # since rho ** np.int64(n) rounds differently.
            power = np.array([rho ** (i + k) for i in range(n - 1, n + count)])
            tail_scale = power[1:] / (1.0 - rho)
            flat = factors.reshape(-1, count, live.size)
            scratch = flat - 1.0
            dev = np.abs(scratch, out=scratch if real else None).max(axis=0)
            size = tail_scale[:, None] * np.abs(flat).max(axis=0)
            # Where dev is negligible the remaining terms are rho^{n'-1+k}(1 + O(dev * lam)):
            # close the geometric tail analytically.
            closed = dev < _CLOSURE_DEV
            done = closed | (size < SERIES_TOL)
            # Each x's first row that is done, else the block's last row,
            # as a flat index into the (n, x) arrays.
            last = np.where(done, np.arange(count)[:, None], count - 1).min(axis=0)
            pick = last * live.size + np.arange(live.size)
            # A running sum along n from the previous one adds the terms
            # one n after another; each x takes it at its own stop.
            factors *= power[:-1, None]
            terms = factors[..., : last.max() + 1, :]
            terms[..., 0, :] += run
            if terms[..., 0, :].size < _WIDE_ROW:
                np.add.accumulate(terms, axis=-2, out=terms)
            else:
                for i in range(1, terms.shape[-2]):
                    np.add(terms[..., i - 1, :], terms[..., i, :], out=terms[..., i, :])
            acc = np.take(factors.reshape(*shape, -1), pick, axis=-1)
            shut, scale = closed.ravel()[pick], tail_scale[last]
            acc[..., shut] += scale[shut]
            bound[live] = np.where(shut, dev.ravel()[pick] * lam * scale, size.ravel()[pick])
            stopped = done.ravel()[pick]
            if stopped.all():
                total[..., live] = acc
                break
            total[..., live[stopped]] = np.compress(stopped, acc, axis=-1)
            live, run = live[~stopped], np.compress(~stopped, acc, axis=-1)
            n += count
        total = total.transpose(-1, *range(len(shape)))
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
        # The keys of row n = 1 of gamma's chain table, which stores them for
        # exp_phi once a series has read it.
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
