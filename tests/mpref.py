"""High-precision reference for E(e^{aZ}), e^{phi(a)} and the crossing
transform Phi(x), used by tests only.

E(e^{aZ}) = alpha (-aI - Q)^{-1} q E(e^{-aT}).  The resolvent is summed in
partial fractions over an mpmath eigendecomposition of Q at DPS digits, so
it shares nothing with the engine's numpy eigendecomposition; E(e^{-aT})
is T's closed-form Laplace transform.  e^{phi} on a lambda-chain is one
backward product of those factors, and Phi(x) solves the paper's residue
system built from those chains.  q_exp sums the single-phase q-series
directly, with enough digits that its alternating terms cancel exactly.
f_of_b is the paper's scalar continuous-fit series for Exp(mu)
innovations with identity gain, summed in floats term by term, the
reference root for the m = 1 threshold.
"""

import mpmath as mp
import numpy as np

from arphase import NumericalConsistencyError, ValidationError

DPS = 30
# A chain is cut once |a_K| < CUT min|mu_j|: the factors left out are
# 1 + O(|a|) and multiply to 1 + O(CUT), far below any float tolerance.
CUT = 1e-20


class Reference:
    """E(e^{aZ}), e^{phi(a)} and Phi(x) for one innovation law Z = S - T."""

    def __init__(self, inn):
        self.t = inn.t_part
        with mp.workdps(DPS):
            Q = mp.matrix(inn.s_part.Q.tolist())
            E, V = mp.eig(Q)
            left = mp.matrix([list(inn.s_part.alpha)]) * V
            right = mp.inverse(V) * (-Q * mp.ones(Q.rows, 1))
            self.mu = [-e for e in E]
            self.residues = [left[j] * right[j] for j in range(Q.rows)]
            # u[i][j] = e_i P_j q for the spectral projectors P_j of Q.
            self.u = [[V[i, j] * right[j] for j in range(Q.rows)] for i in range(Q.rows)]
        self.radius = float(min(abs(m) for m in self.mu))

    def laplace_t(self, a):
        """E(e^{-aT}) at the mpmath number a."""
        t = self.t
        if t.variant == "zero":
            return mp.mpf(1)
        if t.variant == "point_mass":
            return mp.exp(-a * t.d)
        return (t.rate / (t.rate + a)) ** t.shape

    def density_terms(self):
        """Z's density as terms (c, l, gamma, lo, hi): c z^l e^{gamma z} on
        lo < z < hi.  Above 0 (above -d for a point mass) it is sum_j r_j
        E(e^{-mu_j T}) e^{-mu_j z}; below 0, for T ~ gamma(k, theta), it is
        e^{theta z} sum_{l<k} (-z)^l / l! theta^k sum_j r_j / (mu_j + theta)^{k-l}."""
        t = self.t
        with mp.workdps(DPS):
            start = -mp.mpf(t.d) if t.variant in ("zero", "point_mass") else mp.mpf(0)
            terms = [(r * self.laplace_t(mu), 0, -mu, start, mp.inf) for r, mu in zip(self.residues, self.mu)]
            if t.variant not in ("zero", "point_mass"):
                theta = mp.mpf(t.rate)
                terms += [((-1) ** l * theta ** t.shape / mp.factorial(l)
                           * mp.fsum(r / (mu + theta) ** (t.shape - l) for r, mu in zip(self.residues, self.mu)),
                           l, theta, -mp.inf, mp.mpf(0)) for l in range(t.shape)]
        return terms

    def expectation(self, pieces, y):
        """E(f(y + Z)) at DPS digits, in closed form, for a piecewise
        exponential polynomial f: pieces are (lo, hi, terms), and on
        lo <= t < hi, f(t) is the sum of a t^n e^{beta t} over its terms
        (a, n, beta).  In z = t - y each product of an f term and a density
        term is a sum of z^m e^{s z}, whose antiderivative is
        e^{s z} sum_{i<=m} (-1)^i m! / (m-i)! z^{m-i} / s^{i+1}."""

        def antiderivative(m, s, z):
            if mp.isinf(z):
                return mp.mpf(0)  # every term decays there
            if s == 0:
                return z ** (m + 1) / (m + 1)
            return mp.exp(s * z) * mp.fsum((-1) ** i * mp.factorial(m) / mp.factorial(m - i)
                                           * z ** (m - i) / s ** (i + 1) for i in range(m + 1))

        with mp.workdps(DPS):
            y, total = mp.mpf(float(y)), mp.mpf(0)
            for c, l, gamma, z_lo, z_hi in self.density_terms():
                for lo, hi, terms in pieces:
                    start, end = max(mp.mpf(lo) - y, z_lo), min(mp.mpf(hi) - y, z_hi)
                    if not start < end:
                        continue
                    for a, n, beta in terms:
                        # a (y + z)^n e^{beta (y + z)} c z^l e^{gamma z}, binomially in z
                        s = beta + gamma
                        for i in range(n + 1):
                            coeff = a * c * mp.binomial(n, i) * y ** (n - i) * mp.exp(beta * y)
                            total += coeff * (antiderivative(i + l, s, end) - antiderivative(i + l, s, start))
            return mp.re(total)

    def exp_psi(self, a):
        """E(e^{aZ}) at the float, complex or mpmath a, as an mpmath number."""
        with mp.workdps(DPS):
            a = mp.mpmathify(a)
            s_part = mp.fsum(r / (m - a) for r, m in zip(self.residues, self.mu))
            return s_part * self.laplace_t(a)

    def product(self, keys):
        """The product of E(e^{aZ}) over the given keys, at DPS digits."""
        with mp.workdps(DPS):
            return mp.fprod(self.exp_psi(a) for a in keys)

    def exp_phi_chain(self, u, lam):
        """{a_k: e^{phi(a_k)}} on a_0 = u, a_{k+1} = a_k lam, in order of
        decreasing |a_k|.  A float or complex u is stepped in complex floats,
        as TransformEngine.exp_phi steps its keys; an mpmath u at DPS digits."""
        with mp.workdps(DPS):
            chain, a = [], u if isinstance(u, (mp.mpf, mp.mpc)) else complex(u)
            while abs(a) >= CUT * self.radius:
                chain.append((a, self.exp_psi(a)))
                a *= lam
            values, total = {}, mp.mpc(1)
            for a, factor in reversed(chain):
                total *= factor
                values[a] = total
        return dict(reversed(values.items()))

    def exp_phi(self, u, lam):
        return self.exp_phi_chain(u, lam).get(complex(u), mp.mpc(1))

    def crossing(self, lam, rho, b, xs):
        """Phi_i(x) = E_x(rho^tau 1_{G_i}) as floats, one row per x in xs,
        from the residue system sum_i a_ij Phi_i = c_j(x) at DPS digits:

            a_ij = u_ij + w_j G_ij,    c_j(x) = rho w_j F_j(x),
            w_j = r_j e^{-mu_j b} E(e^{-mu_j T}) e^{phi(lam mu_j)},
            F_j(x) = sum_{n>=1} rho^{n-1} e^{x a_n - phi(a_n)},
            G_ij = sum_{n>=1} rho^n e^{b a_n - phi(a_n)} sum_k u_ik / (mu_k - a_n),

        on a_n = lam^n mu_j.  Each series runs over the exp_phi chain of a_1;
        past its cut every term is its power of rho times 1 + O(CUT), so the
        rest is closed geometrically.
        """
        m = len(self.mu)
        with mp.workdps(DPS):
            lam, rho, b = mp.mpf(lam), mp.mpf(rho), mp.mpf(b)
            A, chains = mp.matrix(m, m), []
            for j, mu_j in enumerate(self.mu):
                chain = list(self.exp_phi_chain(lam * mu_j, lam).items())
                w = self.residues[j] * mp.exp(-mu_j * b) * self.laplace_t(mu_j) * chain[0][1]
                for i in range(m):
                    G = mp.fsum(
                        rho ** n * mp.exp(b * a) / e
                        * mp.fsum(u / (mu - a) for u, mu in zip(self.u[i], self.mu))
                        for n, (a, e) in enumerate(chain, 1)
                    )
                    A[i, j] = self.u[i][j] + w * (G + rho ** (len(chain) + 1) / (1 - rho))
                chains.append((w, chain))
            rows = []
            for x in xs:
                x = mp.mpf(float(x))
                c = mp.matrix([
                    rho * w * (
                        mp.fsum(rho ** (n - 1) * mp.exp(x * a) / e for n, (a, e) in enumerate(chain, 1))
                        + rho ** len(chain) / (1 - rho)
                    )
                    for w, chain in chains
                ])
                phi = mp.lu_solve(A.T, c)
                assert all(abs(mp.im(v)) < 1e-20 * max(1, abs(mp.re(v))) for v in phi), phi
                rows.append([float(mp.re(v)) for v in phi])
        return np.array(rows)


def q_exp(z, rho, lam):
    """Q(z) = sum_k (rho; lam)_k z^k / k! as a float.  Its terms reach e^|z|
    in size and Q(z) can be far below 1, so the sum is repeated with twice
    the spare digits until two passes agree."""
    spare, last = 30, None
    while True:
        with mp.workdps(int(abs(z) / 2.3) + spare):
            x, r, q = mp.mpf(z), mp.mpf(rho), mp.mpf(lam)
            total, term, poch, qk, k = mp.mpf(0), mp.mpf(1), mp.mpf(1), mp.mpf(1), 0
            while k <= abs(x) or abs(poch * term) >= mp.eps * abs(total):
                total += poch * term
                poch *= 1 - r * qk
                qk *= q
                k += 1
                term *= x / k
            if last is not None and abs(total - last) < 1e-25 * abs(total):
                return float(total)
        spare, last = 2 * spare, total


def f_of_b(b: float, mu: float, rho: float, lam: float) -> float:
    """The continuous-fit scalar equation for Exp(mu) innovations, identity gain."""
    if b < 0:
        raise ValidationError("b must be nonnegative")
    total = rho / mu
    poch = 1.0 - rho          # (rho; lam)_{k+1} built incrementally
    fact_term = b             # mu^k b^{k+1} / k!
    k = 0
    while True:
        term = poch * fact_term * (1.0 - rho * lam ** (k + 1) / (k + 1))
        total -= term
        poch *= 1.0 - rho * lam ** (k + 1)
        k += 1
        fact_term *= mu * b / k
        if abs(fact_term) < 1e-15 * max(1.0, abs(total)) and k > mu * b:
            return total
        if k > 100_000:
            raise NumericalConsistencyError("f(b) series failed to converge")
