"""High-precision reference for E(e^{aZ}) and e^{phi(a)}, used by tests only.

E(e^{aZ}) = alpha (-aI - Q)^{-1} q E(e^{-aT}).  The resolvent is summed in
partial fractions over an mpmath eigendecomposition of Q at DPS digits, so
it shares nothing with the engine's numpy eigendecomposition; E(e^{-aT})
is T's closed-form Laplace transform.  e^{phi} on a lambda-chain is one
backward product of those factors.
"""

import mpmath as mp

DPS = 30
# A chain is cut once |a_K| < CUT min|mu_j|: the factors left out are
# 1 + O(|a|) and multiply to 1 + O(CUT), far below any float tolerance.
CUT = 1e-20


class Reference:
    """E(e^{aZ}) and e^{phi(a)} for one innovation law Z = S - T."""

    def __init__(self, inn):
        self.t = inn.t_part
        with mp.workdps(DPS):
            Q = mp.matrix(inn.s_part.Q.tolist())
            E, V = mp.eig(Q)
            left = mp.matrix([list(inn.s_part.alpha)]) * V
            right = mp.inverse(V) * (-Q * mp.ones(Q.rows, 1))
            self.mu = [-e for e in E]
            self.residues = [left[j] * right[j] for j in range(Q.rows)]
        self.radius = float(min(abs(m) for m in self.mu))

    def exp_psi(self, a):
        """E(e^{aZ}) at the float or complex a, as an mpmath number."""
        with mp.workdps(DPS):
            a = mp.mpmathify(a)
            s_part = mp.fsum(r / (m - a) for r, m in zip(self.residues, self.mu))
            t = self.t
            if t.variant == "zero":
                return s_part
            if t.variant == "point_mass":
                return s_part * mp.exp(-a * t.d)
            shape = 1 if t.variant == "exponential" else t.shape
            return s_part * (t.rate / (t.rate + a)) ** shape

    def product(self, keys):
        """The product of E(e^{aZ}) over the given keys, at DPS digits."""
        with mp.workdps(DPS):
            return mp.fprod(self.exp_psi(a) for a in keys)

    def exp_phi_chain(self, u, lam):
        """{a_k: e^{phi(a_k)}} on a_0 = u, a_{k+1} = a_k lam, stepped in
        complex floats as TransformEngine.exp_phi steps its keys."""
        chain, a = [], complex(u)
        while abs(a) >= CUT * self.radius:
            chain.append((a, self.exp_psi(a)))
            a *= lam
        values, total = {}, mp.mpc(1)
        with mp.workdps(DPS):
            for a, factor in reversed(chain):
                total *= factor
                values[a] = total
        return values

    def exp_phi(self, u, lam):
        return self.exp_phi_chain(u, lam).get(complex(u), mp.mpc(1))
