"""The rewriting engine that filled a presentation's product table before
`hopfkit.presentations` built it along the monomials' words, kept verbatim
as a slow oracle.

`_Engine` moves group-likes right and reorders skew generators by
declaration order, strictly reducing (x-degree, inversions); `oracle_mult`
forms all n^2 monomial products with it, as `build_from_presentation` did.
"""

from hopfkit.cyclo import CycloNum
from hopfkit.linalg import SparseTensor3, sparse_add_into
from hopfkit.presentations import PresentationSpec


class _Engine:
    """Rewriting engine; elements are dicts {(xexp, gexp): CycloNum}."""

    def __init__(self, spec: PresentationSpec):
        self.spec = spec
        self.M = spec.conductor
        self.one = CycloNum.one(self.M)
        self._rmul_memo: dict = {}
        self._xmul_memo: dict = {}
        self._theta_memo: dict = {}
        self.s = len(spec.skew_gens)
        self.r = len(spec.group_gens)
        self.zero_g = tuple(0 for _ in range(self.r))
        self.zero_x = tuple(0 for _ in range(self.s))

    def theta_pass(self, gexp, xexp) -> CycloNum:
        """Scalar from moving g^gexp right past x^xexp."""
        key = (gexp, xexp)
        acc = self._theta_memo.get(key)
        if acc is None:
            acc = self.one
            th = self.spec.theta
            for t, ct in enumerate(gexp):
                if ct:
                    for i, bi in enumerate(xexp):
                        if bi:
                            acc = acc * th[t][i] ** (ct * bi)
            self._theta_memo[key] = acc
        return acc

    def rmul_x(self, a: tuple, i: int) -> dict:
        """x^a * x_i as a normal-form element."""
        key = (a, i)
        out = self._rmul_memo.get(key)
        if out is not None:
            return out
        spec = self.spec
        jstar = None
        for j in range(self.s - 1, i, -1):
            if a[j]:
                jstar = j
                break
        if jstar is None:
            ai = a[i] + 1
            if ai < spec.skew_gens[i].power_exp:
                na = a[:i] + (ai,) + a[i + 1:]
                out = {(na, self.zero_g): self.one}
            else:
                # trailing x_i^{e_i} collapses to its power value in k[G]
                na = a[:i] + (0,) + a[i + 1:]
                out = {}
                for w, c in spec.skew_gens[i].power_value.items():
                    if not c.is_zero():
                        sparse_add_into(out, (na, spec.gmod(w)), c)
        else:
            aprime = a[:jstar] + (a[jstar] - 1,) + a[jstar + 1:]
            th = spec.theta_x.get((jstar, i), self.one)
            corr = spec.corr.get((jstar, i), {})
            out = {}
            # theta * (x^{a'} x_i) x_{j*}
            inner = self.rmul_x(aprime, i)
            for (e, f), c in inner.items():
                # (x^e g^f) x_{j*} = theta_pass(f, e_{j*}) x^e x_{j*} g^f
                step = self.rmul_x(e, jstar)
                scal = c * th * self.theta_pass(f, _unit_exp(self.s, jstar))
                for (e2, f2), c2 in step.items():
                    sparse_add_into(out, (e2, spec.gadd(f2, f)), scal * c2)
            # x^{a'} * corr
            for w, c in corr.items():
                if not c.is_zero():
                    sparse_add_into(out, (aprime, spec.gmod(w)), c)
        self._rmul_memo[key] = out
        return out

    def xmul(self, a: tuple, b: tuple) -> dict:
        """x^a * x^b as a normal-form element."""
        if not any(b):
            return {(a, self.zero_g): self.one}
        key = (a, b)
        out = self._xmul_memo.get(key)
        if out is not None:
            return out
        i = next(k for k, bk in enumerate(b) if bk)
        brest = b[:i] + (b[i] - 1,) + b[i + 1:]
        first = self.rmul_x(a, i)
        out = {}
        for (e, f), c in first.items():
            # (x^e g^f) x^{brest} = theta_pass(f, brest) (x^e x^{brest}) g^f
            scal = c * self.theta_pass(f, brest)
            rest = self.xmul(e, brest)
            for (e2, f2), c2 in rest.items():
                sparse_add_into(out, (e2, self.spec.gadd(f2, f)), scal * c2)
        self._xmul_memo[key] = out
        return out

    def mono_mul(self, m1, m2) -> dict:
        """Product of two normal monomials."""
        (a, c), (b, d) = m1, m2
        scal = self.theta_pass(c, b)
        cd = self.spec.gadd(c, d)
        out = {}
        for (e, f), coef in self.xmul(a, b).items():
            sparse_add_into(out, (e, self.spec.gadd(f, cd)), scal * coef)
        return out


def _unit_exp(n: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n))


def oracle_mult(spec: PresentationSpec) -> SparseTensor3:
    """The product tensor of the normal monomials, by the rewriting engine."""
    eng = _Engine(spec)
    monos = spec.monomials()
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    mult_d = {}
    for i, m1 in enumerate(monos):
        for j, m2 in enumerate(monos):
            for m, c in eng.mono_mul(m1, m2).items():
                if not c.is_zero():
                    mult_d[(i, j, index[m])] = c
    return SparseTensor3.from_dict((n, n, n), mult_d)
