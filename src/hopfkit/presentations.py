"""Normal-form engine for presented pointed Hopf algebras.

A presentation has commuting group-like generators g_1..g_r (finite
orders) and skew-primitive generators x_1..x_s with

    Delta(x_i) = x_i (x) g^{u_i}  +  g^{v_i} (x) x_i,
    g_t x_i = theta[t][i] * x_i g_t,
    x_j x_i = theta_x[(j,i)] * x_i x_j + corr[(j,i)]   (j > i, corr in k[G]),
    x_i^{e_i} = power value in k[G].

Normal monomials are x_1^{a_1} ... x_s^{a_s} g_1^{c_1} ... g_r^{c_r}; the
rewriting moves group-likes right and reorders skew generators by
declaration order, strictly reducing (x-degree, inversions), so it
terminates.  The engine fills the product table only.  Comultiplication
of a monomial is computed by multiplying the generators' coproducts inside
H (x) H, never from closed-form q-binomial formulas.  The antipode is
S(g) = g^{-1}, S(x_i) = -g^{-v_i} x_i g^{-u_i}, extended
anti-multiplicatively.  Both are read from the just-built product rows
(`linalg.tensor_mul`, `linalg.mult_vectors`); verify_hopf is the final
arbiter.
"""

from __future__ import annotations

from itertools import product

from .cyclo import CycloNum, root_of_unity_order
from .errors import (AxiomFailure, FieldTooSmall, NoEmbeddingFound,
                     NonMonomialConstraint, NonTerminatingRewrite)
from .hopf import (ClaimSet, FinHopf, HopfMorphism, skew_primitive_conditions,
                   verify_hopf, verify_morphism)
from .linalg import (SparseTensor3, intersect_kernels, mult_vectors, outer,
                     ratio, sparse_add_into, tensor_mul)


class GroupGen:
    __slots__ = ("name", "order")

    def __init__(self, name: str, order: int):
        self.name = name
        self.order = order


class SkewGen:
    """Skew-primitive generator: Delta x = x (x) g^u + g^v (x) x, x^e = power."""

    __slots__ = ("name", "power_exp", "power_value", "u", "v")

    def __init__(self, name: str, power_exp: int, power_value: dict,
                 u: tuple[int, ...], v: tuple[int, ...]):
        self.name = name
        self.power_exp = power_exp
        self.power_value = power_value  # {group exponent tuple: CycloNum}
        self.u = u
        self.v = v


class PresentationSpec:
    def __init__(self, conductor: int, group_gens, skew_gens, theta,
                 theta_x=None, corr=None, label: str = ""):
        self.conductor = conductor
        self.group_gens = list(group_gens)
        self.skew_gens = list(skew_gens)
        self.theta = theta          # theta[t][i]: g_t x_i = theta * x_i g_t
        self.theta_x = theta_x or {}  # {(j,i): CycloNum} for j > i
        self.corr = corr or {}        # {(j,i): {gexp: CycloNum}}
        self.label = label
        self._validate()

    def _validate(self):
        r, s = len(self.group_gens), len(self.skew_gens)
        for g in self.group_gens:
            if g.order < 1:
                raise NonTerminatingRewrite(f"group generator {g.name} has bad order")
        for x in self.skew_gens:
            if x.power_exp < 2:
                raise NonTerminatingRewrite(
                    f"power exponent of {x.name} must be >= 2")
            if len(x.u) != r or len(x.v) != r:
                raise NonTerminatingRewrite("comultiplication word length mismatch")
        if len(self.theta) != r or any(len(row) != s for row in self.theta):
            raise NonTerminatingRewrite("theta table shape mismatch")
        for (j, i), th in self.theta_x.items():
            if not j > i:
                raise NonTerminatingRewrite(
                    "commutation rules must move later generators past earlier ones")
            if th.is_zero():
                raise NonTerminatingRewrite("zero coefficient in commutation rule")
        for t, row in enumerate(self.theta):
            for th in row:
                if th.is_zero() or root_of_unity_order(th) is None:
                    raise NonTerminatingRewrite(
                        "group commutation coefficients must be roots of unity")

    # -- basis ------------------------------------------------------------------

    def monomials(self):
        xr = [range(x.power_exp) for x in self.skew_gens]
        gr = [range(g.order) for g in self.group_gens]
        out = []
        for a in product(*xr):
            for c in product(*gr):
                out.append((a, c))
        return out

    def dim(self) -> int:
        d = 1
        for x in self.skew_gens:
            d *= x.power_exp
        for g in self.group_gens:
            d *= g.order
        return d

    def gmod(self, c):
        return tuple(ci % g.order for ci, g in zip(c, self.group_gens))

    def gneg(self, c):
        return tuple((-ci) % g.order for ci, g in zip(c, self.group_gens))

    def gadd(self, c, d):
        return tuple((ci + di) % g.order
                     for ci, di, g in zip(c, d, self.group_gens))


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


def build_from_presentation(spec: PresentationSpec, fixtures=None) -> FinHopf:
    """Assemble the FinHopf with basis the normal monomials.

    Self-validation is mandatory: the result must pass verify_hopf, else
    AxiomFailure is raised (a wrong presentation or antipode choice).
    `fixtures` is passed on to `FinHopf` (isomorphism fixtures, computed on
    first read).
    """
    eng = _Engine(spec)
    M = spec.conductor
    monos = spec.monomials()
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    one = CycloNum.one(M)

    mult_d = {}
    for i, m1 in enumerate(monos):
        for j, m2 in enumerate(monos):
            for m, c in eng.mono_mul(m1, m2).items():
                if not c.is_zero():
                    mult_d[(i, j, index[m])] = c
    mult = SparseTensor3.from_dict((n, n, n), mult_d)
    mrows = mult.rows_ij()

    def e(xexp, gexp) -> dict:
        """The basis vector of the monomial x^xexp g^gexp."""
        return {index[(xexp, spec.gmod(gexp))]: one}

    # Delta and S on the generators: Delta x_k = x_k (x) g^{u_k} + g^{v_k} (x) x_k
    # and S(x_k) = -g^{-v_k} x_k g^{-u_k}
    xs = [e(_unit_exp(eng.s, k), eng.zero_g) for k in range(eng.s)]
    dx = [{**outer(x, e(eng.zero_x, sk.u)), **outer(e(eng.zero_x, sk.v), x)}
          for x, sk in zip(xs, spec.skew_gens)]
    s_gen = [mult_vectors(mrows, e(eng.zero_x, spec.gneg(sk.v)),
                          mult_vectors(mrows, {i: -c for i, c in x.items()},
                                       e(eng.zero_x, spec.gneg(sk.u))))
             for x, sk in zip(xs, spec.skew_gens)]
    # Delta(x1^a1 ... xs^as g^c) = Delta(x1)^a1 ... Delta(xs)^as (g^c (x) g^c)
    # and S(x1^a1 ... xs^as g^c) = S(g^c) S(xs)^as ... S(x1)^a1
    comult_d = {}
    S = []
    for i, (a, c) in enumerate(monos):
        t = outer(e(eng.zero_x, c), e(eng.zero_x, c))
        acc = e(eng.zero_x, spec.gneg(c))
        for k in range(eng.s - 1, -1, -1):
            for _ in range(a[k]):
                t = tensor_mul(mrows, dx[k], t)
                acc = mult_vectors(mrows, acc, s_gen[k])
        comult_d.update(((i, j, l), coef) for (j, l), coef in t.items())
        S.append(acc)

    glike = [i for i, (a, c) in enumerate(monos) if not any(a)]
    H = FinHopf(n, M, mult, e(eng.zero_x, eng.zero_g),
                SparseTensor3.from_dict((n, n, n), comult_d),
                dict.fromkeys(glike, one), S,
                ClaimSet([{i: one} for i in glike], solve_characters(spec)),
                spec.label, spec, fixtures)
    rep = verify_hopf(H)
    if not rep.ok:
        raise AxiomFailure(
            f"presentation {spec.label!r} failed verification: {rep.failures}")
    return H


def solve_characters(spec: PresentationSpec):
    """All algebra maps H -> k, as sparse covectors on the monomial basis
    (nonzero exactly on the group-likes, where the values are roots of unity).

    Skew-primitive generators are forced to 0 (by a nontrivial commutation
    coefficient, or by nilpotency when the power value is 0); group
    generators run over roots of unity of dividing order, filtered by the
    power-value and commutation-correction constraints.
    """
    M = spec.conductor
    one = CycloNum.one(M)
    zero = CycloNum.zero(M)
    for i, x in enumerate(spec.skew_gens):
        forced = any(not spec.theta[t][i].is_one() for t in range(len(spec.group_gens)))
        if not forced and any(not c.is_zero() for c in x.power_value.values()):
            raise NonMonomialConstraint(
                f"character image of {x.name} is not forced to 0")
    for g in spec.group_gens:
        if M % g.order != 0:
            raise FieldTooSmall(
                f"characters need conductor divisible by {g.order}")
    cands = []
    for g in spec.group_gens:
        step = M // g.order
        cands.append([CycloNum.zeta(M, step * k) for k in range(g.order)])
    monos = spec.monomials()
    # the relations' values in k[G]: each must vanish under the character
    relations = [x.power_value for x in spec.skew_gens] + list(spec.corr.values())
    out = []
    for phi_g in product(*cands):
        def ev_group(w):
            acc = one
            for val, e in zip(phi_g, w):
                if e:
                    acc = acc * val ** e
            return acc

        if all(sum((c * ev_group(spec.gmod(w)) for w, c in rel.items()
                    if not c.is_zero()), zero).is_zero() for rel in relations):
            out.append({i: ev_group(c) for i, (a, c) in enumerate(monos)
                        if not any(a)})
    return out


# -- generator-image isomorphism search ------------------------------------------


def find_embedding(source: FinHopf, target: FinHopf) -> HopfMorphism:
    """Search for a bijective Hopf map source -> target on generator images.

    The source must come from build_from_presentation.  Group generators
    range over the target's verified group-like claims; each skew
    generator's image is solved linearly (skew-primitive space cut by the
    commutation eigenvalue conditions).  Every candidate is checked by
    verify_morphism; the first verified bijective map wins.
    """
    spec: PresentationSpec = source.presentation
    monos = source.monomials
    if spec is None:
        raise NoEmbeddingFound("source was not built from a presentation")
    M = target.conductor
    if source.conductor != M:
        raise NoEmbeddingFound("conductor mismatch")
    n = target.dim
    one = CycloNum.one(M)

    glikes = target.verified_grouplikes
    if not glikes:
        raise NoEmbeddingFound("target has no verified group-like claims")

    def power(v: dict, e: int) -> dict:
        acc = target.unit
        for _ in range(e):
            acc = target.mul(acc, v)
        return acc

    def order_divides(v: dict, N: int) -> bool:
        return power(v, N) == target.unit

    gl_candidates = []
    for g in spec.group_gens:
        gl_candidates.append([v for v in glikes if order_divides(v, g.order)])

    for phi_g in product(*gl_candidates):
        def ev_group(w) -> dict:
            acc = target.unit
            for val, e in zip(phi_g, w):
                acc = target.mul(acc, power(val, e))
            return acc

        def ev_element(P: dict) -> dict:
            t: dict = {}
            for w, cc in P.items():
                if not cc.is_zero():
                    for k, ck in ev_group(spec.gmod(w)).items():
                        sparse_add_into(t, k, cc * ck)
            return t

        images_x = []
        feasible = True
        for i, x in enumerate(spec.skew_gens):
            U = ev_group(spec.gmod(x.u))
            V = ev_group(spec.gmod(x.v))
            # Delta c = V (x) c + c (x) U, then the eigenvalue conditions
            # phi(g_t) c = theta[t][i] c phi(g_t), linear in the coords c_m
            def conditions():
                yield from skew_primitive_conditions(target, V, U)
                for t, gv in enumerate(phi_g):
                    th = spec.theta[t][i]
                    eq: dict = {}
                    for b in range(n):
                        for a, c in target.mul(gv, {b: one}).items():
                            sparse_add_into(eq.setdefault(a, {}), b, c)
                        for a, c in target.mul({b: one}, gv).items():
                            sparse_add_into(eq.setdefault(a, {}), b, -(th * c))
                    yield from eq.values()
            sol = intersect_kernels(conditions(), n, M)
            if sol.dim == 0:
                feasible = False
                break
            images_x.append(sol.basis[0])
        if not feasible:
            continue

        # inhomogeneous relations pin relative scalars of the skew images:
        # x_j x_i = theta x_i x_j + corr forces s_j s_i (c_j c_i - theta c_i c_j)
        # = phi(corr); rescale c_j (keeping s_i = 1) when proportional
        ok_scale = True
        for (j, i), cor in spec.corr.items():
            t = ev_element(cor)
            th = spec.theta_x.get((j, i), one)
            w1 = target.mul(images_x[j], images_x[i])
            w2 = target.mul(images_x[i], images_x[j])
            diff: dict = dict(w1)
            for k, ck in w2.items():
                sparse_add_into(diff, k, -(th * ck))
            if not diff and not t:
                continue
            rho = ratio(diff, t) if diff and t else None
            if rho is None:
                ok_scale = False
                break
            images_x[j] = {k: rho * v for k, v in images_x[j].items()}
        if not ok_scale:
            continue
        # inhomogeneous power values: s^e c^e = phi(P) with s a root of unity
        for i, x in enumerate(spec.skew_gens):
            t = ev_element(x.power_value)
            ce = target.unit
            for _ in range(x.power_exp):
                ce = target.mul(ce, images_x[i])
            if not t and not ce:
                continue
            rho = ratio(ce, t) if ce and t else None
            if rho is None:
                ok_scale = False
                break
            if not rho.is_one():
                s = None
                for kk in range(2 * M):
                    cand = CycloNum.zeta(M, kk) if kk < M else -CycloNum.zeta(M, kk - M)
                    if cand ** x.power_exp == rho:
                        s = cand
                        break
                if s is None:
                    ok_scale = False
                    break
                images_x[i] = {k: s * v for k, v in images_x[i].items()}
        if not ok_scale:
            continue

        cols = []
        okmat = True
        for (a, c) in monos:
            img = ev_group(c)
            for k in range(len(spec.skew_gens) - 1, -1, -1):
                for _ in range(a[k]):
                    img = target.mul(images_x[k], img)
            cols.append(img)
        f = HopfMorphism(source, target, cols)
        if f.rank != source.dim:
            continue
        rep = verify_morphism(f)
        if rep.ok and rep.bijective:
            return f
    raise NoEmbeddingFound(
        f"no generator-image Hopf map {source.label} -> {target.label} found")
