"""Presented pointed Hopf algebras, built along one recursion.

A presentation has commuting group-like generators g_1..g_r (finite
orders) and skew-primitive generators x_1..x_s with

    Delta(x_i) = x_i (x) g^{u_i}  +  g^{v_i} (x) x_i,
    g_t x_i = theta[t][i] * x_i g_t,
    x_j x_i = theta_x[(j,i)] * x_i x_j + corr[(j,i)]   (j > i, corr in k[G]),
    x_i^{e_i} = power value in k[G].

Normal monomials e_a = x_1^{a_1} ... x_s^{a_s} g_1^{c_1} ... g_r^{c_r} are
listed in lexicographic order of their exponents.  A monomial that
contains an x is e_a = x_k e_a', with k its first skew index and e_a' the
earlier monomial with one x_k fewer; this is its word (`_words`).  A group
monomial g^c has none.  Every structure map is read along the word:

    product rows    e_a e_m = x_k (e_a' e_m),  g^c x^b g^d = theta(c, b) x^b g^{c+d},
    coproduct       Delta(e_a) = Delta(x_k) Delta(e_a'),  Delta(g^c) = g^c (x) g^c,
    antipode        S(e_a) = S(e_a') S(x_k),  S(g^c) = g^{-c},
    find_embedding  f(e_a) = f(x_k) f(e_a'),

with theta(c, b) = prod theta[t][i]^{c_t b_i} and S(x_i) = -g^{-v_i} x_i g^{-u_i}.
Delta and S are formed in H (x) H and H from the just-built product rows
(`linalg.tensor_mul`, `linalg.mult_vectors`), never from closed-form
q-binomial formulas.

A product row is kept as its cells, each the sorted (k, c) items of
e_a e_m, and handed to `SparseTensor3.from_rows` as the tensor's row view.
Most cells of a presented algebra have one term: x_k e_m is memoised as
its sorted items, so a one-term cell c e_m of e_a' gives the cell of
e_a = x_k e_a' as c times the items of x_k e_m (nonzero, since c is), with
no dict and no sort.  A cell of several terms (the correction of u_q(sl2),
or x^p = 1 - g^p in r) is summed through a dict and sorted.

The left action of x_i on e_m = x^b g^d comes from the relations:

  * if b_j > 0 for some j < i, take the first such j, so that e_m = x_j y
    is the word of e_m; then x_i x_j y = theta_x[(i,j)] x_j (x_i y) + corr[(i,j)] y;
  * otherwise x_i e_m = x^{b + 1_i} g^d is the next normal monomial, unless
    b_i + 1 = e_i: then x_i^{e_i} collapses to its power value P in k[G] and
    x_i e_m = P x^{b'} g^d, b' = b with b_i = 0, moved into normal form by theta.

The recursion terminates by induction on (i, deg e_m) in lexicographic
order, deg the x-degree: the second case makes no call, and in the first,
x_i y keeps i and has degree deg e_m - 1, while each x_j (...) has j < i.
Both coordinates are bounded, so no descending chain is infinite.  Results
are memoised per (i, m).

The table cannot depend on this evaluation order: when the normal monomials
are a basis of the presented algebra, its product in that basis is unique,
and every step above is a relation of that algebra.  `verify_hopf` stays
the final arbiter: build_from_presentation raises AxiomFailure for a
presentation whose table is not a Hopf algebra with these structure maps.
"""

from __future__ import annotations

from itertools import product

from .cyclo import CycloNum, Record, root_of_unity_order
from .errors import (AxiomFailure, FieldTooSmall, NoEmbeddingFound,
                     NonMonomialConstraint, NonTerminatingRewrite)
from .hopf import (ClaimSet, FinHopf, HopfMorphism, skew_primitive_map,
                   verify_hopf, verify_morphism)
from .linalg import (SparseTensor3, intersect_kernels, mult_vectors, outer,
                     ratio, sparse_add_into, sparse_sub, tensor_mul)


class GroupGen(Record):
    __slots__ = ("name", "order")


class SkewGen(Record):
    """Skew-primitive generator: Delta x = x (x) g^u + g^v (x) x, x^e = power;
    `power_value` is {group exponent tuple: CycloNum}."""

    __slots__ = ("name", "power_exp", "power_value", "u", "v")


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

    def gmod(self, c):
        return tuple(ci % g.order for ci, g in zip(c, self.group_gens))

    def gneg(self, c):
        return tuple((-ci) % g.order for ci, g in zip(c, self.group_gens))

    def gadd(self, c, d):
        return tuple((ci + di) % g.order
                     for ci, di, g in zip(c, d, self.group_gens))


def _words(monos) -> list:
    """The word of each normal monomial: (k, a') with e_a = x_k e_a', k the
    first skew index of e_a and a' < a the index of the monomial with one
    x_k fewer; None for a group monomial g^c."""
    index = {m: i for i, m in enumerate(monos)}
    words = []
    for a, c in monos:
        k = next((k for k, ak in enumerate(a) if ak), None)
        words.append(None if k is None else
                     (k, index[(a[:k] + (a[k] - 1,) + a[k + 1:], c)]))
    return words


def build_from_presentation(spec: PresentationSpec, fixtures=None) -> FinHopf:
    """Assemble the FinHopf with basis the normal monomials.

    Self-validation is mandatory: the result must pass verify_hopf, else
    AxiomFailure is raised (a wrong presentation or antipode choice).
    `fixtures` is passed on to `FinHopf` (isomorphism fixtures, computed on
    first read).
    """
    M = spec.conductor
    monos = spec.monomials()
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    one = CycloNum.one(M)
    words = _words(monos)
    up = {w: a for a, w in enumerate(words) if w is not None}  # x_k e_a' = e_a
    theta_memo: dict = {}
    act_memo: dict = {}
    items_memo: dict = {}

    def theta(w, b) -> CycloNum:
        """The scalar of g^w x^b = theta(w, b) x^b g^w."""
        acc = theta_memo.get((w, b))
        if acc is None:
            acc = one
            for t, ct in enumerate(w):
                if ct:
                    for i, bi in enumerate(b):
                        if bi:
                            acc = acc * spec.theta[t][i] ** (ct * bi)
            theta_memo[(w, b)] = acc
        return acc

    def group_mul(P: dict, m: int, out: dict):
        """out += P e_m, for P = {w: c} in k[G]."""
        b, d = monos[m]
        for w, c in P.items():
            if not c.is_zero():
                w = spec.gmod(w)
                sparse_add_into(out, index[(b, spec.gadd(w, d))], c * theta(w, b))

    def act_on(i: int, v) -> dict:
        """x_i v for a sparse vector v, given as its (m, c) items."""
        out: dict = {}
        for m, c in v:
            for m2, c2 in act(i, m).items():
                sparse_add_into(out, m2, c * c2)
        return out

    def act(i: int, m: int) -> dict:
        """x_i e_m, by the case split and induction of the module docstring."""
        out = act_memo.get((i, m))
        if out is None:
            if words[m] is not None and words[m][0] < i:
                j, y = words[m]
                th = spec.theta_x.get((i, j), one)
                xy = act_on(j, act(i, y).items())
                out = {k: th * c for k, c in xy.items()}
                group_mul(spec.corr.get((i, j), {}), y, out)
            elif (i, m) in up:
                out = {up[(i, m)]: one}
            else:
                b, d = monos[m]
                out = {}
                group_mul(spec.skew_gens[i].power_value,
                          index[(b[:i] + (0,) + b[i + 1:], d)], out)
            act_memo[(i, m)] = out
        return out

    def act_items(i: int, m: int) -> tuple:
        """x_i e_m as its sorted (k, c) items."""
        out = items_memo.get((i, m))
        if out is None:
            out = items_memo[(i, m)] = tuple(sorted(act(i, m).items()))
        return out

    def times(i: int, v: tuple) -> tuple:
        """x_i v for a cell v = ((m, c), ...) of a built row, as its sorted
        items: a one-term cell c e_m gives c times the items of x_i e_m."""
        if len(v) == 1:
            (m, c), = v
            items = act_items(i, m)
            return items if c is one else tuple((k, c * d) for k, d in items)
        return tuple(sorted(act_on(i, v).items())) if v else v

    rows = []  # rows[a][m] = e_a e_m, as its sorted (k, c) items
    for (_, c), word in zip(monos, words):
        if word is None:
            rows.append(tuple(((index[(b, spec.gadd(c, d))], theta(c, b)),)
                              for b, d in monos))
        else:
            rows.append(tuple(times(word[0], v) for v in rows[word[1]]))
    mult = SparseTensor3.from_rows((n, n, n), tuple(rows))
    del rows, items_memo
    mrows = mult.rows_ij()

    zero_x = (0,) * len(spec.skew_gens)

    def e(c) -> dict:
        """The basis vector of the group monomial g^c."""
        return {index[(zero_x, spec.gmod(c))]: one}

    # x_k = x_k e_0, Delta x_k = x_k (x) g^{u_k} + g^{v_k} (x) x_k and
    # S(x_k) = -g^{-v_k} x_k g^{-u_k}
    xs = [{up[(k, 0)]: one} for k in range(len(spec.skew_gens))]
    dx = [{**outer(x, e(sk.u)), **outer(e(sk.v), x)}
          for x, sk in zip(xs, spec.skew_gens)]
    s_gen = [mult_vectors(mrows, e(spec.gneg(sk.v)),
                          mult_vectors(mrows, {i: -c for i, c in x.items()},
                                       e(spec.gneg(sk.u))))
             for x, sk in zip(xs, spec.skew_gens)]
    delta, S = [], []
    for (_, c), word in zip(monos, words):
        if word is None:
            delta.append(outer(e(c), e(c)))
            S.append(e(spec.gneg(c)))
        else:
            k, a1 = word
            delta.append(tensor_mul(mrows, dx[k], delta[a1]))
            S.append(mult_vectors(mrows, S[a1], s_gen[k]))

    glike = [a for a, word in enumerate(words) if word is None]
    H = FinHopf(n, M, mult, e((0,) * len(spec.group_gens)),
                SparseTensor3.from_dict((n, n, n), {
                    (a, j, l): c for a, t in enumerate(delta)
                    for (j, l), c in t.items()}),
                dict.fromkeys(glike, one), S,
                ClaimSet([{a: one} for a in glike], solve_characters(spec)),
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


def _int_root(a: int, e: int) -> int | None:
    """The integer r > 0 with r^e = a, for integers a, e > 0, or None."""
    r = 1 << -(-a.bit_length() // e)  # r^e > a
    while True:  # Newton's method from above, on integers
        y = ((e - 1) * r + a // r ** (e - 1)) // e
        if y >= r:
            return r if r ** e == a else None
        r = y


def _root(rho: CycloNum, e: int) -> CycloNum | None:
    """An s with s^e = rho: rho itself when e = 1 or rho = 1, else the first
    s = q w, for the rational q > 0 and a root of unity w = +-zeta_M^k, or
    None when there is no such s.  Every +-zeta_M^j has content 1 (a
    rational dividing a unit of Z[zeta_M] is +-1), so the scale of s^e = rho
    is +-q^e, and q is its e-th root."""
    if e == 1 or rho.is_one():
        return rho
    M = rho.M
    a, b = _int_root(abs(rho.k), e), _int_root(rho.den, e)
    if a and b:
        q = CycloNum.from_rational(M, a) / CycloNum.from_rational(M, b)
        for kk in range(2 * M):
            s = q * (CycloNum.zeta(M, kk) if kk < M else -CycloNum.zeta(M, kk - M))
            if s ** e == rho:
                return s
    return None


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
    words = _words(monos)
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

    gl_candidates = [[v for v in glikes if power(v, g.order) == target.unit]
                     for g in spec.group_gens]

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
        for i, x in enumerate(spec.skew_gens):
            U = ev_group(spec.gmod(x.u))
            V = ev_group(spec.gmod(x.v))
            # c in the kernels of c -> Delta c - V (x) c - c (x) U and of
            # c -> phi(g_t) c - theta[t][i] c phi(g_t), one map per t
            def maps():
                yield skew_primitive_map(target, V, U)
                for t, gv in enumerate(phi_g):
                    th = spec.theta[t][i]
                    yield [sparse_sub(target.mul(gv, {b: one}),
                                      target.mul({b: one}, gv), th)
                           for b in range(n)]
            sol = intersect_kernels(maps(), n, M)
            if sol.dim == 0:
                break
            images_x.append(sol.basis[0])
        if len(images_x) < len(spec.skew_gens):
            continue

        # inhomogeneous relations, in order, each pin the scalar s of one
        # skew image by s^e = rho, where phi(P) = rho lhs: x_j x_i = theta
        # x_i x_j + corr gives s_j (c_j c_i - theta c_i c_j) = phi(corr)
        # (e = 1, keeping s_i = 1), and x_i^e = P gives s^e c_i^e = phi(P)
        def relations():
            for (j, i), cor in spec.corr.items():
                th = spec.theta_x.get((j, i), one)
                yield j, 1, ev_element(cor), sparse_sub(
                    target.mul(images_x[j], images_x[i]),
                    target.mul(images_x[i], images_x[j]), th)
            for i, x in enumerate(spec.skew_gens):
                yield i, x.power_exp, ev_element(x.power_value), power(
                    images_x[i], x.power_exp)

        for i, e, t, lhs in relations():
            if not t and not lhs:
                continue
            rho = ratio(lhs, t) if lhs and t else None
            s = None if rho is None else _root(rho, e)
            if s is None:
                break
            if not s.is_one():
                images_x[i] = {k: s * v for k, v in images_x[i].items()}
        else:
            cols = []  # f(e_a) = f(x_k) f(e_a'), f(g^c) = phi(g)^c
            for (_, c), word in zip(monos, words):
                cols.append(ev_group(c) if word is None else
                            target.mul(images_x[word[0]], cols[word[1]]))
            f = HopfMorphism(source, target, cols)
            if f.rank == source.dim:
                rep = verify_morphism(f)
                if rep.ok and rep.bijective:
                    return f
    raise NoEmbeddingFound(
        f"no generator-image Hopf map {source.label} -> {target.label} found")
