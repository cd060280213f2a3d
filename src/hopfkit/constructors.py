"""Constructors for the full corpus: group algebras and duals, the
presented pointed families, crossed products, and the Drinfeld double.

q parameters are integer exponents (q = zeta_p^e); nothing is ever passed
as a floating approximation.  Every constructor output is verified at build
time: by verify_hopf for a presentation, a group algebra and the Drinfeld
double, and by the certificate of `hopf.dual` or `hopf.tensor` for a dual
member and taft_tensor.  Self-validation is mandatory, not optional.

The double's product is read from one table X[b][c] = (1 # e_b)(beta_c # 1)
formed by products in H, and its character claims pass the group-like test
of `hopf.is_grouplike` on D(H)*; a crossed product's action maps pass the
algebra-map sweep of `hopf.algebra_map_failure`.
"""

from __future__ import annotations

import weakref
from math import lcm

from .cyclo import MAX_CONDUCTOR, CycloNum
from .errors import (BadParameter, CocycleConditionFails,
                     DimensionGateExceeded, WeakActionAxiomFails)
from .groups import FiniteGroup, abelian, cyclic, heisenberg, semidirect_p2_p
from .hopffile import MAX_DIM
from .hopf import (ClaimSet, FinHopf, algebra_map_failure,
                   associativity_failure, is_grouplike, tensor, verify_hopf)
from .linalg import (SparseTensor3, apply_columns, coproduct_leg,
                     identity_columns, mult_vectors, sparse_add_into,
                     transpose_columns)
from .presentations import (GroupGen, PresentationSpec, SkewGen,
                            build_from_presentation, find_embedding)


def _check_odd_prime(p: int):
    # a p-th root of unity needs p <= M <= MAX_CONDUCTOR; this bounds the loop
    if p > MAX_CONDUCTOR:
        raise BadParameter(f"p must be at most {MAX_CONDUCTOR}, got {p}")
    if p < 3 or p % 2 == 0 or any(p % d == 0 for d in range(3, int(p ** 0.5) + 1, 2)):
        raise BadParameter(f"p must be an odd prime, got {p}")


def _check_exponent(e: int, p: int):
    if e % p == 0:
        raise BadParameter(f"q = zeta_{p}^{e} must be a primitive p-th root (e != 0 mod p)")


# -- group algebras ---------------------------------------------------------------


def group_algebra(G: FiniteGroup, conductor: int) -> FinHopf:
    """k[G] on the basis G, with all group-likes and all linear characters;
    verified by verify_hopf, so every k[G] is checked where it is built."""
    n = G.order
    M = conductor
    one = CycloNum.one(M)
    mult = {}
    for i, g in enumerate(G.elements):
        for j, h in enumerate(G.elements):
            mult[(i, j, G.index[G.mul(g, h)])] = one
    comult = {(i, i, i): one for i in range(n)}
    unit = {G.index[G.identity]: one}
    counit = dict.fromkeys(range(n), one)
    S = [{G.index[G.inverse(g)]: one} for g in G.elements]
    gls = [{i: one} for i in range(n)]
    H = FinHopf(n, M, SparseTensor3.from_dict((n, n, n), mult), unit,
                SparseTensor3.from_dict((n, n, n), comult), counit, S,
                ClaimSet(gls, G.characters(M)), f"k[{G.label}]")
    rep = verify_hopf(H)
    if not rep.ok:
        raise AssertionError(f"group algebra failed verification: {rep.failures}")
    return H


# -- presented families -------------------------------------------------------------


def _zeta_pow(M: int, order: int, e: int) -> CycloNum:
    if M % order != 0:
        raise BadParameter(f"conductor {M} cannot host a root of order {order}")
    return CycloNum.zeta(M, (M // order) * e)


def taft_spec(p: int, e: int, M: int) -> PresentationSpec:
    q = _zeta_pow(M, p, e)
    return PresentationSpec(
        M, [GroupGen("g", p)],
        [SkewGen("x", p, {}, u=(0,), v=(1,))],   # Delta x = x(x)1 + g(x)x
        theta=[[q]], label=f"taft(p={p},e={e})")


def ttilde_spec(p: int, e: int, root: int, M: int) -> PresentationSpec:
    # q^{1/p} = zeta_{p^2}^{e + p*root}: a p-th root of q = zeta_p^e
    if M % (p * p) != 0:
        raise BadParameter(f"ttilde needs conductor divisible by {p * p}")
    q1p = CycloNum.zeta(M, (M // (p * p)) * (e + p * (root % p)))
    return PresentationSpec(
        M, [GroupGen("g", p * p)],
        [SkewGen("x", p, {}, u=(p,), v=(0,))],   # Delta x = x(x)g^p + 1(x)x
        theta=[[q1p]], label=f"ttilde(p={p},e={e},root={root % p})")


def that_spec(p: int, e: int, M: int) -> PresentationSpec:
    q = _zeta_pow(M, p, e)
    return PresentationSpec(
        M, [GroupGen("g", p * p)],
        [SkewGen("x", p, {}, u=(1,), v=(0,))],   # Delta x = x(x)g + 1(x)x
        theta=[[q]], label=f"that(p={p},e={e})")


def r_spec(p: int, e: int, M: int) -> PresentationSpec:
    q = _zeta_pow(M, p, e)
    one = CycloNum.one(M)
    return PresentationSpec(
        M, [GroupGen("g", p * p)],
        [SkewGen("x", p, {(0,): one, (p,): -one}, u=(1,), v=(0,))],  # x^p = 1 - g^p
        theta=[[q]], label=f"r(p={p},e={e})")


def uq_sl2_spec(p: int, e: int, M: int) -> PresentationSpec:
    q = _zeta_pow(M, p, e)
    one = CycloNum.one(M)
    return PresentationSpec(
        M, [GroupGen("g", p)],
        [SkewGen("x", p, {}, u=(1,), v=(0,)),        # Delta x = x(x)g + 1(x)x
         SkewGen("y", p, {}, u=(0,), v=(p - 1,))],   # Delta y = y(x)1 + g^{-1}(x)y
        theta=[[q ** 2, q ** (-2)]],
        theta_x={(1, 0): one},
        corr={(1, 0): {(1,): -one, (p - 1,): one}},  # yx = xy - (g - g^{-1})
        label=f"uq_sl2(p={p},e={e})")


def book_spec(p: int, e: int, m: int, M: int) -> PresentationSpec:
    q = _zeta_pow(M, p, e)
    one = CycloNum.one(M)
    return PresentationSpec(
        M, [GroupGen("g", p)],
        [SkewGen("x", p, {}, u=(1,), v=(0,)),          # Delta x = x(x)g + 1(x)x
         SkewGen("y", p, {}, u=(0,), v=(m % p,))],     # Delta y = y(x)1 + g^m(x)y
        theta=[[q, q ** m]],
        theta_x={(1, 0): one},
        label=f"book(p={p},e={e},m={m % p})")


# -- registry -------------------------------------------------------------------------

# tokens are p-relative: z27 means Z/p^3, z3 means Z/p, and so on
GROUP_TOKENS = ("z27", "z9xz3", "z3xz3xz3", "heis", "z9sz3")
SMALL_GROUP_TOKENS = ("z3", "z9", "z3xz3")


_GROUPS = {
    "z27": (lambda p: cyclic(p ** 3), 3, 3),
    "z9xz3": (lambda p: abelian(p * p, p), 2, 3),
    "z3xz3xz3": (lambda p: abelian(p, p, p), 1, 3),
    "heis": (heisenberg, 1, 3),
    "z9sz3": (semidirect_p2_p, 2, 3),
    "z3": (cyclic, 1, 1),
    "z9": (lambda p: cyclic(p * p), 2, 2),
    "z3xz3": (lambda p: abelian(p, p), 1, 2),
}


def _group_by_token(token: str):
    """(builder of the group at p, its exponent as a power of p, its order
    as a power of p) of a group token, so that a conductor and a dimension
    are checked before any group is built."""
    if token not in _GROUPS:
        raise BadParameter(f"unknown group token {token!r}; use one of "
                           f"{GROUP_TOKENS + SMALL_GROUP_TOKENS}")
    return _GROUPS[token]


def default_conductor(name: str, p: int, group: str | None = None) -> int:
    base = p * p
    if name in ("group_algebra", "dual_group_algebra") and group is not None:
        return lcm(base, p ** _group_by_token(group)[1])
    return base


def member_dim(name: str, p: int, group: str | None = None) -> int:
    """The dimension of a corpus member, read from its group token or its
    family, never from a build: |G| for k[G] and k^G, p^2 for taft, and p^3
    for every other family."""
    if name in ("group_algebra", "dual_group_algebra") and group is not None:
        return p ** _group_by_token(group)[2]
    return p * p if name == "taft" else p ** 3


# (name, p, e, m, root, group, conductor) -> FinHopf.  A plain dict, so that
# `sweep_corpus` can drop the entries that a family added.
_CACHE: dict = {}


def standard_constructors(name: str, p: int = 3, e: int = 1, m: int = 1,
                          root: int = 0, group: str | None = None,
                          conductor: int | None = None) -> FinHopf:
    """Build a verified corpus member by registry name, once per algebra.

    Names: group_algebra, dual_group_algebra (with `group` token), taft,
    taft_tensor, ttilde, that, r, uq_sl2, book, dual_uq_sl2, dual_r.
    The conductor defaults before the cache lookup, so passing the default
    conductor returns the same object as omitting it.  A dual member is the
    `dual_cached()` of its base (certified by transposition, see `dual`).
    The book and ttilde members compute their `iso_fixtures` on first read.
    A member above the .hopf file limit of `MAX_DIM` is refused before
    anything is built.
    """
    _check_odd_prime(p)
    if conductor is None:
        conductor = default_conductor(name, p, group)
    if conductor > MAX_CONDUCTOR:
        raise BadParameter(f"conductor {conductor} exceeds {MAX_CONDUCTOR}")
    dim = member_dim(name, p, group)
    if dim > MAX_DIM:
        raise BadParameter(f"dim {dim} of {name} at p = {p} exceeds the "
                           f".hopf file limit {MAX_DIM}")
    key = (name, p, e, m, root, group, conductor)
    H = _CACHE.get(key)
    if H is None:
        H = _CACHE[key] = _build(*key)
    return H


def _build(name, p, e, m, root, group, M) -> FinHopf:
    if name == "group_algebra":
        if group is None:
            raise BadParameter("group_algebra needs a group token")
        build, k, _ = _group_by_token(group)
        if M % p ** k != 0:
            raise BadParameter(
                f"conductor {M} too small for k[{build(p).label}] "
                f"(characters need {p ** k} | M)")
        return group_algebra(build(p), M)
    if name == "dual_group_algebra":
        return standard_constructors("group_algebra", p, group=group,
                                     conductor=M).dual_cached()

    _check_exponent(e, p)
    if name == "book" and m % p == 0:
        raise BadParameter("book algebra needs m != 0 mod p")
    if name == "taft":
        return build_from_presentation(taft_spec(p, e, M))
    if name == "taft_tensor":
        T = standard_constructors("taft", p, e, conductor=M)
        return tensor(T, group_algebra(cyclic(p), M), f"taft_tensor(p={p},e={e})")
    if name == "ttilde":
        return _with_fixtures(ttilde_spec(p, e, root, M), _ttilde_fixtures,
                              p, e, root, M)
    if name == "that":
        return build_from_presentation(that_spec(p, e, M))
    if name == "r":
        return build_from_presentation(r_spec(p, e, M))
    if name == "uq_sl2":
        return build_from_presentation(uq_sl2_spec(p, e, M))
    if name == "book":
        return _with_fixtures(book_spec(p, e, m, M), _book_fixtures,
                              p, e, m, M)
    if name in ("dual_uq_sl2", "dual_r"):
        return standard_constructors(name[len("dual_"):], p, e,
                                     conductor=M).dual_cached()
    raise BadParameter(f"unknown constructor {name!r}")


def _with_fixtures(spec: PresentationSpec, fixtures, *args) -> FinHopf:
    """The presented algebra H whose `iso_fixtures` are fixtures(H, *args),
    run on first read.  The fixture function holds H by a weak reference
    bound after the build, so H is in no reference cycle, and a member
    dropped from the cache is freed by reference counting alone."""
    ref = None
    H = build_from_presentation(spec, lambda: fixtures(ref(), *args))
    ref = weakref.ref(H)
    return H


def _book_fixtures(H: FinHopf, p, e, m, M) -> tuple:
    """The two paper-asserted book isomorphism fixtures."""
    fixtures = []
    # h(q,m) ~ h(q^{-m^2}, m^{-1})
    minv = pow(m, -1, p)
    e2 = (-m * m * e) % p
    twin = standard_constructors("book", p, e2, minv, conductor=M)
    f = find_embedding(H, twin)
    fixtures.append((("book", p, e2, minv), f.cols))
    # h(q,-m)* ~ h(q,m): map h(q,m) -> dual(h(q,-m))
    other = standard_constructors("book", p, e, (-m) % p, conductor=M)
    f2 = find_embedding(H, other.dual_cached())
    fixtures.append((("dual_book", p, e, (-m) % p), f2.cols))
    return tuple(fixtures)


def _ttilde_fixtures(H: FinHopf, p, e, root, M) -> tuple:
    """ttilde(q) does not depend on the choice of the p-th root of q."""
    other = standard_constructors("ttilde", p, e, root=(root + 1) % p,
                                  conductor=M)
    f = find_embedding(H, other)
    return ((("ttilde", p, e, (root + 1) % p), f.cols),)


def resolve_fixture_target(key, conductor: int | None = None) -> FinHopf:
    """The corpus member a fixture key names."""
    kind, p, e, m_or_root = key
    if kind == "book":
        return standard_constructors("book", p, e, m_or_root, conductor=conductor)
    if kind == "dual_book":
        return standard_constructors("book", p, e, m_or_root,
                                     conductor=conductor).dual_cached()
    if kind == "ttilde":
        return standard_constructors("ttilde", p, e, root=m_or_root,
                                     conductor=conductor)
    raise BadParameter(f"unknown fixture target {key!r}")


def _corpus_members(p: int, e: int) -> list[tuple]:
    """The `standard_constructors` arguments of every corpus member, in
    corpus order."""
    return ([("group_algebra", p, 1, 1, 0, t) for t in GROUP_TOKENS]
            + [("dual_group_algebra", p, 1, 1, 0, t) for t in ("heis", "z9sz3")]
            + [(name, p, e) for name in ("taft", "taft_tensor", "ttilde",
                                         "that", "r", "uq_sl2")]
            + [("book", p, e, m) for m in range(1, p)]
            + [("dual_uq_sl2", p, e), ("dual_r", p, e)])


# a dual member goes with its base, and taft_tensor with the taft it is
# built from; every other member is a family of its own
_FAMILY_HEAD = {"dual_group_algebra": "group_algebra", "dual_uq_sl2": "uq_sl2",
                "dual_r": "r", "taft_tensor": "taft"}


def sweep_corpus(visit, p: int = 3, e: int = 1) -> list:
    """[visit(H) for H in corpus(p, e).values()], built and visited one
    family at a time, in the order of each family's first member.

    The constructor cache entries that a family added are dropped before
    the next family is built, so only what `visit` returns outlives the
    family.  A member that was cached before the walk stays, so
    `standard_constructors` still returns the same object to every other
    caller."""
    members = _corpus_members(p, e)
    families: dict = {}
    for i, args in enumerate(members):
        head = (_FAMILY_HEAD.get(args[0], args[0]),) + args[1:]
        families.setdefault(head, []).append(i)
    out = [None] * len(members)
    for family in families.values():
        added = len(_CACHE)
        for i in family:
            out[i] = visit(standard_constructors(*members[i]))
        for key in list(_CACHE)[added:]:
            del _CACHE[key]
    return out


def corpus(p: int = 3, e: int = 1) -> dict[str, FinHopf]:
    """Every corpus algebra at the given odd prime, keyed by display name."""
    return {H.label: H
            for H in (standard_constructors(*a) for a in _corpus_members(p, e))}


# -- crossed products ------------------------------------------------------------------


class CrossedProductData:
    """A #_sigma k[Z/m]: a weak action (one algebra map per group element)
    and a 2-cocycle table with values in A.

    The unit of A and the cocycle values are sparse vectors, and each
    action map is a list of sparse columns."""

    def __init__(self, A_mult: SparseTensor3, A_unit: dict, conductor: int,
                 gamma_order: int, action, sigma):
        self.A_mult = A_mult
        self.A_unit = A_unit
        self.M = conductor
        self.gamma_order = gamma_order
        self.action = [list(cols) for cols in action]
        self.sigma = dict(sigma)
        self._verify()

    def _verify(self):
        nA = self.A_mult.dims[0]
        mg = self.gamma_order
        rows = self.A_mult.rows_ij()
        unit = self.A_unit
        if len(self.action) != mg:
            raise WeakActionAxiomFails("need one action matrix per group element")
        if self.action[0] != identity_columns(nA, self.M):
            raise WeakActionAxiomFails("identity must act trivially")
        for j, cols in enumerate(self.action):
            # an algebra map: b.1 = 1 and b.(aa') = (b.a)(b.a')
            fail = algebra_map_failure(
                rows, cols, lambda u, v: mult_vectors(rows, u, v), unit, unit)
            if fail == ("unit",):
                raise WeakActionAxiomFails(f"action of element {j} does not fix 1")
            if fail is not None:
                raise WeakActionAxiomFails(
                    f"action of element {j} is not an algebra map at ({fail[0]},{fail[1]})")
        sigma = self.sigma
        if any(sigma[(i, 0)] != unit or sigma[(0, i)] != unit for i in range(mg)):
            raise CocycleConditionFails("sigma is not normalized")
        # [b . sigma(b', b'')] sigma(b, b'b'') = sigma(b, b') sigma(bb', b'')
        for i in range(mg):
            for j in range(mg):
                for k in range(mg):
                    lhs = mult_vectors(
                        rows, apply_columns(self.action[i], sigma[(j, k)]),
                        sigma[(i, (j + k) % mg)])
                    rhs = mult_vectors(rows, sigma[(i, j)], sigma[((i + j) % mg, k)])
                    if lhs != rhs:
                        raise CocycleConditionFails(
                            f"cocycle condition fails at ({i},{j},{k})")


def crossed_product(data: CrossedProductData) -> tuple[SparseTensor3, dict]:
    """Structure constants of A #_sigma k[Z/m]; associativity re-verified."""
    nA = data.A_mult.dims[0]
    mg = data.gamma_order
    M = data.M
    n = nA * mg
    rows = data.A_mult.rows_ij()
    one = CycloNum.one(M)

    def ix(a, i):
        return a * mg + i

    mult: dict = {}
    for i in range(mg):
        for j in range(mg):
            s_ij = data.sigma[(i, j)]
            for a in range(nA):
                for c in range(nA):
                    prod = mult_vectors(
                        rows, {a: one}, mult_vectors(rows, data.action[i][c], s_ij))
                    for k, coef in prod.items():
                        sparse_add_into(mult, (ix(a, i), ix(c, j), ix(k, (i + j) % mg)), coef)
    t = SparseTensor3.from_dict((n, n, n), mult)
    fail = associativity_failure(t.rows_ij())
    if fail is not None:
        i, j, k = fail
        raise CocycleConditionFails(
            f"crossed product is not associative at ({i},{j},{k})")
    return t, {ix(a, 0): c for a, c in data.A_unit.items()}


# -- Drinfeld double -------------------------------------------------------------------

# the largest H whose double is built: D(H) has dimension at most 81
DOUBLE_MAX_DIM = 9


def drinfeld_double(H: FinHopf) -> FinHopf:
    """D(H) = H*^{cop} (x) H with the standard double multiplication.

    Convention: (b # h)(b' # h') = b (h1 -> b' <- S^{-1} h3) # h2 h',
    with (h -> b)(m) = b(m h) and (b <- h)(m) = b(h m).  Validated by
    verify_hopf and by the F-surjection tests downstream.
    """
    if H.dim > DOUBLE_MAX_DIM:
        raise DimensionGateExceeded(
            f"dim {H.dim} exceeds the double's dimension gate {DOUBLE_MAX_DIM}")
    n, M = H.dim, H.conductor
    nD = n * n
    one = CycloNum.one(M)
    mrows = H.mrows
    sinv_cols = H.antipode_inv

    def ix(a, b):
        return a * n + b

    # X[b][c] = (1 # e_b)(beta_c # 1) = sum (e_b1 -> beta_c <- S^{-1} e_b3) # e_b2
    # as {(m, b2): coeff} for beta_m # e_b2, where (h -> beta_c <- s)(e_m) is
    # beta_c(s e_m h), the coefficient of e_c in s e_m h
    X = [[{} for _ in range(n)] for _ in range(n)]
    for b in range(n):
        for (b1, b2, b3), t in coproduct_leg(H.crows, dict(H.crows[b]), 0).items():
            for m in range(n):
                for c, w in H.mul(H.mul(sinv_cols[b3], {m: one}), {b1: one}).items():
                    sparse_add_into(X[b][c], (m, b2), t * w)
    # (beta_a # e_b)(beta_c # e_d) = (beta_a # 1) X[b][c] (1 # e_d), with the
    # product beta_a beta_m of H* read from its rows
    drows = H.dual_cached().mrows
    mult: dict = {}
    for b in range(n):
        for c in range(n):
            for (m, k), w in X[b][c].items():
                for a in range(n):
                    for mm, cm in drows[a][m]:
                        wc = w * cm
                        for d in range(n):
                            for kk, ck in mrows[k][d]:
                                sparse_add_into(mult, (ix(a, b), ix(c, d), ix(mm, kk)),
                                                wc * ck)

    # Delta_D(beta_a # e_b) = sum c_{jk}^a d_b^{pq} (beta_k # e_p) (x) (beta_j # e_q)
    comult: dict = {}
    for entry in H.mult.entries:
        (j, k2, a), cc = entry
        for b in range(n):
            for (p, q2), dd in H.crows[b]:
                key = (ix(a, b), ix(k2, p), ix(j, q2))
                sparse_add_into(comult, key, cc * dd)

    def smash(u: dict, v: dict) -> dict:
        """u # v for sparse u in H* and v in H."""
        return {ix(a, b): ua * vb for a, ua in u.items() for b, vb in v.items()}

    unit, counit = smash(H.counit, H.unit), smash(H.unit, H.counit)
    mult_t = SparseTensor3.from_dict((nD, nD, nD), mult)

    # antipode: S_D(beta # h) = (eps # S h) . ((S^{-1})* beta # 1), column
    # ix(a, b) for beta_a # e_b
    Dr = mult_t.rows_ij()
    # (S^{-1})* beta_a: covector j -> beta_a(S^{-1} e_j), row a of S^{-1}
    sinv_rows = transpose_columns(sinv_cols, n)
    S = [mult_vectors(Dr, smash(H.counit, H.antipode[b]), smash(sinv_rows[a], H.unit))
         for a in range(n) for b in range(n)]

    # claims: group-likes beta # x for characters beta, group-likes x;
    # character candidates x # beta, kept when they are algebra characters
    # of D(H), i.e. group-likes of D(H)*, whose comultiplication is the
    # product of D(H) read backwards, e_k -> sum c_ij^k e_i (x) e_j; for each
    # kept one, beta # x is claimed central as well.  D(H) is not verified
    # yet, so they are tested on every row (no generators of D(H))
    gls = [smash(beta, x) for beta in H.claims.characters
           for x in H.claims.grouplikes]
    dual_crows: list[list] = [[] for _ in range(nD)]
    for (i, j, k), c in mult_t.entries:
        dual_crows[k].append(((i, j), c))
    chars = []
    central = []
    for x in H.claims.grouplikes:
        for beta in H.claims.characters:
            v = smash(x, beta)
            if is_grouplike(v, unit, dual_crows, M):
                chars.append(v)
                central.append(smash(beta, x))

    DD = FinHopf(nD, M, mult_t, unit,
                 SparseTensor3.from_dict((nD, nD, nD), comult), counit, S,
                 ClaimSet(gls, chars, central), f"D({H.label})")

    rep = verify_hopf(DD)
    if not rep.ok:
        raise AssertionError(f"Drinfeld double failed verification: {rep.failures}")
    return DD
