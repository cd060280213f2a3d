"""Classification invariants: integrals, modular elements, Radford's S^4
identity, trace formulas, antipode order, semisimplicity, the coradical
filtration, certified group-like censuses, skew-primitives, type
fingerprints and the bosonization/pairing criteria.

All computations are exact.  Group-like enumeration is claim-verify-
certify: constructors supply candidates, and completeness is certified by
the split-character count of the dual algebra (sound over a splitting
field, where characters biject with one-dimensional Wedderburn blocks).
FieldTooSmall is raised instead of silently under-reporting when the
certificate cannot be met.

The integrals, the skew-primitives and the block count (the centre of
H*/J(H*)) are kernels of linear maps, each given by its sparse columns
f(e_b) to `linalg.intersect_kernels`; no condition rows are built here.
The coradical filtration is read from the Loewy series of J(H*), the
radical H_0 already comes from: dim H_k = n - dim J(H*)^{k+1}.

Three laws are checked on the Krylov generators X = `FinHopf.generators`
only, each by the same induction on words in X, which span the algebra:
  the group-like test Delta v = v (x) v, on the coordinates (a, b) with a
    in X(H*): {f in H* : v(fg) = v(f)v(g) for all g} is a subspace that
    contains eps (as eps(v) = 1) and is closed under f -> xf for x in X(H*);
  the commutator ideal of A = H/J(H), from the images G of X in A
    (`FinHopf.semisimple_generators`): A/I is generated by the pairwise
    commuting images of G, so the ideal I spanned by the [a, b], a, b in G,
    and closed under multiplication by G is the commutator ideal, because
    {a : aI in I, Ia in I} is a unital subalgebra containing G;
  the centre of A, as the common kernel of z -> gz - zg for g in G: the
    centraliser of z is a unital subalgebra.
So `character_count` and the block count of `coradical_filtration` are
those the whole basis gives; `linalg` and `hopf` hold the proofs in full.

The group-like census needs no closure table.  Let S be the distinct
verified claims and m = `H.dual_cached().character_count`.  S lies in G(H),
each claim being verified.  A group-like of H is a character of H*, and
distinct characters of H* are linearly independent functionals on its
largest commutative semisimple quotient, whose dimension is m; so
|G(H)| <= m.  Hence |S| = m gives S = G(H), and S is a group.  Its
structure is read from the left multiplication of a generating set X of
S, taken greedily in claim order (each claim not yet reached joins X, so
|X| <= log2 |S|).  Each product x s, x in X and s in S, lies in S, so a
few coordinates K on which the members of S differ pairwise identify it
exactly; only those coordinates are computed.  The left action of every
element follows by composing permutations along words in X, and G is
abelian iff the elements of X commute.
"""

from __future__ import annotations

from .cyclo import CycloNum, Record, render
from .errors import (BoundExceeded, ClaimIncomplete, ClaimNotGrouplike,
                     ClaimOvercomplete, ExtractionInconsistent, FieldTooSmall,
                     IntegralSpaceNotOneDim, NotGrouplike, NotNormalizable,
                     SectionFails)
from .hopf import (FinHopf, HopfMorphism, coinvariants, skew_primitive_map,
                   support_mask, verify_morphism)
from .linalg import (EchelonBasis, Subspace, algebra_radical, apply_columns,
                     center, commutative_quotient_dim, compose_columns,
                     functional_leg, identity_columns, intersect_kernels,
                     mult_vectors, quotient_by_radical, ratio,
                     sparse_add_into, sparse_dot, sparse_sub, zero_free)

# -- integrals and modular elements ---------------------------------------------


class IntegralData(Record):
    """Left integral Lambda of H, right integral lambda of H*; <lambda, Lambda> = 1.

    Both are sparse vectors.
    """

    __slots__ = ("left_integral", "right_integral_dual")


def _integral_maps(A: FinHopf, left: bool):
    """The maps x -> e_i x - eps(e_i) x (left) or x -> x e_i - eps(e_i) x,
    one per i in `A.generators`.

    That suffices: for a fixed x, {h : hx = eps(h)x} (likewise
    {h : xh = eps(h)x}) is a subalgebra of the verified Hopf algebra A, since
    it contains 1 (eps(1) = 1) and (ab)x = a(bx) = eps(b)ax = eps(ab)x; a
    subalgebra that contains the generators contains every word in them, and
    these words span A.  The common kernel is the same `Subspace` as for all
    n maps, because RREF is canonical.
    """
    n, rows = A.dim, A.mrows
    for i in A.generators:
        eps = A.counit.get(i)
        yield [sparse_sub(dict(rows[i][b] if left else rows[b][i]),
                          {} if eps is None else {b: eps}) for b in range(n)]


def integrals(H: FinHopf) -> IntegralData:
    """Left integral of H and right integral of H*, normalized to pair to 1;
    computed once per algebra."""
    return H.memo("integrals", lambda: _integrals(H))


def _integrals(H: FinHopf) -> IntegralData:
    n, M = H.dim, H.conductor
    space = intersect_kernels(_integral_maps(H, True), n, M)
    if space.dim != 1:
        raise IntegralSpaceNotOneDim(
            f"left integral space has dimension {space.dim}")
    Lam = space.basis[0]

    space2 = intersect_kernels(_integral_maps(H.dual_cached(), False), n, M)
    if space2.dim != 1:
        raise IntegralSpaceNotOneDim(
            f"right integral space of the dual has dimension {space2.dim}")
    lam = space2.basis[0]
    pairing = sparse_dot(lam, Lam, M)
    if pairing.is_zero():
        raise NotNormalizable("<lambda, Lambda> = 0")
    inv = pairing.inverse()
    return IntegralData(Lam, {k: inv * a for k, a in lam.items()})


class ModularData(Record):
    """The modular character alpha of H and group-like g, as sparse vectors."""

    __slots__ = ("alpha", "g")


def _proportionalities(vec_ref: dict, vecs) -> dict:
    """{j: c_j} (nonzero c_j only) with vecs[j] = c_j vec_ref, or raise
    ExtractionInconsistent."""
    if not vec_ref:
        raise ExtractionInconsistent("reference vector is zero")
    out = {}
    for j, vec in enumerate(vecs):
        c = ratio(vec_ref, vec)
        if c is None:
            raise ExtractionInconsistent("vector is not proportional")
        if not c.is_zero():
            out[j] = c
    return out


def modular_elements(H: FinHopf) -> ModularData:
    """alpha with Lambda.x = <alpha,x> Lambda; g with beta.lambda = <beta,g> lambda;
    computed once per algebra."""
    return H.memo("modular", lambda: _modular_elements(H))


def _modular_elements(H: FinHopf) -> ModularData:
    """alpha and g, read from the integrals; both are group-like without a check.

    `_proportionalities` finds Lambda e_j = alpha_j Lambda for every j, so
    Lambda a = alpha(a) Lambda for every a, by linearity.  Then
    alpha(ab) Lambda = Lambda (ab) = (Lambda a) b = alpha(a) alpha(b) Lambda,
    and Lambda != 0, so alpha is multiplicative, and alpha(1) = 1 since
    Lambda 1 = Lambda: alpha is an algebra map H -> k, a group-like of H*.
    In the same way beta lambda = beta(g) lambda for every beta in H* makes
    g an algebra map H* -> k, that is, a group-like of H.
    """
    n, M = H.dim, H.conductor
    integ = integrals(H)
    Lam, lam = integ.left_integral, integ.right_integral_dual
    one = CycloNum.one(M)
    alpha = _proportionalities(Lam, (H.mul(Lam, {j: one}) for j in range(n)))
    D = H.dual_cached()
    g = _proportionalities(lam, (D.mul({j: one}, lam) for j in range(n)))
    return ModularData(alpha, g)


def is_unimodular(H: FinHopf) -> bool:
    return modular_elements(H).alpha == H.counit


def radford_s4_check(H: FinHopf) -> bool:
    """S^4(h) = g (alpha -> h <- alpha^{-1}) g^{-1} on every basis element."""
    mod = modular_elements(H)
    alpha = mod.alpha
    # alpha^{-1} = alpha o S (convolution inverse of a character)
    alpha_inv = zero_free({j: sparse_dot(col, alpha, H.conductor)
                           for j, col in enumerate(H.antipode)})
    g = mod.g
    g_inv = H.antipode_of(g)  # S(g) g = eps(g) 1 = 1
    S2 = compose_columns(H.antipode, H.antipode)
    for i, lhs in enumerate(compose_columns(S2, S2)):
        # alpha -> e_i <- alpha^{-1} = (alpha^{-1} (x) id)Delta((id (x) alpha)Delta(e_i))
        mid = functional_leg(alpha_inv, H.comult_of(
            functional_leg(alpha, dict(H.crows[i]), 1)), 0)
        if lhs != H.mul(g, H.mul(mid, g_inv)):
            return False
    return True


def trace_formula_check(H: FinHopf, f):
    """Returns (Tr f, <lambda, S(L2) f(L1)>, <lambda, (S o f)(L2) L1>) for
    the linear map f given as sparse columns.

    (L1, S(L2)) are dual bases for the Frobenius form lambda, which pins
    the Sweedler legs: the two right-hand sides must both equal Tr f.
    """
    M = H.conductor
    integ = integrals(H)
    lam = integ.right_integral_dual
    dL = H.comult_of(integ.left_integral)
    zero, one = CycloNum.zero(M), CycloNum.one(M)
    t0 = sum((col.get(j, zero) for j, col in enumerate(f)), zero)
    t1 = t2 = zero
    # by hand, not `contract`: lambda reads only the product terms on supp(lambda)
    for (a, b), c in dL.items():
        acc = zero
        for k, d in H.mul(H.antipode[b], f[a]).items():
            if k in lam:
                acc = acc + lam[k] * d
        t1 = t1 + c * acc
        acc = zero
        for k, d in H.mul(H.antipode_of(f[b]), {a: one}).items():
            if k in lam:
                acc = acc + lam[k] * d
        t2 = t2 + c * acc
    return t0, t1, t2


def antipode_order(H: FinHopf) -> int:
    """Least k >= 1 with S^k = id, by exact powering of the sparse columns
    (k <= 4 dim^2)."""
    n = H.dim
    bound = 4 * n * n
    ident = identity_columns(n, H.conductor)
    P = ident
    for k in range(1, bound + 1):
        P = compose_columns(H.antipode, P)
        if P == ident:
            return k
    raise BoundExceeded(f"antipode order exceeds {bound}")


class SemisimplicityReport(Record):
    __slots__ = ("semisimple", "cosemisimple", "trace_s2")


def semisimplicity(H: FinHopf) -> SemisimplicityReport:
    """Exact Tr S^2 = sum_j S(S e_j)_j; nonzero iff semisimple iff
    cosemisimple (char 0); computed once per algebra."""
    return H.memo("semisimplicity", lambda: _semisimplicity(H))


def _semisimplicity(H: FinHopf) -> SemisimplicityReport:
    S, zero = H.antipode, CycloNum.zero(H.conductor)
    tr = sum((apply_columns(S, S[j]).get(j, zero) for j in range(H.dim)), zero)
    ss = not tr.is_zero()
    return SemisimplicityReport(ss, ss, tr)


# -- coradical filtration ---------------------------------------------------------


class CoradicalReport(Record):
    """Coradical filtration of the algebra H passed in, and the shape of H0.

    Every field describes H itself, not H*: `H0_dim` is dim H*/J(H*),
    `blocks` is the number of matrix blocks of H0, and `one_dim_blocks`
    counts its 1x1 blocks, i.e. |G(H)|.  For H = u_q* at p = 3, H0_dim is
    14 and one_dim_blocks is 1; G(u_q) = Z/p spans the coradical of u_q.
    """

    __slots__ = (
        "filtration_dims",      # tuple[int, ...]
        "H0_dim",
        "blocks",
        "one_dim_blocks",
        "candidate_multisets",  # tuple[tuple[int, ...], ...]
    )


def radical_power_dims(A: FinHopf) -> tuple[int, ...]:
    """(dim J, dim J^2, ..., 0) for J = J(A) = `A.radical`, ending at the
    first power that is 0.

    J^{k+1} = J^k J is spanned by the products a b, a in a basis of J^k and
    b in the echelon basis of J.  A pair is skipped when no nonempty cell
    e_i e_j has i in supp(a) and j in supp(b) (one bit-and of the union of
    `mmasks` over supp(a) with the support of b): a b is then 0.  J is
    nilpotent, so J^{k+1} is a proper subspace of J^k until J^k = 0 (were
    J^k J = J^k, then J^k = J^{k+m} = 0 for m large); a power that fails
    to shrink raises ExtractionInconsistent.
    """
    rows, masks = A.mrows, A.mmasks
    J = [(b, support_mask(b)) for b in A.radical.basis]
    power = A.radical.basis
    dims = [len(power)]
    while power:
        eb = EchelonBasis(A.dim, A.conductor)
        for a in power:
            amask = 0
            for i in a:
                amask |= masks[i]
            for b, bmask in J:
                if amask & bmask:
                    eb.insert(mult_vectors(rows, a, b))
        if len(eb) >= len(power):
            raise ExtractionInconsistent("a power of the radical failed to shrink")
        power = list(eb.rows.values())
        dims.append(len(power))
    return tuple(dims)


def coradical_filtration(H: FinHopf) -> CoradicalReport:
    """Filtration dims of H plus the block shape of H0(H) = (H*/J(H*))*;
    computed once per algebra.

    The block counts are those of H0 of the algebra passed in (see
    `CoradicalReport`), not of its dual.  The 1x1 blocks are the characters
    of H*, the number `grouplike_census` certifies against.
    """
    return H.memo("coradical", lambda: _coradical_filtration(H))


def _coradical_filtration(H: FinHopf) -> CoradicalReport:
    """The filtration read from the powers of J = J(H*) alone.

    Pair H* with H by the coordinates, V^perp the annihilator.  The product
    of H* is the transpose of Delta, (fg)(h) = sum f(h_1) g(h_2), so for
    subspaces V, W of H, (V^perp W^perp)^perp = {h : Delta h in V (x) H +
    H (x) W} = V ^ W, the wedge of the coradical filtration; here H is
    finite-dimensional, so X^perp^perp = X for every subspace X.  The
    coradical is H_0 = J^perp (the simple subcoalgebras of H are the duals
    of the simple quotients of H*), and H_k = H_{k-1} ^ H_0 (Montgomery,
    *Hopf Algebras and Their Actions on Rings*, 5.1-5.2).  By induction
    H_{k-1}^perp = J^k, so H_k = (J^k J)^perp = (J^{k+1})^perp: dim H_k =
    n - dim J^{k+1}, and the filtration reaches H at the first k with
    J^{k+1} = 0 (`radical_power_dims`).  No H_k is built.
    """
    n, M = H.dim, H.conductor
    D = H.dual_cached()
    dims = tuple(n - d for d in radical_power_dims(D))
    H0_dim = dims[0]

    blocks = center(D.semisimple_quotient, M, D.semisimple_generators).dim
    ones = D.character_count

    verified = H.verified_grouplikes
    if H.claims.grouplikes and ones > len(verified):
        raise FieldTooSmall(
            f"{ones} one-dimensional blocks but only {len(verified)} verified "
            "group-likes: nonsplit field factor or missing claims")

    cands = tuple(_square_partitions(H0_dim - ones, blocks - ones))
    return CoradicalReport(dims, H0_dim, blocks, ones, cands)


def _square_partitions(total: int, parts: int, lo: int = 2):
    """Nondecreasing tuples (n_1..n_parts), n_i >= lo, sum of squares = total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    m = lo
    while parts * m * m <= total:
        for rest in _square_partitions(total - m * m, parts - 1, m):
            yield (m,) + rest
        m += 1


# -- group-like census -------------------------------------------------------------


class CensusResult(Record):
    __slots__ = (
        "elements",           # sparse vectors, in claim order
        "abelian",            # bool
        "invariant_factors",  # tuple[int, ...] | None
        "orders",             # tuple[int, ...]
    )

    @property
    def size(self) -> int:
        return len(self.elements)

    def type_string(self) -> str:
        if self.invariant_factors is None:
            return f"na{self.size}"
        if not self.invariant_factors:
            return "1"
        return ",".join(str(d) for d in self.invariant_factors)


def grouplike_census(H: FinHopf) -> CensusResult:
    """Verify the claimed G(H), certify completeness, return the group type;
    computed once per algebra (it reads H.claims, fixed before any census)."""
    return H.memo("census", lambda: _grouplike_census(H))


def _grouplike_census(H: FinHopf) -> CensusResult:
    """The census of G(H): certified by its count, structured by an action.

    Certificate.  Let S be the distinct verified claims and m the character
    count of H*.  S lies in G(H), and |G(H)| <= m (see the module
    docstring), so |S| = m gives S = G(H): S is a group, and closure and
    inverses need no check.  |S| < m and |S| > m raise ClaimIncomplete and
    ClaimOvercomplete.  Claims that are not closed under multiplication
    fall in the first branch: they are a proper subset of the group G(H),
    so fewer than m.

    Structure.  `_left_regular_action` gives the left multiplication of
    every element as a permutation of S, from the products x s with x in a
    generating set only.  The abelian flag, the element orders and the
    invariant factors are then integer arithmetic: G is abelian iff its
    generators commute.
    """
    if len(H.verified_grouplikes) != len(H.claims.grouplikes):
        raise ClaimNotGrouplike("a claimed group-like fails verification")
    # the distinct claims in claim order, keyed by their nonzero items
    distinct: dict = {}
    for g in H.verified_grouplikes:
        distinct.setdefault(
            frozenset((k, c) for k, c in g.items() if not c.is_zero()), g)
    keys = list(distinct)
    if not keys:
        raise ClaimIncomplete("no group-like claims present")
    unit = frozenset(H.unit.items())
    if unit not in distinct:
        raise ClaimIncomplete("unit is not among the claimed group-likes")

    m = H.dual_cached().character_count
    if len(keys) < m:
        raise ClaimIncomplete(
            f"{len(keys)} verified group-likes but certificate is {m}: "
            "missing group-likes, or a nonsplit field factor")
    if len(keys) > m:
        raise ClaimOvercomplete(
            f"{len(keys)} verified group-likes exceed certificate {m}")

    S = tuple(distinct.values())
    e = keys.index(unit)
    gens, lam = _left_regular_action(H, S, e)
    abelian = all(lam[a][b] == lam[b][a] for a in gens for b in gens)
    orders = []
    for a in range(len(S)):
        k, acc = 1, a
        while acc != e:
            acc = lam[a][acc]
            k += 1
        orders.append(k)
    invf = _abelian_invariants(tuple(orders)) if abelian else None
    return CensusResult(S, abelian, invf, tuple(orders))


def _separating_coordinates(S, zero) -> list[int]:
    """Coordinates K, taken greedily in index order, on which the pairwise
    distinct sparse vectors S differ pairwise."""
    K, cls, count = [], [0] * len(S), 1
    for k in sorted(set().union(*S)):
        if count == len(S):
            break
        ids: dict = {}
        new = [ids.setdefault((c, s.get(k, zero)), len(ids))
               for c, s in zip(cls, S)]
        if len(ids) > count:
            K.append(k)
            cls, count = new, len(ids)
    return K


def _left_columns(H: FinHopf, x: dict, K) -> list[dict]:
    """Left multiplication by x on the coordinates K, as sparse columns:
    cols[j] = {k: (x e_j)_k for k in K}."""
    Kset, mrows = set(K), H.mrows
    cols: list[dict] = [{} for _ in range(H.dim)]
    # by hand, not `mult_vectors`: only the coordinates in K are formed
    for i, xi in x.items():
        for col, cell in zip(cols, mrows[i]):
            for k, c in cell:
                if k in Kset:
                    sparse_add_into(col, k, xi * c)
    return cols


def _left_regular_action(H: FinHopf, S: tuple, e: int):
    """(gens, lam) for the group S = G(H) with unit S[e]: gens are indices of
    a generating set, and lam[a][b] is the index of S[a] S[b].

    gens is chosen greedily in claim order, taking each element the set does
    not yet reach, so |gens| <= log2 |S|.  Only the products x s with x in
    gens are computed, each on the separating coordinates K alone, which
    identify it exactly because x s lies in S.  Every other lam[a] follows
    from a word a = x b found on the way: lam[a] = lam[x] o lam[b].
    """
    zero = CycloNum.zero(H.conductor)
    K = _separating_coordinates(S, zero)
    index = {tuple(s.get(k, zero) for k in K): a for a, s in enumerate(S)}
    gens, cols, acts = [], [], []       # acts[g][b] = index of S[gens[g]] S[b]
    reached, word = [e], {e: None}      # word[a] = (g, b): S[a] = S[gens[g]] S[b]
    for x in range(len(S)):
        if x in word:
            continue
        gens.append(x)
        cols.append(_left_columns(H, S[x], K))
        acts.append({})
        pending = [(len(gens) - 1, b) for b in reached]
        while pending:
            g, b = pending.pop()
            prod = apply_columns(cols[g], S[b])
            a = index.get(tuple(prod.get(k, zero) for k in K))
            if a is None:
                raise ExtractionInconsistent(
                    "a product of group-likes is not among them")
            acts[g][b] = a
            if a not in word:
                word[a] = (g, b)
                reached.append(a)
                pending.extend((h, a) for h in range(len(gens)))
    lam: list = [None] * len(S)
    lam[e] = list(range(len(S)))
    for a in reached[1:]:
        g, b = word[a]
        act = acts[g]
        lam[a] = [act[t] for t in lam[b]]
    return gens, lam


def characters_census(H: FinHopf) -> CensusResult:
    """G(H*) census: the group-like census of the dual (the dual's memo)."""
    return grouplike_census(H.dual_cached())


def _abelian_invariants(orders: tuple[int, ...]) -> tuple[int, ...]:
    """Invariant factors (descending) of an abelian group from element orders.

    If the p-part has type lambda, |{x : x^(p^j) = 1}| = p^(s_j) with s_j =
    sum_i min(lambda_i, j), so s_j - s_(j-1) parts of lambda are at least
    j.  Each j therefore gives one more factor p to that many leading
    invariant factors, and the i-th factor is the product of the p^(lambda_i).
    """
    factors: list[int] = []
    rest, p = len(orders), 2
    while rest > 1:
        q, below = p, 1  # below = |{x : x^(q/p) = 1}|
        while rest % p == 0:
            rest //= p
            at = sum(1 for o in orders if q % o == 0)
            i = 0
            while below < at:  # at / below = p^(s_j - s_(j-1))
                if i == len(factors):
                    factors.append(1)
                factors[i] *= p
                below *= p
                i += 1
            q *= p
        p += 1
    return tuple(factors)


# -- skew primitives ----------------------------------------------------------------


def skew_primitives(H: FinHopf, a: dict, b: dict) -> tuple[Subspace, bool]:
    """P_{a,b} = {c : Delta c = a (x) c + c (x) b} for sparse group-likes a, b,
    plus a triviality flag.

    Trivial means P_{a,b} is contained in the span of the (verified
    claimed) group-likes.
    """
    n, M = H.dim, H.conductor
    if not H.is_grouplike(a) or not H.is_grouplike(b):
        raise NotGrouplike("skew-primitive anchors must be group-like")
    space = intersect_kernels([skew_primitive_map(H, a, b)], n, M)
    gl_span = Subspace.from_vectors(n, M, H.verified_grouplikes)
    trivial = gl_span.contains_subspace(space)
    return space, trivial


# -- fingerprint ---------------------------------------------------------------------


class Fingerprint(Record):
    __slots__ = ("dim", "g_order", "g_dual_order", "g_type", "g_dual_type",
                 "antipode_order", "trace_s2", "coradical_dims", "pointed",
                 "dual_pointed", "unimodular")

    def type_pair(self) -> str:
        return f"({self.g_type};{self.g_dual_type})"

    def line(self) -> str:
        return (f"dim={self.dim} type={self.type_pair()} "
                f"ordS={self.antipode_order} TrS2={self.trace_s2} "
                f"corad=[{','.join(str(d) for d in self.coradical_dims)}] "
                f"pointed={'yes' if self.pointed else 'no'} "
                f"dualpointed={'yes' if self.dual_pointed else 'no'} "
                f"unimodular={'yes' if self.unimodular else 'no'}")


def fingerprint(H: FinHopf) -> Fingerprint:
    """All classification invariants in one record (re-derivable from H)."""
    n = H.dim
    census = grouplike_census(H)
    census_d = characters_census(H)
    corad = coradical_filtration(H)
    ln = antipode_order(H)
    ss = semisimplicity(H)
    # dual coradical dim: (Rad H)^perp inside H*
    dual_h0_dim = n - H.radical.dim
    return Fingerprint(
        dim=n,
        g_order=census.size,
        g_dual_order=census_d.size,
        g_type=census.type_string(),
        g_dual_type=census_d.type_string(),
        antipode_order=ln,
        trace_s2=render(ss.trace_s2),
        coradical_dims=corad.filtration_dims,
        pointed=(corad.H0_dim == census.size),
        dual_pointed=(dual_h0_dim == census_d.size),
        unimodular=is_unimodular(H),
    )


# -- pairing table and bosonization criteria ------------------------------------------


class PairingReport(Record):
    __slots__ = (
        "table",                 # rows: beta in G(H*); cols: x in G(H)
        "has_nontrivial_entry",  # bosonization criterion (|G|=p case)
        "all_entries_one",       # the order-4p consistency flag
    )


def pairing_table(H: FinHopf) -> PairingReport:
    """<beta, x> over G(H*) x G(H); both censuses must certify."""
    census = grouplike_census(H)
    census_d = characters_census(H)
    one = CycloNum.one(H.conductor)
    rows = []
    nontrivial = False
    for beta in census_d.elements:
        row = []
        for x in census.elements:
            acc = sparse_dot(beta, x, H.conductor)
            row.append(acc)
            if acc != one:
                nontrivial = True
        rows.append(tuple(row))
    return PairingReport(tuple(rows), nontrivial, not nontrivial)


def commutative_quotient_check(mult, M: int) -> bool:
    """True iff A/Rad A is commutative (then all simple modules are 1-dim):
    exactly when its commutator ideal is zero, which
    `linalg.commutative_quotient_dim` computes with the basis as the
    generating set."""
    q = quotient_by_radical(mult, algebra_radical(mult, M))
    return commutative_quotient_dim(q, M) == q.dims[0]


class SplittingReport(Record):
    __slots__ = ("section_ok", "coinvariant_dim", "dims_multiply")

    @property
    def success(self) -> bool:
        return self.section_ok and self.dims_multiply


def projection_splitting_check(pi: HopfMorphism, gamma: HopfMorphism) -> SplittingReport:
    """pi o gamma = id_B and dim H = dim H^{co pi} * dim B: H is a bosonization."""
    H, B = pi.source, pi.target
    if not verify_morphism(pi).ok:
        raise SectionFails("projection is not a Hopf algebra map")
    if not verify_morphism(gamma).ok:
        raise SectionFails("section is not a Hopf algebra map")
    ident = identity_columns(B.dim, B.conductor)
    if compose_columns(pi.cols, gamma.cols) != ident:
        raise SectionFails("pi o gamma is not the identity")
    ci = coinvariants(pi)
    return SplittingReport(True, ci.dim, ci.dim * B.dim == H.dim)
