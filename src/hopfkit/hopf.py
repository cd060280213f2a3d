"""Finite-dimensional Hopf algebras as sparse structure constants.

A FinHopf stores multiplication c_{ij}^k, comultiplication d_i^{jk}, unit,
counit and the antipode explicitly; nothing is derived implicitly.  Every
vector (the unit, the counit, a claim) is a sparse dict {index: nonzero
coefficient}, and every linear map (the antipode, a morphism, a quotient
projection) is held as sparse columns, column j being the image of e_j.
verify_hopf decides every axiom exactly and reports failures per axiom with
the first failing index.  It runs only where an algebra enters the program:
a presentation, a group algebra, the Drinfeld double and a .hopf file.
`dual`, `op_cop`, `tensor` and `quotient_by_hopf_ideal` derive algebras
from verified ones and carry a certificate in their docstrings instead.

Associativity and the algebra-map laws of Delta and eps are checked with
their left factor in a set L of basis indices: L = X = `FinHopf.generators`,
joined by supp(u) when the unit law fails, u being the claimed unit.  The
words x_1 (x_2 ( ... (x_k u))) in X span H.  Each law then holds on all of
H by induction on such words, given the law listed before it:
  associativity, given only that X exists: W = {a : (ab)c = a(bc) for all
    b, c} is a subspace that contains u (it contains 1 by the unit law, or
    supp(u) is in L), and for a in W and x in X (in W, being in L),
    ((xa)b)c = (x(ab))c = x((ab)c) = x(a(bc)) = (xa)(bc), so W = H;
  Delta(ab) = Delta(a)Delta(b), given associativity:
    V = {a : Delta(ab) = Delta(a)Delta(b) for all b} contains u (by the
    unit law and Delta(1) = 1 (x) 1, or as supp(u) is in L), and
    Delta((xa)b) = Delta(x(ab)) = Delta(x)Delta(ab)
    = Delta(x)Delta(a)Delta(b) = Delta(xa)Delta(b) (H (x) H is associative
    because H is), so V = H;
  eps(ab) = eps(a)eps(b), given associativity: the same induction with
    eps for Delta.
Fallback rule: a law whose prerequisites fail is swept over all basis pairs
or triples, and a law that fails on L is swept again in full, so every
report entry, first failing index included, is the one the full sweeps
give.

The law f(ab) = f(a)f(b), f(1) = 1 has one sweep, `algebra_map_failure`,
for Delta and eps here, for `verify_morphism` and for crossed-product
actions; the group-like test has one, `is_grouplike`.  After eps(v) = 1,
`FinHopf.is_grouplike` compares Delta(v)_(a, b) = v_a v_b only for a in
X(H*) = `H.dual_cached().generators`.  Delta(v)_(a, b) is v(e^a e^b), the
product taken in H*, and F = {f in H* : v(fg) = v(f)v(g) for all g} is a
subspace that contains eps = 1_{H*} (as eps(v) = 1) and is closed under
f -> xf for x in X(H*): v((xf)g) = v(x(fg)) = v(x)v(f)v(g) = v(xf)v(g),
because H* is associative.  So F = H*.  The Drinfeld double's character
claims are tested before D(H) is verified, so that prerequisite does not
hold there, and they are compared on every row (left=None).  Products in
H and H (x) H are `linalg.mult_vectors` and `linalg.tensor_mul` on the row
view.  They, `linalg.apply_tensor_columns` and `associativity_failure` form
a coefficient product only for a nonzero structure cell.
The skew-primitives P_{a,b} and the coinvariants H^{co pi} are kernels of
maps built as sparse columns (`skew_primitive_map`, and (id (x) pi)Delta
minus h -> h (x) 1_B), taken by `linalg.intersect_kernels`.
"""

from __future__ import annotations

from functools import cached_property

from .cyclo import CycloNum, _frozen
from .errors import (AntipodeNotInvertible, ConductorMismatch, NotAHopfIdeal,
                     NotSurjective)
from .linalg import (EchelonBasis, SparseTensor3, Subspace, algebra_radical,
                     apply_columns, apply_tensor_columns,
                     commutative_quotient_dim, coproduct, identity_columns,
                     ideal_closure, image, intersect_kernels, mat_inverse,
                     mult_vectors, outer, quotient_by_radical, quotient_mult,
                     sparse_add_into, sparse_dot, sparse_sub, tensor_mul,
                     transpose_columns, zero_free, zero_free_columns)


class ClaimSet:
    """Unverified group-like and character claims; verified before use.

    Every vector is sparse, {index: nonzero coefficient}, the form that
    `FinHopf.mul` and `FinHopf.comult_of` take.  `central_grouplikes` are
    group-likes also claimed central (the Drinfeld double supplies them).
    Assigning to a field after construction raises AttributeError.
    """

    __slots__ = ("grouplikes", "characters", "central_grouplikes")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, grouplikes=(), characters=(), central_grouplikes=()):
        for name, vectors in zip(self.__slots__,
                                 (grouplikes, characters, central_grouplikes)):
            object.__setattr__(self, name, tuple(vectors))


class FinHopf:
    """A Hopf algebra over Q(zeta_M) given by structure constants.

    Every field is set by __init__; assigning to or deleting one afterwards
    raises AttributeError.  Derived data (radical, dual, generators,
    censuses, ...) is computed on first use and kept by `memo`, the only
    writer of the private cache; the row views `mrows` and `crows` are kept
    by the structure tensors themselves, so algebras and quotients that
    share a tensor share one build.

    `unit` and `counit` are sparse vectors, and `antipode` is a tuple of
    sparse columns, antipode[j] = S(e_j); zero coefficients are dropped
    here, so equal vectors and maps compare equal.
    `claims` is a sparse `ClaimSet`.  `presentation` is the PresentationSpec
    the algebra was built from, and `monomials` its normal monomials in basis
    order; both are None for an algebra not built from a presentation.
    `fixtures` is a zero-argument function returning the paper-asserted
    isomorphism fixtures, which `iso_fixtures` calls on first read.
    """

    __setattr__ = __delattr__ = _frozen

    def __init__(self, dim: int, conductor: int, mult: SparseTensor3,
                 unit: dict, comult: SparseTensor3, counit: dict, antipode,
                 claims: ClaimSet | None = None, label: str = "",
                 presentation=None, fixtures=None):
        vars(self).update(
            dim=dim, conductor=conductor, mult=mult, unit=zero_free(unit),
            comult=comult, counit=zero_free(counit),
            antipode=zero_free_columns(antipode),
            claims=claims or ClaimSet(), label=label,
            presentation=presentation,
            monomials=presentation and presentation.monomials(),
            _fixtures=fixtures, _cache={})

    # -- cached views ----------------------------------------------------------

    def memo(self, key, make):
        """make(), computed once per algebra and kept under `key`."""
        r = self._cache.get(key)
        if r is None:
            r = make()
            self._cache[key] = r
        return r

    @property
    def mrows(self):
        return self.mult.rows_ij()

    @property
    def crows(self):
        return self.comult.rows_i()

    @property
    def mmasks(self) -> tuple[int, ...]:
        """`nonempty_masks` of `mrows`, shared by `generators` and the
        associativity check."""
        return self.memo("mmasks", lambda: nonempty_masks(self.mrows))

    @property
    def antipode_inv(self) -> list[dict]:
        """S^{-1} as sparse columns."""
        def make():
            r = mat_inverse(self.antipode, self.conductor)
            if r is None:
                raise AntipodeNotInvertible(self.label or "antipode matrix is singular")
            return r
        return self.memo("sinv", make)

    @property
    def radical(self) -> Subspace:
        """Jacobson radical of the algebra."""
        return self.memo("radical", lambda: algebra_radical(
            self.mult, self.conductor))

    @property
    def semisimple_quotient(self) -> SparseTensor3:
        """Multiplication of H/J(H) (H itself when semisimple)."""
        return self.memo("ssq", lambda: quotient_by_radical(self.mult, self.radical))

    @property
    def semisimple_generators(self) -> tuple[dict, ...]:
        """The images of X = `generators` in H/J(H), as sparse vectors on
        the complement basis of `semisimple_quotient` (e_x itself when J(H)
        is zero).  They generate H/J(H) as a unital algebra: the quotient
        map is an algebra map, and the words in X span H."""
        def make():
            proj = self.radical.projection_columns()
            return tuple(proj[x] for x in self.generators)
        return self.memo("ssq_gens", make)

    @property
    def character_count(self) -> int:
        """Number of algebra characters H -> k (split case): dim of the
        largest commutative quotient of H/J(H)."""
        return self.memo("chars", lambda: commutative_quotient_dim(
            self.semisimple_quotient, self.conductor, self.semisimple_generators))

    def dual_cached(self) -> "FinHopf":
        """H*, built once; its own dual_cached() is H again (H** = H)."""
        def make():
            D = dual(self)
            D.memo("dual", lambda: self)
            return D
        return self.memo("dual", make)

    @property
    def generators(self) -> tuple[int, ...] | None:
        """Basis indices X with span{x_1 (x_2 ( ... (x_k u))) : x_i in X} = H,
        u = `unit`.

        Found by a greedy Krylov closure: start from span{u}, take each basis
        element not yet in the span (busiest `mrows` row first) into X, and
        close the span under left multiplication by X, until it is all of H.
        A product e_x v is skipped when no nonempty cell e_x e_m has m in
        supp(v) (one bit-and of `mmasks[x]` with the support of v): it is
        then 0 and would not grow the span, so X is the same.
        None when the span stays short of H, which the unit law excludes
        (x 1 = x puts every x in X into the span); a claimed unit that fails
        the unit law may still give an X.
        """
        return self.memo("generators", lambda: _krylov_generators(
            self.mrows, self.mmasks, self.unit, self.conductor))

    @property
    def iso_fixtures(self) -> tuple:
        """((target key, sparse columns), ...): the paper-asserted
        isomorphisms from this algebra, computed by the `fixtures` function
        on first read."""
        return self.memo("iso_fixtures", lambda: tuple(
            (key, tuple(cols)) for key, cols in self._fixtures())
            if self._fixtures else ())

    @property
    def verified_grouplikes(self) -> tuple:
        """The claimed group-likes that pass `is_grouplike`, in claim order."""
        return self.memo("verified_gl", lambda: tuple(
            g for g in self.claims.grouplikes if self.is_grouplike(g)))

    # -- element operations ----------------------------------------------------

    def mul(self, u: dict, v: dict) -> dict:
        return mult_vectors(self.mrows, u, v)

    def comult_of(self, v: dict) -> dict:
        return coproduct(self.crows, v)

    def counit_of(self, v: dict) -> CycloNum:
        return sparse_dot(v, self.counit, self.conductor)

    def antipode_of(self, v: dict) -> dict:
        return apply_columns(self.antipode, v)

    def tensor_mul(self, X: dict, Y: dict) -> dict:
        """Product of sparse elements of H (x) H."""
        return tensor_mul(self.mrows, X, Y)

    def is_grouplike(self, v: dict) -> bool:
        """Is the sparse vector v group-like: eps(v) = 1, Delta v = v (x) v?

        Delta v = v (x) v is checked on the rows whose first index lies in
        the generators of H* (module docstring)."""
        return is_grouplike(v, self.counit, self.crows, self.conductor,
                            self.dual_cached().generators)

    def is_central(self, v: dict) -> bool:
        """Does v commute with every element of H?

        It is enough that v commutes with every x in X = `generators`: the
        centraliser {a : av = va} is a subalgebra of H that contains 1, since
        (ab)v = a(vb) = (av)b = v(ab) for a, b in it, so it contains every
        word x_1 (x_2 ( ... (x_k 1))) in X, and these words span H.  (The
        unit law and associativity are assumed, as for a verified algebra.)
        """
        one = CycloNum.one(self.conductor)
        return all(self.mul(v, {x: one}) == self.mul({x: one}, v)
                   for x in self.generators)

    def delta2(self, i: int):
        """Delta^2(e_i) as a tuple of ((a,b,c), coeff)."""
        def make():
            acc: dict = {}
            for (j, k), c in self.crows[i]:
                for (a, b), d in self.crows[j]:
                    sparse_add_into(acc, (a, b, k), c * d)
            return tuple(acc.items())
        return self.memo(("d2", i), make)

    def __repr__(self):
        return f"FinHopf({self.label or 'unnamed'}, dim={self.dim}, M={self.conductor})"


def is_grouplike(v: dict, counit: dict, crows, M: int, left=None) -> bool:
    """Is the sparse vector v group-like, eps(v) = 1 and Delta v = v (x) v,
    for the coalgebra with this counit and comult rows?

    After eps(v) = 1, Delta(v)_(a, b) = v_a v_b is compared only for a in
    `left` (default: every index); generators of the dual algebra suffice
    there (module docstring).
    """
    if not sparse_dot(v, counit, M).is_one():
        return False
    keep = None if left is None else set(left)
    lhs: dict = {}
    for i, c in v.items():
        for (a, b), d in crows[i]:
            if keep is None or a in keep:
                sparse_add_into(lhs, (a, b), c * d)
    return lhs == {(a, b): ca * cb for a, ca in v.items()
                   if keep is None or a in keep for b, cb in v.items()}


def _support_mask(v: dict) -> int:
    return sum(1 << m for m in v)


def _krylov_generators(mrows, masks, unit: dict, M: int) -> tuple[int, ...] | None:
    """See `FinHopf.generators`."""
    n = len(mrows)
    one = CycloNum.one(M)
    span = EchelonBasis(n, M)
    span.insert(unit)
    found = [(unit, _support_mask(unit))]
    X: list[int] = []
    busiest = sorted(range(n), key=lambda i: -masks[i].bit_count())
    for i in busiest:
        if len(span) == n:
            break
        if span.contains({i: one}):
            continue
        X.append(i)
        work = [(i, v, vmask) for v, vmask in found]
        while work:
            x, v, vmask = work.pop()
            if not masks[x] & vmask:
                continue  # e_x v = 0
            w = mult_vectors(mrows, {x: one}, v)
            if span.insert(w):
                wmask = _support_mask(w)
                found.append((w, wmask))
                work.extend((y, w, wmask) for y in X)
    return tuple(sorted(X)) if len(span) == n else None


# -- verification ---------------------------------------------------------------


class CheckResult:
    __slots__ = ("name", "ok", "first_failure")

    def __init__(self, name, ok, first_failure=None):
        self.name = name
        self.ok = ok
        self.first_failure = first_failure

    def __repr__(self):
        return f"{self.name}: {'pass' if self.ok else f'FAIL at {self.first_failure}'}"


class VerificationReport:
    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.ok]

    def lines(self):
        return [repr(c) for c in self.checks]

    def __repr__(self):
        return "; ".join(self.lines())


def nonempty_masks(mrows) -> tuple[int, ...]:
    """masks[i] has bit j set when the cell e_i e_j of `mrows` is nonzero."""
    return tuple(sum(1 << j for j, cell in enumerate(row) if cell)
                 for row in mrows)


def associativity_failure(mrows, left=None,
                          masks=None) -> tuple[int, int, int] | None:
    """First (i, j, k), in lexicographic order, with (e_i e_j) e_k != e_i (e_j e_k);
    i runs over `left` (default: every index); `masks` is
    `nonempty_masks(mrows)`, computed here when not given.

    For each (i, j), k runs in increasing order over the set bits of
    nonempty[j] | OR_{m in supp(e_i e_j)} nonempty[m], nonempty[m] having
    bit k set when the cell e_m e_k is nonzero.  Any other k is skipped
    exactly: e_j e_k is then 0, so e_i (e_j e_k) = 0, and e_m e_k = 0 for
    every m in supp(e_i e_j), so (e_i e_j) e_k = 0 as well; lhs = rhs = 0
    there, and the first failing (i, j, k) is the one the sweep over every k
    gives.
    """
    n = len(mrows)
    nonempty = nonempty_masks(mrows) if masks is None else masks
    for i in range(n) if left is None else left:
        ri = mrows[i]
        for j in range(n):
            v = ri[j]
            rj = mrows[j]
            ks = nonempty[j]
            for m, _ in v:
                ks |= nonempty[m]
            while ks:
                low = ks & -ks
                ks ^= low
                k = low.bit_length() - 1
                lhs: dict = {}
                for m, c in v:
                    for l, d in mrows[m][k]:
                        sparse_add_into(lhs, l, c * d)
                rhs: dict = {}
                for m, c in rj[k]:
                    for l, d in ri[m]:
                        sparse_add_into(rhs, l, c * d)
                if lhs != rhs:
                    return (i, j, k)
    return None


def algebra_map_failure(mrows, cols, mul, unit, unit_image, left=None):
    """Where the linear map f with sparse columns `cols` (f(e_i) = cols[i])
    fails to be an algebra map from the algebra with mult rows `mrows` and
    unit `unit`: ("unit",) when f(unit) != unit_image, else the first (i, j)
    with f(e_i e_j) != mul(f(e_i), f(e_j)), i running over `left` (default:
    every index); None when there is none."""
    if apply_columns(cols, unit) != unit_image:
        return ("unit",)
    n = len(mrows)
    for i in range(n) if left is None else left:
        for j in range(n):
            if apply_columns(cols, dict(mrows[i][j])) != mul(cols[i], cols[j]):
                return (i, j)
    return None


def _certified(sweep, L):
    """sweep(L) certifies the law when L holds generators of H (and supp(u)
    when the unit law fails) and its prerequisites hold; a failure there, or
    no L, is settled by the full sweep(None), so the reported index is always
    the lexicographically first."""
    if L is not None and sweep(L) is None:
        return None
    return sweep(None)


def verify_hopf(H: FinHopf) -> VerificationReport:
    """Exact decision of every Hopf axiom; failures are report entries.

    The unit law is checked first (the report keeps associativity first).
    Where X = `H.generators` exists, three laws are checked with their left
    factor in L = X, joined by supp(u) for the claimed unit u when the unit
    law fails:
      associativity on L x basis x basis, given only that X exists;
      Delta(ab) = Delta(a)Delta(b) on L x basis, given associativity;
      eps(ab) = eps(a)eps(b) on L x basis, given associativity.
    Each suffices by induction on words in X: the set of a for which the
    law holds for all other arguments is a subspace, contains u and is
    closed under a -> xa, because (xa)b = x(ab) (module docstring).
    Delta(u) = u (x) u and eps(u) = 1 are checked first and reported at
    ("unit",).  A law whose prerequisites fail is swept over all basis
    pairs or triples, and so is a law that fails on L, so each entry
    (name, verdict, first failing index) is the one the full sweeps give.
    The other laws are linear in one argument and are checked on every
    basis element.
    """
    n, M = H.dim, H.conductor
    crows, su, counit = H.crows, H.unit, H.counit
    one = CycloNum.one(M)

    # unit laws
    unit_fail = None
    for j in range(n):
        ej = {j: one}
        if H.mul(su, ej) != ej or H.mul(ej, su) != ej:
            unit_fail = (j,)
            break
    # L, the left factors of the checks on generators (verify_hopf docstring)
    L = H.generators
    if L is not None and unit_fail is not None:
        L = tuple(sorted({*L, *su}))

    fail = _certified(
        lambda left: associativity_failure(H.mrows, left, H.mmasks), L)
    if fail is not None:
        L = None
    checks = [CheckResult("associativity", fail is None, fail),
              CheckResult("unit", unit_fail is None, unit_fail)]

    # coassociativity
    fail = None
    for i in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for (j, k), c in crows[i]:
            for (a, b), d in crows[j]:
                sparse_add_into(lhs, (a, b, k), c * d)
            for (a, b), d in crows[k]:
                sparse_add_into(rhs, (j, a, b), c * d)
        if lhs != rhs:
            fail = (i,)
            break
    checks.append(CheckResult("coassociativity", fail is None, fail))

    # counit laws
    fail = None
    for i in range(n):
        left: dict = {}
        right: dict = {}
        for (j, k), c in crows[i]:
            if j in counit:
                sparse_add_into(left, k, c * counit[j])
            if k in counit:
                sparse_add_into(right, j, c * counit[k])
        ei = {i: one}
        if left != ei or right != ei:
            fail = (i,)
            break
    checks.append(CheckResult("counit", fail is None, fail))

    # Delta : H -> H (x) H and eps : H -> k are algebra maps (so Delta(1) =
    # 1 (x) 1 and eps(1) = 1), k being the algebra k e_0 with e_0 e_0 = e_0
    k_rows = [[((0, one),)]]
    for name, cols, mul, unit_image in (
            ("comult_algebra_map", [dict(row) for row in crows],
             H.tensor_mul, outer(su, su)),
            ("counit_algebra_map", [{0: counit[i]} if i in counit else {}
                                    for i in range(n)],
             lambda x, y: mult_vectors(k_rows, x, y), {0: one})):
        fail = _certified(lambda left: algebra_map_failure(
            H.mrows, cols, mul, su, unit_image, left), L)
        checks.append(CheckResult(name, fail is None, fail))

    # antipode axioms: m(S (x) id)Delta = unit.counit = m(id (x) S)Delta
    fail_l = None
    fail_r = None
    S = H.antipode
    for i in range(n):
        left: dict = {}
        right: dict = {}
        for (j, k), c in crows[i]:
            for l, d in H.mul(S[j], {k: one}).items():
                sparse_add_into(left, l, c * d)
            for l, d in H.mul({j: one}, S[k]).items():
                sparse_add_into(right, l, c * d)
        target = {a: counit[i] * cu for a, cu in su.items()} if i in counit else {}
        if fail_l is None and left != target:
            fail_l = (i,)
        if fail_r is None and right != target:
            fail_r = (i,)
        if fail_l is not None and fail_r is not None:
            break
    checks.append(CheckResult("antipode_left", fail_l is None, fail_l))
    checks.append(CheckResult("antipode_right", fail_r is None, fail_r))

    return VerificationReport(checks)


# -- categorical constructions ---------------------------------------------------


def dual(H: FinHopf) -> FinHopf:
    """The dual Hopf algebra on the dual basis (structure constants transposed).

    Certificate: transposition maps every axiom that verify_hopf checks on
    H* to one it checks on H (H* side <-> H side):
    associativity <-> coassociativity, unit <-> counit, Delta multiplicative
    <-> Delta multiplicative, Delta(1) = 1 (x) 1 <-> eps multiplicative,
    eps(1) = 1 <-> eps(1) = 1, and the antipode laws of S^T <-> those of S.
    Hence verify_hopf(dual(H)).ok == verify_hopf(H).ok, and the dual of a
    verified algebra needs no second check.
    """
    n, M = H.dim, H.conductor
    mult_d = {}
    for (i, j, k), c in H.comult.entries:
        mult_d[(j, k, i)] = c
    comult_d = {}
    for (i, j, k), c in H.mult.entries:
        comult_d[(k, i, j)] = c
    return FinHopf(n, M,
                   SparseTensor3.from_dict((n, n, n), mult_d),
                   H.counit,
                   SparseTensor3.from_dict((n, n, n), comult_d),
                   H.unit,
                   transpose_columns(H.antipode, n),
                   ClaimSet(H.claims.characters, H.claims.grouplikes),
                   f"dual({H.label})" if H.label else "dual")


def op_cop(H: FinHopf, which: str) -> FinHopf:
    """Opposite / co-opposite Hopf algebra (antipode inverted for op, cop).

    Certificate: the product of H^op and the coproduct of H^cop are those of
    H read in swapped order, so their (co)algebra axioms are those of H.  For
    a verified H, S is bijective (H is finite-dimensional), and S^-1 is the
    antipode of H^op and of H^cop, while S is that of H^{op,cop}.  Hence
    op_cop of a verified algebra is a Hopf algebra and needs no second check.
    """
    if which not in ("op", "cop", "both"):
        raise ValueError(f"which must be op/cop/both, got {which!r}")
    n, M = H.dim, H.conductor
    mult = H.mult
    comult = H.comult
    if which in ("op", "both"):
        mult = SparseTensor3.from_dict(
            (n, n, n), {(j, i, k): c for (i, j, k), c in H.mult.entries})
    if which in ("cop", "both"):
        comult = SparseTensor3.from_dict(
            (n, n, n), {(i, k, j): c for (i, j, k), c in H.comult.entries})
    antipode = H.antipode if which == "both" else H.antipode_inv
    return FinHopf(n, M, mult, H.unit, comult, H.counit, antipode, H.claims,
                   f"{which}({H.label})" if H.label else which)


def trivial_hopf(M: int) -> FinHopf:
    one = CycloNum.one(M)
    t = SparseTensor3.from_dict((1, 1, 1), {(0, 0, 0): one})
    return FinHopf(1, M, t, {0: one}, t, {0: one}, ({0: one},),
                   ClaimSet([{0: one}], [{0: one}]), "k")


def tensor(H: FinHopf, K: FinHopf, label: str | None = None) -> FinHopf:
    """Tensor-product Hopf algebra; all structure tensors are Kronecker products.

    Certificate: as every structure map of H (x) K (unit, counit and antipode
    too) is a Kronecker product, each axiom that verify_hopf checks on
    H (x) K is, on pure tensors, the tensor product of the same axiom on H and
    on K, e.g. ((a (x) b)(a' (x) b'))(a'' (x) b'') = ((aa')a'') (x) ((bb')b'').
    Hence the tensor of verified algebras needs no second check; and with K
    verified, an axiom fails on H (x) K exactly when it fails on H (put 1_K
    in the K leg).  The label defaults to "H (x) K", or "tensor" when either
    is unnamed."""
    if H.conductor != K.conductor:
        raise ConductorMismatch(
            f"conductors {H.conductor} and {K.conductor} differ")
    nH, nK, M = H.dim, K.dim, H.conductor
    n = nH * nK

    def ix(a, b):
        return a * nK + b

    mult = {}
    for (i, j, k), c in H.mult.entries:
        for (a, b, t), d in K.mult.entries:
            mult[(ix(i, a), ix(j, b), ix(k, t))] = c * d
    comult = {}
    for (i, j, k), c in H.comult.entries:
        for (a, b, t), d in K.comult.entries:
            comult[(ix(i, a), ix(j, b), ix(k, t))] = c * d

    def products(us, vs):
        # u (x) v in (u, v) order, so S_H(e_j) (x) S_K(e_b) is column ix(j, b)
        return [{ix(i, a): ui * va for i, ui in u.items() for a, va in v.items()}
                for u in us for v in vs]

    (unit,) = products([H.unit], [K.unit])
    (counit,) = products([H.counit], [K.counit])
    if label is None:
        label = f"{H.label} (x) {K.label}" if H.label and K.label else "tensor"
    return FinHopf(n, M, SparseTensor3.from_dict((n, n, n), mult), unit,
                   SparseTensor3.from_dict((n, n, n), comult), counit,
                   products(H.antipode, K.antipode),
                   ClaimSet(products(H.claims.grouplikes, K.claims.grouplikes),
                            products(H.claims.characters, K.claims.characters)),
                   label)


def embed_hopf(H: FinHopf, M_new: int) -> FinHopf:
    """Lossless coefficient embedding into a larger cyclotomic field."""
    from .cyclo import embed as em
    if M_new == H.conductor:
        return H

    def t3(t: SparseTensor3) -> SparseTensor3:
        return SparseTensor3.from_dict(
            t.dims, {k: em(c, M_new) for k, c in t.entries})

    def sparse(vs):
        return [{k: em(c, M_new) for k, c in v.items()} for v in vs]

    unit, counit = sparse((H.unit, H.counit))
    return FinHopf(H.dim, M_new, t3(H.mult), unit, t3(H.comult),
                   counit, sparse(H.antipode),
                   ClaimSet(sparse(H.claims.grouplikes),
                            sparse(H.claims.characters)),
                   H.label, fixtures=lambda: tuple(
                       (key, sparse(cols)) for key, cols in H.iso_fixtures))


# -- morphisms --------------------------------------------------------------------


class HopfMorphism:
    """A linear map source -> target claimed to be a Hopf algebra map, held
    as sparse columns: cols[j] is the image of e_j, zero coefficients dropped
    (verify_morphism compares images as dicts)."""

    def __init__(self, source: FinHopf, target: FinHopf, cols):
        self.source = source
        self.target = target
        self.cols = zero_free_columns(cols)

    def apply(self, v: dict) -> dict:
        return apply_columns(self.cols, v)

    @cached_property
    def rank(self) -> int:
        return image(self.cols, self.target.dim, self.source.conductor).dim

    def __repr__(self):
        return f"HopfMorphism({self.source.label} -> {self.target.label})"


def identity_morphism(H: FinHopf) -> HopfMorphism:
    return HopfMorphism(H, H, identity_columns(H.dim, H.conductor))


class MorphismReport(VerificationReport):
    def __init__(self, checks, rank, injective, surjective):
        super().__init__(checks)
        self.rank = rank
        self.injective = injective
        self.surjective = surjective

    @property
    def bijective(self):
        return self.injective and self.surjective


def verify_morphism(f: HopfMorphism) -> MorphismReport:
    """Checks algebra / coalgebra / unit / counit / antipode compatibility."""
    Hs, Ht = f.source, f.target
    if Hs.conductor != Ht.conductor:
        raise ConductorMismatch("morphism endpoints live over different conductors")
    n = Hs.dim
    checks = []

    imgs = f.cols

    fail = algebra_map_failure(Hs.mrows, imgs, Ht.mul, Hs.unit, Ht.unit)
    checks.append(CheckResult("algebra_map", fail is None, fail))

    fail = None
    for i in range(n):
        rhs = apply_tensor_columns(imgs, imgs, dict(Hs.crows[i]))
        if Ht.comult_of(imgs[i]) != rhs:
            fail = (i,)
            break
    checks.append(CheckResult("coalgebra_map", fail is None, fail))

    fail = None
    zero = CycloNum.zero(Hs.conductor)
    for i in range(n):
        if Ht.counit_of(imgs[i]) != Hs.counit.get(i, zero):
            fail = (i,)
            break
    checks.append(CheckResult("counit", fail is None, fail))

    fail = None
    for i in range(n):
        if f.apply(Hs.antipode[i]) != Ht.antipode_of(imgs[i]):
            fail = (i,)
            break
    checks.append(CheckResult("antipode", fail is None, fail))

    rank = f.rank
    return MorphismReport(checks, rank, rank == Hs.dim, rank == Ht.dim)


def skew_primitive_map(H: FinHopf, a: dict, b: dict) -> list[dict]:
    """Columns of c -> Delta(c) - a (x) c - c (x) b, whose kernel is P_{a,b}."""
    one = CycloNum.one(H.conductor)
    return [sparse_sub(sparse_sub(dict(H.crows[m]), outer(a, {m: one})),
                       outer({m: one}, b)) for m in range(H.dim)]


def coinvariants(pi: HopfMorphism) -> Subspace:
    """{h : (id (x) pi)Delta(h) = h (x) 1_B} as a subspace of the source."""
    H, B = pi.source, pi.target
    n, m, M = H.dim, B.dim, H.conductor
    if pi.rank != m:
        raise NotSurjective("projection is not surjective")
    ident = identity_columns(n, M)
    one = CycloNum.one(M)
    cols = [sparse_sub(apply_tensor_columns(ident, pi.cols, dict(H.crows[t])),
                       outer({t: one}, B.unit)) for t in range(n)]
    return intersect_kernels([cols], n, M)


def quotient_by_hopf_ideal(H: FinHopf, generators) -> tuple[FinHopf, HopfMorphism]:
    """Quotient by the two-sided ideal generated by the sparse `generators`.

    The ideal closure is computed first; it must then be a coideal, stable
    under S and killed by the counit, otherwise NotAHopfIdeal is raised.

    Certificate: the closure I is a two-sided ideal, and the checks prove
    eps(I) = 0, S(I) in I and (pi (x) pi)Delta(I) = 0, so I is a Hopf ideal.
    The maps written for H/I are exactly the induced ones on the complement
    basis: projected products, (pi (x) pi)Delta, pi(1), eps on the complement
    and pi S.  Hence the quotient of a verified algebra needs no second check.
    """
    n, M = H.dim, H.conductor
    I = ideal_closure(H.mrows, n, M, generators)
    if I.dim == 0:
        return H, identity_morphism(H)
    if I.dim == n:
        raise NotAHopfIdeal("ideal closure is the whole algebra")

    coords = I.complement_coords()
    q = len(coords)
    proj = I.projection_columns()
    basis = I.basis

    # counit must vanish on I
    for v in basis:
        if not H.counit_of(v).is_zero():
            raise NotAHopfIdeal("counit does not vanish on the ideal")
    # S-stability
    for v in basis:
        if not I.contains(H.antipode_of(v)):
            raise NotAHopfIdeal("ideal is not antipode-stable")
    # coideal: (pi (x) pi) Delta v = 0 for v in I
    for v in basis:
        if apply_tensor_columns(proj, proj, H.comult_of(v)):
            raise NotAHopfIdeal("ideal is not a coideal")

    # the quotient lives on the complement basis e_c, c in coords
    comult_d = {}
    for a, c in enumerate(coords):
        for (s, t), x in apply_tensor_columns(proj, proj, dict(H.crows[c])).items():
            comult_d[(a, s, t)] = x
    unit_q = apply_columns(proj, H.unit)
    S_q = [apply_columns(proj, H.antipode[c]) for c in coords]

    def restrict(chi):
        """A functional vanishing on I (the counit, a character) on H/I."""
        return {a: chi[c] for a, c in enumerate(coords) if c in chi}

    # project claims: group-likes map to their (distinct, nonzero) images;
    # a character vanishing on I restricts to the coordinates of H/I
    gls = {}
    for g in H.claims.grouplikes:
        pg = apply_columns(proj, g)
        if pg:
            gls.setdefault(frozenset(pg.items()), pg)
    chs = [restrict(chi) for chi in H.claims.characters
           if all(sparse_dot(chi, v, M).is_zero() for v in basis)]

    Q = FinHopf(q, M, quotient_mult(H.mrows, I, proj), unit_q,
                SparseTensor3.from_dict((q, q, q), comult_d), restrict(H.counit), S_q,
                ClaimSet(gls.values(), chs),
                f"{H.label}/ideal" if H.label else "quotient")
    return Q, HopfMorphism(H, Q, proj)
