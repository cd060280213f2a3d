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

Associativity, the algebra-map laws of Delta and eps and coassociativity
are checked with their left factor (or row) in a set L of basis indices:
L = X = `FinHopf.generators`, joined by supp(u) when the unit law fails, u
being the claimed unit.  The words x_1 (x_2 ( ... (x_k u))) in X span H.
Each law then holds on all of H by induction on such words, given the law
listed before it:
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
    eps for Delta;
  (Delta (x) id)Delta(a) = (id (x) Delta)Delta(a), given that Delta is an
    algebra map (Delta(ab) = Delta(a)Delta(b) and Delta(u) = u (x) u, the
    Delta law above): Delta (x) id and id (x) Delta are then multiplicative
    maps H (x) H -> H (x) H (x) H, so C = {a : (Delta (x) id)Delta(a) =
    (id (x) Delta)Delta(a)} is a subspace that contains u, both sides
    giving u (x) u (x) u, and for a in C and x in X (in C, being in L),
    (Delta (x) id)Delta(xa)
    = [(Delta (x) id)Delta(x)] [(Delta (x) id)Delta(a)]
    = [(id (x) Delta)Delta(x)] [(id (x) Delta)Delta(a)]
    = (id (x) Delta)Delta(xa), so C = H.
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
hold there, and they are compared on every row (left=None).  The terms
with a in X(H*) are found by bisection in the first-leg index of the
comultiplication (`SparseTensor3.first_legs`) when a row is long.  Products
in H and H (x) H are `linalg.mult_vectors` and `linalg.tensor_mul` on the
row view.  They, `linalg.apply_tensor_columns` and `associativity_failure`
form a coefficient product only for a nonzero structure cell, and
`associativity_failure` compares one-term cells without dicts.  The
coassociativity, counit and antipode laws act on Delta(e_i) leg by leg
through the `linalg` kernels `coproduct_leg`, `functional_leg` and
`contract`.
The skew-primitives P_{a,b} and the coinvariants H^{co pi} are kernels of
maps built as sparse columns (`skew_primitive_map`, and (id (x) pi)Delta
minus h -> h (x) 1_B), taken by `linalg.intersect_kernels`.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain

from .cyclo import CycloNum, Record, _frozen
from .errors import (AntipodeNotInvertible, ConductorMismatch, NotAHopfIdeal,
                     NotSurjective)
from .linalg import (EchelonBasis, SparseTensor3, Subspace, algebra_radical,
                     apply_columns, apply_tensor_columns,
                     commutative_quotient_dim, contract, coproduct,
                     coproduct_leg, functional_leg, identity_columns,
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
        """H*, built once; while H lives, its own dual_cached() is H again
        (H** = H).  H* holds H only by a weak reference, so the pair is no
        reference cycle and a dropped algebra is freed by reference
        counting alone."""
        back = self._cache.get("dual_of")
        H = back() if back is not None else None
        if H is not None:
            return H

        def make():
            D = dual(self)
            D.memo("dual_of", lambda: weakref.ref(self))
            return D
        return self.memo("dual", make)

    @property
    def generators(self) -> tuple[int, ...] | None:
        """Basis indices X with span{x_1 (x_2 ( ... (x_k u))) : x_i in X} = H,
        u = `unit`.

        Found by a greedy Krylov closure: start from span{u}, take each basis
        element not yet in the span into X, and close the span under left
        multiplication by X, until it is all of H.  Candidates are taken in
        increasing order of cost per reach, |Delta(e_i)| / |{m : e_i e_m !=
        0}| (`crows` terms over `mmasks` bits; ties busiest row first, then
        by index): a left factor x costs the Delta-multiplicativity sweep
        |Delta(e_x)| |Delta(e_b)| products of cell pairs for each b, and the
        nonzero products e_x e_m are what the closure can reach through x.
        Any generating X serves the inductions of the module docstring, so
        the order changes only which X, never a verdict.
        A product e_x v is skipped when no nonempty cell e_x e_m has m in
        supp(v) (one bit-and of `mmasks[x]` with the support of v): it is
        then 0 and would not grow the span, so X is the same.
        None when the span stays short of H, which the unit law excludes
        (x 1 = x puts every x in X into the span); a claimed unit that fails
        the unit law may still give an X.
        """
        return self.memo("generators", lambda: _krylov_generators(
            self.mrows, self.mmasks, self.crows, self.unit, self.conductor))

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
                            self.dual_cached().generators,
                            self.comult.first_legs())

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

    def __repr__(self):
        return f"FinHopf({self.label or 'unnamed'}, dim={self.dim}, M={self.conductor})"


def is_grouplike(v: dict, counit: dict, crows, M: int, left=None,
                 legs=None) -> bool:
    """Is the sparse vector v group-like, eps(v) = 1 and Delta v = v (x) v,
    for the coalgebra with this counit and comult rows?

    After eps(v) = 1, Delta(v)_(a, b) = v_a v_b is compared only for a in
    `left` (default: every index); generators of the dual algebra suffice
    there (module docstring).  `legs` is the first-leg index of the rows
    (`SparseTensor3.first_legs`): with it, a row much longer than `left`
    is read only on the runs of its first legs a in `left`, found by
    bisection; a shorter row is scanned, as every row is without `legs`.
    """
    if not sparse_dot(v, counit, M).is_one():
        return False
    keep = None if left is None else set(left)
    lhs: dict = {}
    # by hand, not `coproduct`: only the terms with a in `keep` are formed
    for i, c in v.items():
        row = crows[i]
        # two bisections and a slice per a in `keep` cost about what
        # scanning 12 terms does, so a shorter row is scanned
        if keep is not None and legs is not None and len(row) > 12 * len(keep):
            f = legs[i]
            for a in keep:
                for (_, b), d in row[bisect_left(f, a):bisect_right(f, a)]:
                    sparse_add_into(lhs, (a, b), c * d)
        else:
            for (a, b), d in row:
                if keep is None or a in keep:
                    sparse_add_into(lhs, (a, b), c * d)
    return lhs == {(a, b): ca * cb for a, ca in v.items()
                   if keep is None or a in keep for b, cb in v.items()}


def support_mask(v: dict) -> int:
    """The bits of supp(v), to bit-and with `nonempty_masks`."""
    return sum(1 << m for m in v)


def _krylov_generators(mrows, masks, crows, unit: dict,
                       M: int) -> tuple[int, ...] | None:
    """See `FinHopf.generators`."""
    n = len(mrows)
    one = CycloNum.one(M)
    span = EchelonBasis(n, M)
    span.insert(unit)
    found = [(unit, support_mask(unit))]
    X: list[int] = []
    # cost per reach, then busiest first; the sort is stable, so then by
    # index.  The float ratios order exactly while n^4 < 2^53 (two ratios
    # with terms <= n^2 over counts <= n differ by at least 1/n^4 relative);
    # past that only the choice of X could change, never a verdict
    order = sorted(range(n), key=lambda i: (
        len(crows[i]) / max(1, masks[i].bit_count()), -masks[i].bit_count()))
    for i in order:
        if len(span) == n:
            break
        if span.contains({i: one}):
            continue
        X.append(i)
        work = [(i, v, vmask) for v, vmask in found]
        # X grows only in this outer loop, so once the span is all of H
        # the rest of the work could not change X
        while work and len(span) < n:
            x, v, vmask = work.pop()
            if not masks[x] & vmask:
                continue  # e_x v = 0, read off the bit masks
            w = mult_vectors(mrows, {x: one}, v)
            if span.insert(w):
                wmask = support_mask(w)
                found.append((w, wmask))
                work.extend((y, w, wmask) for y in X)
    return tuple(sorted(X)) if len(span) == n else None


# -- verification ---------------------------------------------------------------


class CheckResult(Record):
    """One law's verdict: `first_failure` is its first failing index in
    sweep order, None when the law holds."""

    __slots__ = ("name", "first_failure")

    @classmethod
    def first(cls, name, failures) -> "CheckResult":
        """The verdict of a law whose failing indices, in sweep order, are
        the iterable `failures`; only its first item is read."""
        return cls(name, next(iter(failures), None))

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    def __repr__(self):
        return f"{self.name}: {'pass' if self.ok else f'FAIL at {self.first_failure}'}"


class VerificationReport:
    """The `CheckResult`s of one verification, in report order, as a tuple.
    Assigning to a field after construction raises AttributeError."""

    __slots__ = ("checks",)
    __setattr__ = __delattr__ = _frozen

    def __init__(self, checks):
        object.__setattr__(self, "checks", tuple(checks))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __repr__(self):
        return "; ".join(map(repr, self.checks))


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

    Cells of at most one term are compared without dicts.  When
    e_i e_j = c e_m, e_m e_k = d e_l, e_j e_k = c' e_m' and
    e_i e_m' = d' e_l', the two sides are cd e_l and c'd' e_l'.  A product
    of nonzero field elements is nonzero (the cells are zero-free), so each
    side has the one key l or l', and they agree exactly when l = l' and
    cd = c'd'; a `CycloNum` is the only object of its value, so cd = c'd'
    is `cd is c'd'`.  Both products are the ones the dict path forms.  A
    side with an empty cell among its two is 0, and 0 equals a one-term
    side never.  Any other (i, j, k) runs the dict path.
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
            short = len(v) <= 1
            if v and short:
                (m, cv), = v
                rm = mrows[m]  # e_i e_j = cv e_m
            while ks:
                low = ks & -ks
                ks ^= low
                k = low.bit_length() - 1
                if short:
                    a = rm[k] if v else ()
                    b = rj[k]
                    if len(a) <= 1 and len(b) <= 1:
                        e = ri[b[0][0]] if b else ()
                        if len(e) <= 1:
                            # lhs = cv d e_l and rhs = c' d2 e_l2, c' =
                            # b[0][1]; a side with an empty cell is 0
                            if a and e:
                                (l, d), = a
                                (l2, d2), = e
                                if l != l2 or cv * d is not b[0][1] * d2:
                                    return (i, j, k)
                            elif a or e:
                                return (i, j, k)
                            continue
                # by hand, not `mult_vectors`: k is read off the bit masks
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


def coassociativity_failure(crows, left=None) -> tuple[int] | None:
    """First (i,) with (Delta (x) id)Delta(e_i) != (id (x) Delta)Delta(e_i),
    for the comult rows `crows`; i runs over `left` (default: every index)."""
    for i in range(len(crows)) if left is None else left:
        X = dict(crows[i])
        if coproduct_leg(crows, X, 0) != coproduct_leg(crows, X, 1):
            return (i,)
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
    """sweep(L) certifies the law when L holds the generators X of H (with
    supp(u) when the unit law fails) and its prerequisites hold; a failure
    there, or no L, is settled by the full sweep(None), so the reported
    index is always the lexicographically first."""
    if L is not None and sweep(L) is None:
        return None
    return sweep(None)


def verify_hopf(H: FinHopf) -> VerificationReport:
    """Exact decision of every Hopf axiom; failures are report entries.

    The unit law is checked first (the report keeps associativity first).
    Where X = `H.generators` exists, four laws are checked with their left
    factor in L = X, joined by supp(u) for the claimed unit u when the unit
    law fails:
      associativity on L x basis x basis, given only that X exists;
      Delta(ab) = Delta(a)Delta(b) on L x basis, given associativity;
      eps(ab) = eps(a)eps(b) on L x basis, given associativity;
      coassociativity on e_i for i in L, given that Delta is an algebra map.
    Each suffices by induction on words in X: the set of a for which the
    law holds for all other arguments is a subspace, contains u and is
    closed under a -> xa, because (xa)b = x(ab), or Delta(xa) =
    Delta(x)Delta(a) for coassociativity (module docstring).  The algebra
    map laws are checked before coassociativity (the report keeps
    coassociativity third).
    Delta(u) = u (x) u and eps(u) = 1 are checked first and reported at
    ("unit",).  A law whose prerequisites fail is swept over all basis
    pairs or triples, and so is a law that fails on its left factors, so
    each entry, the first of the law's failing indices in sweep order, is
    the one the full sweeps give.
    The other laws are linear in one argument and are checked on every
    basis element.
    """
    n, M = H.dim, H.conductor
    crows, su, counit = H.crows, H.unit, H.counit
    one = CycloNum.one(M)

    def unit_failures():
        for j in range(n):
            ej = {j: one}
            if H.mul(su, ej) != ej or H.mul(ej, su) != ej:
                yield (j,)
    unit = CheckResult.first("unit", unit_failures())
    # L, the left factors of the checks on generators (verify_hopf docstring)
    L = H.generators
    if L is not None and not unit.ok:
        L = tuple(sorted({*L, *su}))

    assoc = CheckResult("associativity", _certified(
        lambda left: associativity_failure(H.mrows, left, H.mmasks), L))
    if not assoc.ok:
        L = None

    def counit_failures():
        for i in range(n):
            X, ei = dict(crows[i]), {i: one}
            if (functional_leg(counit, X, 0) != ei
                    or functional_leg(counit, X, 1) != ei):
                yield (i,)
    counit_law = CheckResult.first("counit", counit_failures())

    # Delta : H -> H (x) H and eps : H -> k are algebra maps (so Delta(1) =
    # 1 (x) 1 and eps(1) = 1), k being the algebra k e_0 with e_0 e_0 = e_0
    k_rows = [[((0, one),)]]
    maps = []
    for name, cols, mul, unit_image in (
            ("comult_algebra_map", [dict(row) for row in crows],
             H.tensor_mul, outer(su, su)),
            ("counit_algebra_map", [{0: counit[i]} if i in counit else {}
                                    for i in range(n)],
             lambda x, y: mult_vectors(k_rows, x, y), {0: one})):
        maps.append(CheckResult(name, _certified(
            lambda left: algebra_map_failure(H.mrows, cols, mul, su,
                                             unit_image, left), L)))
    # coassociativity, certified on L once Delta is an algebra map
    coassoc = CheckResult("coassociativity", _certified(
        lambda left: coassociativity_failure(crows, left),
        L if maps[0].ok else None))
    checks = [assoc, unit, coassoc, counit_law, *maps]

    # antipode axioms: m(S (x) id)Delta = unit.counit = m(id (x) S)Delta,
    # one sweep per side
    S, ident = H.antipode, identity_columns(n, M)

    def antipode_failures(A, B):
        for i in range(n):
            acc = contract(H.mrows, A, B, dict(crows[i]))
            target = {a: counit[i] * cu for a, cu in su.items()} if i in counit else {}
            if acc != target:
                yield (i,)
    checks.append(CheckResult.first("antipode_left", antipode_failures(S, ident)))
    checks.append(CheckResult.first("antipode_right", antipode_failures(ident, S)))

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

    The transposed entries are written sorted, with no dict and no sort:
    H's entries are sorted and zero-free, and a stable bucketing on one
    index of the new triples keeps the order of the others.  The product
    e^j e^k = sum d_i^{jk} e^i comes from the comultiplication, sorted by
    i, bucketed on k and then on j; the coproduct Delta(e^k) = sum
    c_{ij}^k e^i (x) e^j from the multiplication, sorted by (i, j),
    bucketed on k.  The row views of H* are built on first use.
    """
    n, M = H.dim, H.conductor
    mult_d = _bucketed(_bucketed((((j, k, i), c) for (i, j, k), c
                                  in H.comult.entries), n, 1), n, 0)
    comult_d = _bucketed((((k, i, j), c) for (i, j, k), c
                          in H.mult.entries), n, 0)
    return FinHopf(n, M,
                   SparseTensor3((n, n, n), tuple(mult_d)),
                   H.counit,
                   SparseTensor3((n, n, n), tuple(comult_d)),
                   H.unit,
                   transpose_columns(H.antipode, n),
                   ClaimSet(H.claims.characters, H.claims.grouplikes),
                   f"dual({H.label})" if H.label else "dual")


def _bucketed(entries, n: int, pos: int):
    """The (triple, value) entries, stably sorted on index `pos` of their
    triples, each index in range(n)."""
    buckets = [[] for _ in range(n)]
    for e in entries:
        buckets[e[0][pos]].append(e)
    return chain.from_iterable(buckets)


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
    (verify_morphism compares images as dicts).  Assigning to a field after
    construction raises AttributeError, so the cached `rank` stays that of
    `cols`."""

    __setattr__ = __delattr__ = _frozen

    def __init__(self, source: FinHopf, target: FinHopf, cols):
        vars(self).update(source=source, target=target,
                          cols=zero_free_columns(cols))

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
    __slots__ = ("rank", "injective", "surjective")

    def __init__(self, checks, rank, injective, surjective):
        super().__init__(checks)
        for name, value in zip(self.__slots__, (rank, injective, surjective)):
            object.__setattr__(self, name, value)

    @property
    def bijective(self):
        return self.injective and self.surjective


def verify_morphism(f: HopfMorphism) -> MorphismReport:
    """Checks algebra / coalgebra / unit / counit / antipode compatibility."""
    Hs, Ht = f.source, f.target
    if Hs.conductor != Ht.conductor:
        raise ConductorMismatch("morphism endpoints live over different conductors")
    n, imgs = Hs.dim, f.cols
    zero = CycloNum.zero(Hs.conductor)
    checks = [
        CheckResult("algebra_map", algebra_map_failure(
            Hs.mrows, imgs, Ht.mul, Hs.unit, Ht.unit)),
        CheckResult.first("coalgebra_map", (
            (i,) for i in range(n) if Ht.comult_of(imgs[i])
            != apply_tensor_columns(imgs, imgs, dict(Hs.crows[i])))),
        CheckResult.first("counit", (
            (i,) for i in range(n)
            if Ht.counit_of(imgs[i]) != Hs.counit.get(i, zero))),
        CheckResult.first("antipode", (
            (i,) for i in range(n)
            if f.apply(Hs.antipode[i]) != Ht.antipode_of(imgs[i])))]
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
