"""The group-like test, the commutator ideal and the centre on generators,
against full-basis oracles.

`FinHopf.is_grouplike` compares Delta(v) = v (x) v only on the rows whose
first index lies in the generators of H*; `character_count` builds the
commutator ideal of H/J(H) from the commutators of the images of the
generators X of H, closed under multiplication by those images; the block
count takes the centre of H*/J(H*) as the common kernel of z -> gz - zg over
the images only.  The oracles below do the same on every basis element:
the full Delta(v) and v (x) v, all basis commutators closed under all basis
multipliers, and z -> e_j z - z e_j for every j.  Both must agree on the
p = 3 corpus and its duals, on D(taft) and on a relabelled, rescaled
D(taft); every claimed group-like and character, perturbed in one
coordinate, must be rejected by both.  A field-multiplication budget pins
the work.

With the first-leg index of the comultiplication (`SparseTensor3.first_legs`),
a long row is read only on the runs of its first legs in X(H*); the terms
it visits are counted on the p = 3 corpus and its duals, against the full
rows the scan reads, with every verdict compared with the check on every
row.

The modular elements alpha and g are group-like without a check (proof in
`invariants._modular_elements`); the full Delta(v) = v (x) v oracle
confirms it on the p = 3 corpus, its duals and D(taft).
"""

from test_census_certificate import relabel

from hopfkit.constructors import group_algebra
from hopfkit.cyclo import CycloNum
from hopfkit.groups import cyclic
from hopfkit.hopf import is_grouplike, verify_hopf
from hopfkit.invariants import modular_elements
from hopfkit.linalg import (EchelonBasis, center, commutative_quotient_dim,
                            coproduct, kernel, mult_vectors, outer,
                            sparse_add_into, sparse_dot)


def oracle_is_grouplike(H, v):
    return (sparse_dot(v, H.counit, H.conductor).is_one()
            and coproduct(H.crows, v) == outer(v, v))


def oracle_commutative_quotient_dim(mult, M):
    """n minus the dim of the ideal spanned by every [e_i, e_j], closed under
    left and right multiplication by every basis element."""
    n = mult.dims[0]
    rows = mult.rows_ij()
    one = CycloNum.one(M)
    basis = [{j: one} for j in range(n)]
    eb = EchelonBasis(n, M)
    work = []
    for i in range(n):
        for j in range(i + 1, n):
            c = dict(rows[i][j])
            for k, a in rows[j][i]:
                sparse_add_into(c, k, -a)
            if eb.insert(c):
                work.append(c)
    while work:
        v = work.pop()
        for e in basis:
            for prod in (mult_vectors(rows, v, e), mult_vectors(rows, e, v)):
                if eb.insert(prod):
                    work.append(prod)
    return n - len(eb)


def oracle_centre(mult, M):
    """The kernel of z -> e_j z - z e_j over every j, as condition rows."""
    n = mult.dims[0]
    rows = mult.rows_ij()
    eq: dict = {}
    for j in range(n):
        for b in range(n):
            for k, c in rows[j][b]:
                sparse_add_into(eq.setdefault((j, k), {}), b, c)
            for k, c in rows[b][j]:
                sparse_add_into(eq.setdefault((j, k), {}), b, -c)
    return kernel(eq.values(), n, M)


def perturbations(H, v):
    """v with one coordinate moved by 1: one where the counit vanishes (so
    eps(v) = 1 still holds, if there is such a coordinate) and one in the
    support of v."""
    one = CycloNum.one(H.conductor)
    coords = [next((k for k in range(H.dim) if k not in H.counit), None),
              min(v)]
    for k in coords:
        if k is not None:
            w = dict(v)
            sparse_add_into(w, k, one)
            yield w


def assert_matches_oracles(H, full_algebra=True):
    M = H.conductor
    for A in (H, H.dual_cached()):
        ssq = A.semisimple_quotient
        assert A.character_count == oracle_commutative_quotient_dim(ssq, M), A.label
        assert (center(ssq, M, A.semisimple_generators)
                == oracle_centre(ssq, M)), A.label
        if full_algebra:
            one = CycloNum.one(M)
            X = [{x: one} for x in A.generators]
            assert (commutative_quotient_dim(A.mult, M, X)
                    == oracle_commutative_quotient_dim(A.mult, M)), A.label
            assert center(A.mult, M, X) == oracle_centre(A.mult, M), A.label
        # the claimed characters of A are the claimed group-likes of A*
        assert A.claims.grouplikes, A.label
        for v in A.claims.grouplikes:
            assert A.is_grouplike(v) and oracle_is_grouplike(A, v), A.label
            for w in perturbations(A, v):
                assert not A.is_grouplike(w), A.label
                assert not oracle_is_grouplike(A, w), A.label


def test_corpus_and_duals_match_the_oracles(corpus3):
    assert len(corpus3) == 17
    for H in corpus3.values():
        assert_matches_oracles(H)


def test_double_and_a_relabelling_match_the_oracles(double_taft):
    assert_matches_oracles(double_taft, full_algebra=False)
    R = relabel(double_taft, 11)
    assert verify_hopf(R).ok
    assert_matches_oracles(R, full_algebra=False)


def counting_rows(crows, seen):
    """crows as rows that add to seen[0] each term read from them, by
    iteration or by a slice."""
    class Row(tuple):
        def __iter__(self):
            seen[0] += len(self)
            return super().__iter__()

        def __getitem__(self, key):
            out = super().__getitem__(key)
            seen[0] += len(out) if isinstance(key, slice) else 1
            return out
    return [Row(row) for row in crows]


def test_grouplike_test_reads_only_the_runs_of_the_kept_legs(corpus3):
    # the claims and their perturbations, on every corpus member and its
    # dual: the terms visited through the first-leg index, against those
    # the scan of every row of supp(v) reads
    indexed, scanned = [0], [0]
    for H in corpus3.values():
        for A in (H, H.dual_cached()):
            X, M = A.dual_cached().generators, A.conductor
            rows_i, rows_s = (counting_rows(A.crows, seen)
                              for seen in (indexed, scanned))
            for v in A.claims.grouplikes:
                for w in (v, *perturbations(A, v)):
                    before = indexed[0], scanned[0]
                    verdict = is_grouplike(w, A.counit, rows_i, M, X,
                                           A.comult.first_legs())
                    assert verdict == is_grouplike(w, A.counit, rows_s, M, X)
                    assert verdict == is_grouplike(w, A.counit, A.crows, M), A.label
                    # never more terms than the scan, row by row
                    assert indexed[0] - before[0] <= scanned[0] - before[1], A.label
    # 77,433 of 180,627 terms: the rows of 27 terms of a k^G are read by
    # bisection against the 1 or 2 generators of k[G]; rows at most 12
    # times as long as X(H*) are scanned
    assert scanned[0] == 180_627, scanned
    assert indexed[0] <= 77_433, indexed


def test_generator_work_budget(monkeypatch):
    """Field multiplications after warming `generators`, `radical` and
    `semisimple_quotient` of k[Z/27] and its dual k^G.

    Before the generator certificates: `verified_grouplikes` of k^G (27
    dense characters) 39,393; `character_count` 1,404 for k[Z/27] and 702
    for k^G.  With them: 1,485, 0 and 650.
    """
    H = group_algebra(cyclic(27), 27)
    K = H.dual_cached()
    for A in (H, K):
        A.generators
        A.radical
        A.semisimple_quotient
    # count CycloNum multiplications, as the benchmark's cyclo mode does
    n = [0]
    orig = CycloNum.__mul__

    def mul(a, b):
        n[0] += 1
        return orig(a, b)
    monkeypatch.setattr(CycloNum, "__mul__", mul)

    assert len(K.verified_grouplikes) == 27
    assert n[0] <= 1600, n[0]
    for A, budget in ((H, 0), (K, 700)):
        n[0] = 0
        assert A.character_count == 27
        assert n[0] <= budget, (A.label, n[0])


def test_modular_elements_are_grouplike(corpus3, double_taft):
    algebras = [A for H in corpus3.values() for A in (H, H.dual_cached())]
    for A in algebras + [double_taft]:
        mod = modular_elements(A)
        # alpha is a character of A, i.e. a group-like of A*
        assert oracle_is_grouplike(A.dual_cached(), mod.alpha), A.label
        assert oracle_is_grouplike(A, mod.g), A.label
