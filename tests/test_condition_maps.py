"""Kernels of linear maps given as sparse columns (`intersect_kernels`)
against the row-form condition builders they replaced.

The oracles below are the earlier builders: each transposes its map into
condition rows by hand and takes the row-form `kernel`.  Skew-primitives
(pairs (1, g) and (g, 1) over the verified group-likes) and the centre are
compared on the p = 3 corpus and D(taft), the coinvariants on the
projections of `test_hopf.py`; every `Subspace` must be identical.  The
coradical filtration, which `invariants` reads from the powers of J(H*),
is compared with the projection oracle `dense_oracle.oracle_coradical_spaces`
there (and on the p = 5 corpus under `-m slow`): equal dims, and each
oracle H_k equal to (J^{k+1})^perp with J^{k+1} formed from every product.
"""

import pytest

from dense_oracle import oracle_coradical_spaces, zero_vector
from hopfkit.constructors import corpus, group_algebra, standard_constructors
from hopfkit.cyclo import CycloNum
from hopfkit.groups import cyclic
from hopfkit.hopf import (HopfMorphism, coinvariants, identity_morphism,
                          trivial_hopf)
from hopfkit.invariants import coradical_filtration, skew_primitives
from hopfkit.linalg import (Subspace, center, kernel, sparse_add_into,
                            sparse_columns)

M = 9


def oracle_skew_primitive_rows(H, a, b):
    """Rows of Delta(c) = a (x) c + c (x) b in the coordinates of c, one per (j, k)."""
    n = H.dim
    eq: dict = {}
    for m in range(n):
        for (j, k), c in H.crows[m]:
            sparse_add_into(eq.setdefault((j, k), {}), m, c)
    for j, aj in a.items():
        for k in range(n):
            sparse_add_into(eq.setdefault((j, k), {}), k, -aj)
    for k, bk in b.items():
        for j in range(n):
            sparse_add_into(eq.setdefault((j, k), {}), j, -bk)
    return eq.values()


def oracle_coinvariants(pi):
    H, B = pi.source, pi.target
    n = H.dim
    # (id (x) pi) Delta(h) - h (x) 1_B = 0, one row per (j, b)
    eq: dict = {}
    for t in range(n):
        for (j, k), c in H.crows[t]:
            for b, a in pi.cols[k].items():
                sparse_add_into(eq.setdefault((j, b), {}), t, c * a)
        for b, u in B.unit.items():
            sparse_add_into(eq.setdefault((t, b), {}), t, -u)
    return kernel(eq.values(), n, H.conductor)


def all_product_powers(A):
    """[J, J^2, ..., 0] for J = J(A), each power spanned by every product
    a b of a basis vector a of the one before and b of J (no pair skipped)."""
    J = A.radical
    powers = [J]
    while powers[-1].dim:
        powers.append(Subspace.from_vectors(A.dim, A.conductor, (
            A.mul(a, b) for a in powers[-1].basis for b in J.basis)))
    return powers


def assert_coradical_matches_oracle(H):
    """The filtration dims equal those of the projection oracle, and each
    oracle H_k is (J(H*)^{k+1})^perp."""
    oracle = oracle_coradical_spaces(H)
    assert coradical_filtration(H).filtration_dims == \
        tuple(s.dim for s in oracle), H.label
    powers = all_product_powers(H.dual_cached())
    assert len(powers) == len(oracle), H.label
    for space, power in zip(oracle, powers):
        assert space == power.perp(), H.label


def oracle_centre(mult, M):
    n = mult.dims[0]
    rows = mult.rows_ij()

    def conditions():
        for j in range(n):  # e_j z - z e_j = 0, one block of rows per j
            eq: dict = {}
            for b in range(n):
                for k, c in rows[j][b]:
                    sparse_add_into(eq.setdefault(k, {}), b, c)
                for k, c in rows[b][j]:
                    sparse_add_into(eq.setdefault(k, {}), b, -c)
            yield from eq.values()
    return kernel(conditions(), n, M)


@pytest.fixture(scope="module")
def members(corpus3, double_taft):
    return [*corpus3.values(), double_taft]


def test_skew_primitives_match_row_oracle(members):
    pairs = 0
    for H in members:
        n, one = H.dim, H.unit
        for g in H.verified_grouplikes:
            for a, b in ((one, g), (g, one)):
                space, _ = skew_primitives(H, a, b)
                oracle = kernel(oracle_skew_primitive_rows(H, a, b), n, H.conductor)
                assert space == oracle, H.label
                assert space.pivots == oracle.pivots, H.label
                pairs += 1
    assert pairs > 2 * len(members)


def test_coinvariants_match_row_oracle():
    kz3 = group_algebra(cyclic(3), M)
    eps = HopfMorphism(kz3, trivial_hopf(M), [{0: kz3.counit[j]} for j in range(3)])
    H = standard_constructors("that", 3, 1)
    mat = [zero_vector(27, M) for _ in range(3)]
    for j, (a, c) in enumerate(H.monomials):
        if a == (0,):
            mat[c[0] % 3][j] = CycloNum.one(M)
    that_to_kz3 = HopfMorphism(H, kz3, sparse_columns(mat))
    dims = []
    for pi in (identity_morphism(kz3), eps, that_to_kz3):
        space = coinvariants(pi)
        assert space == oracle_coinvariants(pi)
        dims.append(space.dim)
    assert dims == [1, 3, 9]


def test_coradical_filtration_matches_row_oracle(members):
    for H in members:
        assert_coradical_matches_oracle(H)


@pytest.mark.slow
def test_coradical_filtration_matches_row_oracle_p5():
    for H in corpus(5, 1).values():
        assert_coradical_matches_oracle(H)


def test_centre_matches_row_oracle(members):
    for H in members:
        for mult in (H.mult, H.dual_cached().semisimple_quotient):
            assert center(mult, H.conductor) == oracle_centre(mult, H.conductor), H.label
