"""Kernels of linear maps given as sparse columns (`intersect_kernels`)
against the row-form condition builders they replaced.

The oracles below are the earlier builders: each transposes its map into
condition rows by hand and takes the row-form `kernel`.  Skew-primitives
(pairs (1, g) and (g, 1) over the verified group-likes), the coradical
filtration and the centre are compared on the p = 3 corpus and D(taft),
the coinvariants on the projections of `test_hopf.py`; every `Subspace`
must be identical.
"""

import pytest

from dense_oracle import zero_vector
from hopfkit.constructors import group_algebra, standard_constructors
from hopfkit.cyclo import CycloNum
from hopfkit.groups import cyclic
from hopfkit.hopf import (HopfMorphism, coinvariants, identity_morphism,
                          trivial_hopf)
from hopfkit.invariants import coradical_spaces, skew_primitives
from hopfkit.linalg import (apply_tensor_columns, center, kernel,
                            sparse_add_into, sparse_columns)

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


def oracle_coradical_spaces(H):
    n, M = H.dim, H.conductor
    H0 = H.dual_cached().radical.perp()
    spaces = [H0]
    p0 = H0.projection_columns()
    while spaces[-1].dim < n:
        # H_{i+1} = ker (p0 (x) p_i) Delta, one row per (a, b)
        p1 = spaces[-1].projection_columns()
        eq: dict = {}
        for m in range(n):
            for ab, c in apply_tensor_columns(p0, p1, dict(H.crows[m])).items():
                sparse_add_into(eq.setdefault(ab, {}), m, c)
        spaces.append(kernel(eq.values(), n, M))
    return spaces


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
        assert coradical_spaces(H) == oracle_coradical_spaces(H), H.label


def test_centre_matches_row_oracle(members):
    for H in members:
        for mult in (H.mult, H.dual_cached().semisimple_quotient):
            assert center(mult, H.conductor) == oracle_centre(mult, H.conductor), H.label
