import random

import pytest

from dense_oracle import (dense_rows, identity_matrix, mat_eq, mat_vec,
                          sparse_rows, transpose, vec_add, vec_is_zero, vec_sub)
from hopfkit.cyclo import CycloNum
from hopfkit.errors import AmbientMismatch
from hopfkit.linalg import (SparseTensor3, Subspace, algebra_radical,
                            center, commutative_quotient_dim,
                            dense_to_sparse, image, kernel,
                            mat_inverse, mat_mul, mult_vectors,
                            quotient_by_radical, quotient_mult, sparse_columns,
                            sparse_to_dense)

M = 9


def dense(v, n):
    return sparse_to_dense(v, n, M)


def preimage(A, n_cols, W):
    """{x : A x in W}: the kernel of (W-perp basis) . A."""
    rows = [mat_vec(transpose(A), dense(w, len(A))) for w in W.perp().basis]
    return kernel(sparse_rows(rows), n_cols, M)


def solve(A, b):
    """One solution x of A x = b, or None: a kernel vector of (A | -b) whose
    last coordinate is nonzero, scaled to make it 1."""
    n = len(A[0])
    aug = [row + [-c] for row, c in zip(A, b)]
    for v in kernel(sparse_rows(aug), n + 1, M).basis:
        if n in v:
            inv = v[n].inverse()
            return [inv * c for c in dense(v, n + 1)[:n]]
    return None


def intersect(U, V):
    return U.perp().sum(V.perp()).perp()


def split_character_count(mult, M):
    """dim of the largest commutative quotient of A/Rad A."""
    rad = algebra_radical(mult, M)
    return commutative_quotient_dim(quotient_by_radical(mult, rad), M)


def rnum(rng):
    return CycloNum.from_rational(M, rng.randint(-3, 3))


def rmat(rng, m, n):
    return [[rnum(rng) for _ in range(n)] for _ in range(m)]


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(30):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = rmat(rng, m, n)
        K = kernel(sparse_rows(A), n, M)
        I = image(sparse_columns(A), m, M)
        assert K.dim + I.dim == n
        for v in K.basis:
            assert vec_is_zero(mat_vec(A, dense(v, n)))


def test_kernel_degenerate_cases():
    assert kernel(sparse_rows(identity_matrix(5, M)), 5, M).dim == 0
    Z = [[CycloNum.zero(M)] * 5 for _ in range(5)]
    assert kernel(sparse_rows(Z), 5, M) == Subspace.full(5, M)


def test_preimage_of_zero_is_kernel():
    rng = random.Random(3)
    for _ in range(10):
        A = rmat(rng, 4, 6)
        assert preimage(A, 6, Subspace.zero(4, M)) == kernel(sparse_rows(A), 6, M)


def test_preimage_general():
    rng = random.Random(4)
    A = rmat(rng, 5, 5)
    W = Subspace.from_vectors(5, M, sparse_rows([rmat(rng, 1, 5)[0] for _ in range(2)]))
    P = preimage(A, 5, W)
    for v in P.basis:
        assert W.contains(dense_to_sparse(mat_vec(A, dense(v, 5))))


def test_subspace_ops():
    rng = random.Random(9)
    # rational coordinates: the coordinate pairing is anisotropic over Q
    MQ = 3
    for _ in range(25):
        n = rng.randint(2, 6)
        vs = [[CycloNum.from_rational(MQ, rng.randint(-3, 3)) for _ in range(n)]
              for _ in range(rng.randint(1, n))]
        U = Subspace.from_vectors(n, MQ, sparse_rows(vs))
        assert U.sum(Subspace.zero(n, MQ)) == U
        assert intersect(U, U.perp()).dim == 0
        assert U.perp().dim == n - U.dim
        assert U.perp().perp() == U
    assert Subspace.full(4, M).perp() == Subspace.zero(4, M)
    with pytest.raises(AmbientMismatch):
        Subspace.zero(3, M).sum(Subspace.zero(4, M))


def test_canonical_echelon_representation():
    v1 = [CycloNum.from_rational(M, x) for x in (1, 2, 3)]
    v2 = [CycloNum.from_rational(M, x) for x in (0, 1, 1)]
    S1 = Subspace.from_vectors(3, M, sparse_rows([v1, v2]))
    S2 = Subspace.from_vectors(3, M, sparse_rows([vec_add(v1, v2), vec_sub(v1, v2)]))
    assert S1 == S2
    assert S1.basis == S2.basis


def test_solve_and_inverse():
    rng = random.Random(17)
    for _ in range(10):
        A = rmat(rng, 4, 4)
        x = [rnum(rng) for _ in range(4)]
        b = mat_vec(A, x)
        x2 = solve(A, b)
        assert x2 is not None
        assert mat_vec(A, x2) == b
        inv = mat_inverse(sparse_columns(A), M)
        if inv is not None:
            assert mat_eq(mat_mul(A, dense_rows(inv, 4, M)), identity_matrix(4, M))


def _upper_triangular_fixture():
    # basis e11, e12, e22 of upper-triangular 2x2 matrices
    one = CycloNum.one(M)
    d = {(0, 0, 0): one, (0, 1, 1): one, (1, 2, 1): one, (2, 2, 2): one}
    return SparseTensor3.from_dict((3, 3, 3), d)


def _block_count(mult, M):
    """Wedderburn blocks of A/Rad A: the centre dimension of that quotient."""
    return center(quotient_by_radical(mult, algebra_radical(mult, M)), M).dim


def _group_algebra_z3():
    one = CycloNum.one(3)
    d = {(i, j, (i + j) % 3): one for i in range(3) for j in range(3)}
    return SparseTensor3.from_dict((3, 3, 3), d)


def test_radical_upper_triangular():
    mult = _upper_triangular_fixture()
    rad = algebra_radical(mult, M)
    assert rad.dim == 1
    assert rad.contains({1: CycloNum.one(M)})


def test_radical_group_algebra_semisimple():
    mult = _group_algebra_z3()
    assert algebra_radical(mult, 3).dim == 0
    assert split_character_count(mult, 3) == 3
    assert _block_count(mult, 3) == 3


def test_radical_is_nilpotent_ideal_and_quotient_semisimple():
    # radical output: two-sided ideal, nilpotent left-multiplications,
    # semisimple quotient (its own radical vanishes)
    mult = _upper_triangular_fixture()
    rad = algebra_radical(mult, M)
    rows = mult.rows_ij()
    one = CycloNum.one(M)
    for sv in rad.basis:
        for j in range(3):
            assert rad.contains(mult_vectors(rows, sv, {j: one}))
            assert rad.contains(mult_vectors(rows, {j: one}, sv))
        # matrix of x -> v x: column j is v e_j
        L = transpose([dense(mult_vectors(rows, sv, {j: one}), 3) for j in range(3)])
        P = L
        for _ in range(3):
            P = mat_mul(P, L)
        assert all(c.is_zero() for row in P for c in row)
    proj = rad.projection_columns()
    qmult = quotient_mult(rows, rad, proj)
    assert algebra_radical(qmult, M).dim == 0


def test_matrix_algebra_blocks():
    # full 2x2 matrix algebra: no characters, one block
    one = CycloNum.one(3)
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    d = {}
    for (a, b), i in idx.items():
        for (c, e), j in idx.items():
            if b == c:
                d[(i, j, idx[(a, e)])] = one
    mult = SparseTensor3.from_dict((4, 4, 4), d)
    assert algebra_radical(mult, 3).dim == 0
    assert split_character_count(mult, 3) == 0
    assert _block_count(mult, 3) == 1


def test_perp_of_sum_is_intersection_of_perps():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(2, 6)
        def sub():
            vs = [[CycloNum.from_rational(M, rng.randint(-2, 2)) for _ in range(n)]
                  for _ in range(rng.randint(1, n))]
            return Subspace.from_vectors(n, M, sparse_rows(vs))
        U, V = sub(), sub()
        assert U.sum(V).perp() == intersect(U.perp(), V.perp())
