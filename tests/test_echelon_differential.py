"""The sparse echelon basis against the dense one it replaced.

Every `Subspace` operation is compared exactly (pivots and every basis
entry) with `dense_oracle` on seeded inputs over Q and Q(zeta_9): dense,
sparse, rank-deficient and zero-row matrices, plus a hypothesis strategy.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (dense_inverse, dense_kernel, dense_rows, dense_span,
                          mat_eq, sparse_rows)
from hopfkit.cyclo import CycloNum
from hopfkit.linalg import (Subspace, compose_columns, dense_to_sparse,
                            identity_columns, kernel, mat_inverse,
                            sparse_columns)

FIELDS = (1, 9)  # Q and Q(zeta_9)


def rnum(rng, M, density):
    if rng.random() >= density:
        return CycloNum.zero(M)
    if M == 1:
        return CycloNum.from_rational(M, rng.randint(-4, 4))
    return CycloNum.make(M, [rng.randint(-2, 2) for _ in range(6)], rng.randint(1, 3))


def random_matrix(rng, M, kind):
    m, n = rng.randint(0, 7), rng.randint(1, 8)
    density = {"dense": 1.0, "sparse": 0.25}.get(kind, 0.6)
    if kind == "deficient" and m:
        # rows in the span of a few seed rows, so the rank is below min(m, n)
        seeds = [[rnum(rng, M, density) for _ in range(n)]
                 for _ in range(rng.randint(1, max(1, min(m, n) - 1)))]
        rows = []
        for _ in range(m):
            row = [CycloNum.zero(M)] * n
            for s in seeds:
                c = CycloNum.from_rational(M, rng.randint(-2, 2))
                row = [x + c * y for x, y in zip(row, s)]
            rows.append(row)
        return rows, n
    rows = [[rnum(rng, M, density) for _ in range(n)] for _ in range(m)]
    if kind == "zero-rows":
        for row in rows[::2]:
            row[:] = [CycloNum.zero(M)] * n
    return rows, n


def assert_same(space, oracle):
    assert (space.pivots, space.basis) == oracle.sparse_basis()


def check_all_operations(M, A, n, B, rng):
    """Compare every operation on the rows of A and of B (cut or padded to
    length n), and on random probe vectors, with the dense oracle."""
    U = Subspace.from_vectors(n, M, sparse_rows(A))
    dU = dense_span(n, M, A)
    assert_same(U, dU)
    assert_same(kernel(sparse_rows(A), n, M), dense_kernel(A, n, M))
    assert_same(U.perp(), dense_kernel(dU.rows, n, M))
    assert U.projection_columns() == dU.projection_columns()
    W = [(row + [CycloNum.zero(M)] * n)[:n] for row in B]
    V = Subspace.from_vectors(n, M, sparse_rows(W))
    dsum = dU.copy()
    for v in dense_span(n, M, W).rows:
        dsum.insert(v)
    assert_same(U.sum(V), dsum)
    probes = W + [[rnum(rng, M, 0.5) for _ in range(n)] for _ in range(3)]
    probes += dU.rows[:2]
    for v in probes:
        assert U.reduce(dense_to_sparse(v)) == dense_to_sparse(dU.reduce(v))
        assert U.contains(dense_to_sparse(v)) == dU.contains(v)
    assert U.contains_subspace(V) == all(dU.contains(v) for v in W)
    assert len(U.basis) == U.dim == len(dU)


def test_seeded_matrices_match_dense_oracle():
    rng = random.Random(20261018)
    for M in FIELDS:
        deficient = 0
        for kind in ("dense", "sparse", "deficient", "zero-rows"):
            for _ in range(12):
                (A, n), (B, _) = random_matrix(rng, M, kind), random_matrix(rng, M, kind)
                check_all_operations(M, A, n, B, rng)
                deficient += len(dense_span(n, M, A)) < min(len(A), n)
        assert deficient >= 12, M


def test_inputs_with_explicit_zeros_are_reduced_like_zero_free_ones():
    M, one, zero = 9, CycloNum.one(9), CycloNum.zero(9)
    U = Subspace.from_vectors(4, M, [{0: one, 1: zero, 2: one}, {3: zero}])
    assert U.basis == ({0: one, 2: one},) and U.pivots == (0,)
    assert U.contains({0: -one, 2: -one, 3: zero})
    assert U.reduce({0: one, 1: zero, 3: one}) == {2: -one, 3: one}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_hypothesis_matrices_match_dense_oracle(data):
    M = data.draw(st.sampled_from(FIELDS))
    m = data.draw(st.integers(0, 5))
    n = data.draw(st.integers(1, 6))
    values = [CycloNum.from_rational(M, k) for k in (-2, -1, 0, 0, 0, 1, 3)]
    if M == 9:
        values.append(CycloNum.zeta(M, 1) + CycloNum.from_rational(M, 1))
    entry = st.sampled_from(values)
    A = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=m, max_size=m))
    B = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    check_all_operations(M, A, n, B, random.Random(m * 31 + n))


def test_mat_inverse_matches_dense_oracle():
    rng = random.Random(7)
    singular = 0
    for M in FIELDS:
        for _ in range(20):
            n = rng.randint(1, 6)
            A = [[rnum(rng, M, 0.5) for _ in range(n)] for _ in range(n)]
            inv = mat_inverse(sparse_columns(A), M)
            want = dense_inverse(A, M)
            if want is None:
                singular += 1
                assert inv is None
            else:
                assert mat_eq(dense_rows(inv, n, M), want)
                assert all(0 <= i < n for col in inv for i in col)
    assert singular


def test_mat_inverse_inverts_the_corpus_antipodes(corpus3):
    for label, H in corpus3.items():
        n, M = H.dim, H.conductor
        inv = mat_inverse(H.antipode, M)
        ident = identity_columns(n, M)
        assert compose_columns(H.antipode, inv) == ident, label
        assert compose_columns(inv, H.antipode) == ident, label
