"""The sparse "maps -> kernel" path against the dense step-by-step
intersection of kernels it replaced, and the per-algebra memos."""

import random
import sys

from dense_oracle import (dense_kernel, dense_span, mat_vec, unit_vector,
                          vec_add, zero_vector)
from hopfkit import linalg
from hopfkit.constructors import taft_spec
from hopfkit.cyclo import CycloNum
from hopfkit.hopf import dual
from hopfkit.invariants import fingerprint, integrals
from hopfkit.linalg import (Subspace, center, intersect_kernels,
                            sparse_columns, sparse_to_dense)
from hopfkit.presentations import build_from_presentation

M = 9


def dense_intersect_kernels(matrices, n, M):
    """Oracle: restrict the kernel matrix by matrix, dense at every step.

    Returns the `Subspace` with the oracle's pivots and echelon rows."""
    basis = [tuple(unit_vector(n, M, i)) for i in range(n)]
    for A in matrices:
        if not basis:
            break
        imgs = [mat_vec(A, list(v)) for v in basis]
        rows = [[imgs[k][r] for k in range(len(basis))] for r in range(len(A))]
        small = dense_kernel(rows, len(basis), M)
        new_basis = []
        for coeffs in small.rows:
            acc = zero_vector(n, M)
            for c, v in zip(coeffs, basis):
                if not c.is_zero():
                    acc = vec_add(acc, [c * x for x in v])
            new_basis.append(tuple(acc))
        basis = new_basis
    pivots, rows = dense_span(n, M, basis).sparse_basis()
    return Subspace(n, M, rows, pivots)


def sparse_maps(matrices):
    return [sparse_columns(A) for A in matrices]


def _random_matrices(rng, n):
    zero = CycloNum.zero(M)
    mats = []
    for _ in range(rng.randint(0, 4)):
        A = [[zero] * n for _ in range(rng.randint(1, n + 1))]
        for row in A:
            for j in range(n):
                if rng.random() < 0.3:
                    row[j] = CycloNum.make(M, [rng.randint(-2, 2) for _ in range(6)],
                                           rng.randint(1, 3))
        mats.append(A)
    return mats


def test_random_sparse_systems_match_dense_oracle():
    rng = random.Random(20260301)
    full = set()
    for _ in range(60):
        n = rng.randint(1, 8)
        mats = _random_matrices(rng, n)
        new = intersect_kernels(sparse_maps(mats), n, M)
        old = dense_intersect_kernels(mats, n, M)
        assert new == old
        assert new.basis == old.basis and new.pivots == old.pivots
        full.add(new.dim == n)
    assert full == {True, False}


def test_empty_and_full_kernels():
    one, zero = CycloNum.one(M), CycloNum.zero(M)
    for n in (1, 4, 7):
        assert intersect_kernels([], n, M) == Subspace.full(n, M)
        assert intersect_kernels([[{}] * n, [{}] * n], n, M) == Subspace.full(n, M)
        ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
        assert intersect_kernels(sparse_maps([ident]), n, M) == Subspace.zero(n, M)
        assert dense_intersect_kernels([ident], n, M) == Subspace.zero(n, M)


def test_streamed_rows_are_consumed_once():
    one = CycloNum.one(M)
    seen = []

    def gen():  # the maps x -> x_i - x_{i+1}, as columns on k^5
        for i in range(3):
            seen.append(i)
            cols = [{} for _ in range(5)]
            cols[i], cols[i + 1] = {0: one}, {0: -one}
            yield cols
    K = intersect_kernels(gen(), 5, M)
    assert seen == [0, 1, 2]
    assert K.dim == 2


def _mult_matrices(A, left):
    """x -> e_i x (left) or x -> x e_i as dense n x n matrices, one per i."""
    n, Mc = A.dim, A.conductor
    mats = []
    for i in range(n):
        X = [[CycloNum.zero(Mc)] * n for _ in range(n)]
        for b in range(n):
            for k, c in (A.mrows[i][b] if left else A.mrows[b][i]):
                X[k][b] = c
        mats.append(X)
    return mats


def _minus_counit(A, mats):
    eps = sparse_to_dense(A.counit, A.dim, A.conductor)
    out = []
    for i, X in enumerate(mats):
        X = [list(r) for r in X]
        for d in range(A.dim):
            X[d][d] = X[d][d] - eps[i]
        out.append(X)
    return out


def test_integrals_and_centre_match_dense_oracle(corpus3):
    for label, H in corpus3.items():
        n, Mc = H.dim, H.conductor
        L = _mult_matrices(H, True)
        left = dense_intersect_kernels(_minus_counit(H, L), n, Mc)
        D = H.dual_cached()
        right = dense_intersect_kernels(_minus_counit(D, _mult_matrices(D, False)), n, Mc)
        assert left.dim == 1 and right.dim == 1, label
        integ = integrals(H)
        assert integ.left_integral == left.basis[0], label
        right0, left0 = (sparse_to_dense(v, n, Mc) for v in (right.basis[0], left.basis[0]))
        pairing = sum((a * b for a, b in zip(right0, left0)), CycloNum.zero(Mc))
        inv = pairing.inverse()
        assert sparse_to_dense(integ.right_integral_dual, n, Mc) == [
            inv * a for a in right0], label
        R = _mult_matrices(H, False)
        comm = [[[L[j][a][b] - R[j][a][b] for b in range(n)] for a in range(n)]
                for j in range(n)]
        centre = dense_intersect_kernels(comm, n, Mc)
        assert intersect_kernels(sparse_maps(comm), n, Mc) == centre, label
        assert center(H.mult, Mc) == centre, label


def test_double_dual_is_the_algebra(corpus3):
    for label, H in corpus3.items():
        assert H.dual_cached().dual_cached() is H, label
        HH = dual(dual(H))
        assert HH.mult == H.mult, label
        assert HH.comult == H.comult, label
        assert HH.antipode == H.antipode, label
        assert HH.unit == H.unit and HH.counit == H.counit, label


def test_fingerprint_computes_each_radical_once(monkeypatch):
    orig = linalg.algebra_radical
    seen = []

    def counting(mult, M):
        seen.append(mult)
        return orig(mult, M)
    for name, mod in list(sys.modules.items()):
        if name == "hopfkit" or name.startswith("hopfkit."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counting)
    H = build_from_presentation(taft_spec(3, 1, 9))  # fresh: nothing cached
    fingerprint(H)
    # one radical each for H and H*, and never twice for the same algebra
    assert len(seen) <= 2
    assert len({id(m) for m in seen}) == len(seen)
    assert {id(m) for m in seen} <= {id(H.mult), id(H.dual_cached().mult)}
    fingerprint(H)
    assert len(seen) <= 2
