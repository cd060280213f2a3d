"""The sparse product kernels and the associativity sweep form a coefficient
product only where the structure cell it multiplies is nonempty.

`tensor_mul`, `mult_vectors`, `apply_tensor_columns` and
`associativity_failure` are compared with the loops they replace, kept here
as a test-local oracle that multiplies first and looks at the cell after:
on the row views of the p = 3 corpus and its duals, on D(taft), on a
relabelled, rescaled D(taft) and on seeded random row tables with empty
cells and one-entry corruptions.  The dicts (insertion order included) and
the first failing (i, j, k) must be the same.  A work budget pins the field
multiplications of `verify_hopf` on D(taft) and its rescaled copy.
"""

import random
from fractions import Fraction

from hopfkit.cyclo import CycloNum
from hopfkit.hopf import associativity_failure, verify_hopf
from hopfkit.linalg import (apply_tensor_columns, identity_columns,
                            mult_vectors, sparse_add_into, tensor_mul)

from test_generator_certificate import fresh, relabel


# -- the oracle: the loops that multiply before they look at the cell ----------

def oracle_mult_vectors(rows, u, v):
    acc = {}
    for i, ci in u.items():
        if ci.is_zero():
            continue
        ri = rows[i]
        for j, cj in v.items():
            if cj.is_zero():
                continue
            c = ci * cj
            for k, ck in ri[j]:
                sparse_add_into(acc, k, c * ck)
    return acc


def oracle_tensor_mul(rows, X, Y):
    out = {}
    for (a, b), c in X.items():
        ra = rows[a]
        rb = rows[b]
        for (al, be), d in Y.items():
            cd = c * d
            for k1, c1 in ra[al]:
                cc = cd * c1
                for k2, c2 in rb[be]:
                    sparse_add_into(out, (k1, k2), cc * c2)
    return out


def oracle_apply_tensor_columns(A, B, X):
    out = {}
    for (j, k), c in X.items():
        for a, ca in A[j].items():
            cca = c * ca
            for b, cb in B[k].items():
                sparse_add_into(out, (a, b), cca * cb)
    return out


def oracle_associativity_failure(mrows, left=None):
    n = len(mrows)
    for i in range(n) if left is None else left:
        ri = mrows[i]
        for j in range(n):
            v = ri[j]
            rj = mrows[j]
            for k in range(n):
                lhs = {}
                for m, c in v:
                    for l, d in mrows[m][k]:
                        sparse_add_into(lhs, l, c * d)
                rhs = {}
                for m, c in rj[k]:
                    for l, d in ri[m]:
                        sparse_add_into(rhs, l, c * d)
                if lhs != rhs:
                    return (i, j, k)
    return None


def same(a, b):
    """Equal dicts with the same insertion order."""
    return a == b and list(a) == list(b)


# -- seeded inputs ---------------------------------------------------------------

def rand_coef(rng, M):
    return CycloNum.from_rational(M, Fraction(rng.choice((-3, -2, -1, 1, 2, 5)),
                                              rng.randint(1, 4)))


def rand_vector(rng, n, M, size):
    return {i: rand_coef(rng, M) for i in rng.sample(range(n), min(size, n))}


def rand_tensor(rng, n, M, size):
    return {(rng.randrange(n), rng.randrange(n)): rand_coef(rng, M)
            for _ in range(size)}


def rand_rows(rng, n, M, density):
    """An n x n table of cells ((k, c), ...), most of them empty."""
    def cell():
        ks = sorted(rng.sample(range(n), rng.randint(1, min(2, n))))
        return tuple((k, rand_coef(rng, M)) for k in ks)
    return tuple(tuple(cell() if rng.random() < density else () for _ in range(n))
                 for _ in range(n))


def corrupt_rows(rows, rng, M):
    """rows with one seeded cell entry added, changed or removed."""
    n = len(rows)
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    cell = dict(rows[i][j])
    c = cell.get(k, CycloNum.zero(M)) + CycloNum.one(M)
    if c.is_zero():
        del cell[k]
    else:
        cell[k] = c
    out = [list(r) for r in rows]
    out[i][j] = tuple(sorted(cell.items()))
    return tuple(tuple(r) for r in out)


def check_products(H, rng):
    """Every kernel against its oracle on basis, coproduct and random inputs."""
    n, M, rows = H.dim, H.conductor, H.mrows
    one = CycloNum.one(M)
    deltas = [dict(H.crows[i]) for i in range(n)]
    vectors = ([{i: one} for i in range(n)] + [H.unit]
               + [rand_vector(rng, n, M, s) for s in (2, 5, n)])
    for u in vectors[::7] + vectors[n:]:
        for v in vectors:
            assert same(mult_vectors(rows, u, v), oracle_mult_vectors(rows, u, v)), H.label
    tensors = deltas + [rand_tensor(rng, n, M, s) for s in (3, 12)]
    for X in [deltas[x] for x in H.generators] + tensors[n:]:
        for Y in tensors[::3] + tensors[n:]:
            assert same(tensor_mul(rows, X, Y), oracle_tensor_mul(rows, X, Y)), H.label
    ident = identity_columns(n, M)
    # a projection onto the first few coordinates has empty columns
    proj = [{i: one} if i < 3 else {} for i in range(n)]
    for A, B in ((H.antipode, ident), (ident, H.antipode), (H.antipode, H.antipode),
                 (proj, H.antipode), (H.antipode, proj)):
        for X in tensors:
            assert same(apply_tensor_columns(A, B, X),
                        oracle_apply_tensor_columns(A, B, X)), H.label


def test_products_match_the_oracle_on_the_corpus(corpus3):
    rng = random.Random(1)
    for H in corpus3.values():
        for A in (H, H.dual_cached()):
            check_products(A, rng)
            rows = A.mrows
            assert associativity_failure(rows) is None, A.label
            assert oracle_associativity_failure(rows) is None, A.label
            for seed in range(2):
                bad = corrupt_rows(rows, random.Random(seed), A.conductor)
                assert (associativity_failure(bad)
                        == oracle_associativity_failure(bad)), (A.label, seed)


def test_products_match_the_oracle_on_the_double(double_taft):
    for H in (double_taft, relabel(double_taft, random.Random(2), True)):
        check_products(H, random.Random(3))
        rows, X = H.mrows, H.generators
        assert associativity_failure(rows, X) is None, H.label
        assert oracle_associativity_failure(rows, X) is None, H.label
        for seed in range(3):
            bad = corrupt_rows(rows, random.Random(seed), H.conductor)
            assert (associativity_failure(bad, X)
                    == oracle_associativity_failure(bad, X)), (H.label, seed)
    # one full sweep, on the rescaled copy
    assert associativity_failure(rows) is None
    bad = corrupt_rows(rows, random.Random(7), H.conductor)
    assert associativity_failure(bad) == oracle_associativity_failure(bad)


def test_random_tables_match_the_oracle():
    M = 9
    failures = set()
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        rows = rand_rows(rng, n, M, rng.choice((0.05, 0.2, 0.5)))
        left = sorted(rng.sample(range(n), rng.randint(1, n)))
        for t in (rows, corrupt_rows(rows, rng, M)):
            for lft in (None, left):
                fail = associativity_failure(t, lft)
                assert fail == oracle_associativity_failure(t, lft), (seed, lft)
                failures.add(fail)
            for _ in range(4):
                u, v = (rand_vector(rng, n, M, rng.randint(0, n)) for _ in range(2))
                assert same(mult_vectors(t, u, v), oracle_mult_vectors(t, u, v)), seed
                X, Y = (rand_tensor(rng, n, M, rng.randint(0, 2 * n)) for _ in range(2))
                assert same(tensor_mul(t, X, Y), oracle_tensor_mul(t, X, Y)), seed
                A, B = ([rand_vector(rng, n, M, rng.choice((0, 0, 1, 2))) for _ in range(n)]
                        for _ in range(2))
                assert same(apply_tensor_columns(A, B, X),
                            oracle_apply_tensor_columns(A, B, X)), seed
    # the tables exercise both outcomes, and failures past the first triple
    assert None in failures and len(failures) > 10


def test_verify_work_budget(double_taft, monkeypatch):
    # D(taft) and a rescaled relabelling: Delta multiplicativity's tensor
    # products on 9-11 left factors dominate.  Multiplying each pair of
    # coproduct terms before looking at its cells took about 199k field
    # multiplications on each.  The count includes the closure for X(H*),
    # built inside verify_hopf: 59,881 on D(taft) and 55,827 on the
    # relabelling; the bound is 5 % above the larger.
    algebras = [fresh(double_taft), relabel(double_taft, random.Random(2), True)]
    for H in algebras:
        H.generators
    # count CycloNum multiplications, as the benchmark's cyclo mode does
    n = [0]
    orig = CycloNum.__mul__

    def mul(a, b):
        n[0] += 1
        return orig(a, b)
    monkeypatch.setattr(CycloNum, "__mul__", mul)

    for H in algebras:
        n[0] = 0
        assert verify_hopf(H).ok, H.label
        assert n[0] <= 62_875, (H.label, n[0])
