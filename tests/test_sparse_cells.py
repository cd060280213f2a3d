"""The sparse product kernels and the associativity sweep form a coefficient
product only where the structure cell it multiplies is nonempty, and treat
one-term cells as one term.

`tensor_mul`, `mult_vectors`, `apply_tensor_columns` and
`associativity_failure` are compared with the loops they replace, kept here
as a test-local oracle that multiplies first and looks at the cell after:
on the row views of the p = 3 corpus and its duals, on D(taft), on a
relabelled, rescaled D(taft) and on seeded random row tables with empty
cells and one-entry corruptions.  The dicts (insertion order included) and
the first failing (i, j, k) must be the same.  `associativity_failure`
compares one-term cells without dicts, so it is also compared on
corruptions that keep a one-term cell one-term (a changed coefficient, a
moved index), on the corpus, its duals and seeded tables whose every
nonempty cell has one term.  A work budget pins the field multiplications
of `verify_hopf` on D(taft) and its rescaled copy.

`hopf.dual` writes the transposed entries sorted by bucketing; the
dict-and-sort transposition it replaces is the oracle for its entries and
row views.  `SparseTensor3.from_rows` must give the tensor `from_dict`
gives, and keep the rows it was handed as its `rows_ij` view.
"""

import random
from fractions import Fraction

from hopfkit.cyclo import CycloNum
from hopfkit.hopf import ClaimSet, FinHopf, associativity_failure, dual, verify_hopf
from hopfkit.linalg import (SparseTensor3, apply_tensor_columns,
                            identity_columns, mult_vectors, sparse_add_into,
                            tensor_mul, transpose_columns)

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


def oracle_dual(H):
    """The dual by a dict of transposed cells, sorted afterwards."""
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


def one_term_corruptions(rows, rng, M):
    """rows with one seeded one-term cell c e_k kept one-term: once with c
    changed, once with k moved (None for a table with no one-term cell)."""
    n = len(rows)
    cells = [(i, j) for i in range(n) for j in range(n) if len(rows[i][j]) == 1]
    if not cells:
        return
    for kind in ("coefficient", "index"):
        i, j = rng.choice(cells)
        (k, c), = rows[i][j]
        if kind == "coefficient":
            d = c + CycloNum.one(M)
            new = ((k, d if not d.is_zero() else c + c),)
        elif n > 1:
            new = (((k + rng.randrange(1, n)) % n, c),)
        else:
            continue
        out = [list(r) for r in rows]
        out[i][j] = new
        yield tuple(tuple(r) for r in out)


def monomial_rows(rng, M):
    """The product of k[x]/(x^m) (x) k^sigma[Z/a], sigma(g, h) = zeta_a^(t g h),
    in a seeded basis x^s g scaled by rationals and permuted: associative,
    every nonempty cell has one term, and x^s x^r = 0 for s + r >= m leaves
    cells empty."""
    m, a, t = rng.randint(1, 3), rng.choice((1, 3, 9)), rng.randrange(9)
    n = m * a
    sigma = list(range(n))
    rng.shuffle(sigma)
    lam = [rand_coef(rng, M) for _ in range(n)]
    rows = [[() for _ in range(n)] for _ in range(n)]
    for s1 in range(m):
        for g in range(a):
            for s2 in range(m - s1):
                for h in range(a):
                    i, j, k = s1 * a + g, s2 * a + h, (s1 + s2) * a + (g + h) % a
                    c = (CycloNum.zeta(M, (t * g * h * (9 // a)) % 9 * (M // 9))
                         * lam[i] * lam[j] / lam[k])
                    rows[sigma[i]][sigma[j]] = ((sigma[k], c),)
    return tuple(tuple(r) for r in rows)


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


def test_one_term_corruptions_match_the_oracle(corpus3):
    # a corruption that keeps a one-term cell one-term is found by the
    # dict-free comparison, at the triple the oracle names (some keep the
    # table associative: c e_g for e_g e_g = e_g in k^G still is)
    failures = []
    for H in corpus3.values():
        for A in (H, H.dual_cached()):
            rows = A.mrows
            for bad in one_term_corruptions(rows, random.Random(A.label), A.conductor):
                fail = associativity_failure(bad)
                assert fail == oracle_associativity_failure(bad), A.label
                X = A.generators
                assert (associativity_failure(bad, X)
                        == oracle_associativity_failure(bad, X)), A.label
                failures.append(fail)
    assert len(failures) == 68 and failures.count(None) < 10
    assert len(set(failures)) > 20


def test_one_term_tables_match_the_oracle():
    M = 9
    failures = set()
    for seed in range(60):
        rng = random.Random(seed)
        rows = monomial_rows(rng, M)
        assert associativity_failure(rows) is None, seed
        assert oracle_associativity_failure(rows) is None, seed
        n = len(rows)
        left = sorted(rng.sample(range(n), rng.randint(1, n)))
        for bad in one_term_corruptions(rows, rng, M):
            for lft in (None, left):
                fail = associativity_failure(bad, lft)
                assert fail == oracle_associativity_failure(bad, lft), (seed, lft)
                failures.add(fail)
    assert None in failures and len(failures) > 10


def test_dual_matches_the_dict_and_sort_transposition(corpus3, double_taft):
    algebras = [A for H in corpus3.values() for A in (H, H.dual_cached())]
    algebras += [double_taft, relabel(double_taft, random.Random(2), True)]
    for H in algebras:
        D, O = dual(H), oracle_dual(H)
        for t, o in ((D.mult, O.mult), (D.comult, O.comult)):
            assert t.dims == o.dims and t.entries == o.entries, H.label
            assert t.rows_ij() == o.rows_ij(), H.label
            assert t.rows_i() == o.rows_i(), H.label
        assert (D.unit, D.counit, D.antipode) == (O.unit, O.counit, O.antipode)


def test_rows_constructor_round_trips(corpus3):
    tables = [A.mrows for H in corpus3.values() for A in (H, H.dual_cached())]
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        tables.append(rand_rows(rng, n, 9, rng.choice((0.0, 0.2, 0.5))))
    for rows in tables:
        n = len(rows)
        t = SparseTensor3.from_rows((n, n, n), rows)
        cells = {(i, j, k): c for i, row in enumerate(rows)
                 for j, cell in enumerate(row) for k, c in cell}
        assert t.entries == SparseTensor3.from_dict((n, n, n), cells).entries
        assert t.rows_ij() is rows
