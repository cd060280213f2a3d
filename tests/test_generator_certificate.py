"""verify_hopf, the integrals, QT.1, is_central and the algebra-map check of
verify_morphism checked on a generating set X, against the sweeps over all
basis pairs and triples that they replace.

Each report entry (name, verdict, first failing index) must be the one the
full sweeps give: on the p = 3 corpus, on D(taft), on seeded relabelled and
rescaled copies of D(taft), on seeded one-entry corruptions of every
structure map of taft, u_q(sl2) and D(taft), and on unit corruptions of
D(taft) and its relabelled and rescaled copies, where associativity is
checked on X and the support of the claimed unit instead of in full.
"""

import random
import sys
from fractions import Fraction

from hopfkit import hopf
from hopfkit.constructors import resolve_fixture_target, standard_constructors
from hopfkit.cyclo import CycloNum
from hopfkit.hopf import FinHopf, HopfMorphism, op_cop, verify_hopf, verify_morphism
from hopfkit.invariants import _integral_maps, integrals
from hopfkit.linalg import (EchelonBasis, SparseTensor3, intersect_kernels,
                            kernel, mult_vectors, outer, sparse_add_into,
                            sparse_to_dense)
from hopfkit.quasitriangular import _tensor_swap, f_matrices, verify_qt

PARTS = ("mult", "comult", "unit", "counit", "antipode")


def oracle_verify(H):
    """The full sweeps: every axiom on every basis pair and triple."""
    n, M = H.dim, H.conductor
    mrows, crows = H.mrows, H.crows
    one = CycloNum.one(M)
    eps = sparse_to_dense(H.counit, n, M)
    checks = []

    def assoc():
        for i in range(n):
            ri = mrows[i]
            for j in range(n):
                v = ri[j]
                rj = mrows[j]
                for k in range(n):
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

    fail = assoc()
    checks.append(("associativity", fail is None, fail))

    fail = None
    su = H.unit
    for j in range(n):
        ej = {j: one}
        if H.mul(su, ej) != ej or H.mul(ej, su) != ej:
            fail = (j,)
            break
    checks.append(("unit", fail is None, fail))

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
    checks.append(("coassociativity", fail is None, fail))

    fail = None
    for i in range(n):
        left: dict = {}
        right: dict = {}
        for (j, k), c in crows[i]:
            if not eps[j].is_zero():
                sparse_add_into(left, k, c * eps[j])
            if not eps[k].is_zero():
                sparse_add_into(right, j, c * eps[k])
        ei = {i: one}
        if left != ei or right != ei:
            fail = (i,)
            break
    checks.append(("counit", fail is None, fail))

    fail = None
    if H.comult_of(su) != outer(su, su):
        fail = ("unit",)
    else:
        for i in range(n):
            di = crows[i]
            for j in range(n):
                lhs: dict = {}
                for k, c in mrows[i][j]:
                    for (a, b), d in crows[k]:
                        sparse_add_into(lhs, (a, b), c * d)
                rhs: dict = {}
                dj = crows[j]
                for (a, b), c in di:
                    ra = mrows[a]
                    rb = mrows[b]
                    for (al, be), d in dj:
                        cell_a, cell_b = ra[al], rb[be]
                        if not (cell_a and cell_b):
                            continue
                        cd = c * d
                        for k1, c1 in cell_a:
                            cc = cd * c1
                            for k2, c2 in cell_b:
                                sparse_add_into(rhs, (k1, k2), cc * c2)
                if lhs != rhs:
                    fail = (i, j)
                    break
            if fail:
                break
    checks.append(("comult_algebra_map", fail is None, fail))

    fail = None
    if not H.counit_of(su).is_one():
        fail = ("unit",)
    else:
        for i in range(n):
            ei_eps = eps[i]
            for j in range(n):
                acc = CycloNum.zero(M)
                for k, c in mrows[i][j]:
                    if not eps[k].is_zero():
                        acc = acc + c * eps[k]
                if acc != ei_eps * eps[j]:
                    fail = (i, j)
                    break
            if fail:
                break
    checks.append(("counit_algebra_map", fail is None, fail))

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
        target = {a: eps[i] * cu for a, cu in su.items()} if not eps[i].is_zero() else {}
        target = {a: v for a, v in target.items() if not v.is_zero()}
        if fail_l is None and left != target:
            fail_l = (i,)
        if fail_r is None and right != target:
            fail_r = (i,)
        if fail_l is not None and fail_r is not None:
            break
    checks.append(("antipode_left", fail_l is None, fail_l))
    checks.append(("antipode_right", fail_r is None, fail_r))
    return checks


def report(H):
    return [(c.name, c.ok, c.first_failure) for c in verify_hopf(H).checks]


def fresh(H):
    """H with empty memos, so that verify_hopf finds its own generators."""
    return FinHopf(H.dim, H.conductor, H.mult, H.unit, H.comult, H.counit,
                   H.antipode, label=H.label)


def relabel(H, rng, rescale):
    """H in the basis e'_{sigma(i)} = lam_i e_i, sigma a seeded permutation."""
    n, M = H.dim, H.conductor
    sigma = list(range(n))
    rng.shuffle(sigma)
    lam = [Fraction((-1) ** i * (1 + i % 7), 1 + (i // 7) % 7) if rescale
           else Fraction(1) for i in range(n)]

    def q(x):
        return CycloNum.from_rational(M, x)

    mult = {(sigma[i], sigma[j], sigma[k]): c * q(lam[i] * lam[j] / lam[k])
            for (i, j, k), c in H.mult.entries}
    comult = {(sigma[i], sigma[j], sigma[k]): c * q(lam[i] / (lam[j] * lam[k]))
              for (i, j, k), c in H.comult.entries}
    unit = {sigma[i]: c * q(1 / lam[i]) for i, c in H.unit.items()}
    counit = {sigma[i]: c * q(lam[i]) for i, c in H.counit.items()}
    S = [None] * n
    for j, col in enumerate(H.antipode):
        S[sigma[j]] = {sigma[a]: c * q(lam[j] / lam[a]) for a, c in col.items()}
    return FinHopf(n, M, SparseTensor3.from_dict((n, n, n), mult), unit,
                   SparseTensor3.from_dict((n, n, n), comult), counit, S,
                   label=f"{H.label}:relabelled")


def corrupt(H, part, rng):
    """H with one seeded entry of one structure map increased by 1."""
    n, M = H.dim, H.conductor
    one = CycloNum.one(M)
    mult, comult = H.mult, H.comult
    unit, counit = dict(H.unit), dict(H.counit)
    S = [dict(col) for col in H.antipode]
    if part in ("mult", "comult"):
        t = dict((mult if part == "mult" else comult).entries)
        key = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        t[key] = t.get(key, CycloNum.zero(M)) + one
        t = SparseTensor3.from_dict((n, n, n), t)
        if part == "mult":
            mult = t
        else:
            comult = t
    elif part in ("unit", "counit"):
        v = unit if part == "unit" else counit
        i = rng.randrange(n)
        v[i] = v.get(i, CycloNum.zero(M)) + one
    else:
        i, j = rng.randrange(n), rng.randrange(n)
        S[j][i] = S[j].get(i, CycloNum.zero(M)) + one
    return FinHopf(n, M, mult, unit, comult, counit, S, label=f"{H.label}:{part}")


def test_corpus_reports_match_the_full_sweeps(corpus3):
    assert len(corpus3) == 17
    for label, H in corpus3.items():
        H0 = fresh(H)
        assert report(H0) == oracle_verify(H0), label


def test_double_and_its_relabellings_match_the_full_sweeps(double_taft):
    D = fresh(double_taft)
    assert report(D) == oracle_verify(D)
    for seed, rescale in ((1, False), (2, True)):
        R = relabel(double_taft, random.Random(seed), rescale)
        rep = report(R)
        assert all(ok for _, ok, _ in rep), (seed, rep)
        assert rep == oracle_verify(R)


def test_corruptions_match_the_full_sweeps(taft3, uq3, double_taft):
    # relabelled copies put the generators away from the low indices, where
    # the first failure on X and the first failure overall can differ
    bases = ((taft3, range(4)), (uq3, range(2)), (double_taft, range(1)),
             (relabel(taft3, random.Random(3), True), range(4)),
             (relabel(uq3, random.Random(4), True), range(2)))
    for H, seeds in bases:
        for part in PARTS:
            for seed in seeds:
                Hc = corrupt(H, part, random.Random(seed))
                rep = report(Hc)
                assert rep == oracle_verify(Hc), (H.label, part, seed)
                assert not all(ok for _, ok, _ in rep), (H.label, part, seed)


def test_unit_corruptions_keep_the_generator_certificate(double_taft, monkeypatch):
    # With the unit law failing, associativity is still checked with its left
    # factor in X and supp(u), u the claimed unit, never swept in full
    orig = hopf.associativity_failure
    calls = []

    def recording(mrows, left=None, masks=None):
        calls.append(left)
        return orig(mrows, left, masks)
    for mod in list(sys.modules.values()):
        if mod.__name__ == "hopfkit" or mod.__name__.startswith("hopfkit."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, recording)
    bases = (double_taft, relabel(double_taft, random.Random(11), False),
             relabel(double_taft, random.Random(12), True))
    for H in bases:
        for seed in range(3):
            Hc = corrupt(H, "unit", random.Random(seed))
            calls.clear()
            rep = report(Hc)
            assert rep == oracle_verify(Hc), (H.label, seed)
            assert rep[1][:2] == ("unit", False), (H.label, seed)
            assert calls and None not in calls, (H.label, seed)


def oracle_generators(H):
    """The greedy Krylov closure of `FinHopf.generators`, forming every
    product e_x v, zero or not."""
    n, M = H.dim, H.conductor
    one = CycloNum.one(M)
    span = EchelonBasis(n, M)
    span.insert(H.unit)
    found = [H.unit]
    X = []
    busiest = sorted(range(n), key=lambda i: -sum(1 for cell in H.mrows[i] if cell))
    for i in busiest:
        if len(span) == n:
            break
        if span.contains({i: one}):
            continue
        X.append(i)
        work = [(i, v) for v in found]
        while work:
            x, v = work.pop()
            w = mult_vectors(H.mrows, {x: one}, v)
            if span.insert(w):
                found.append(w)
                work.extend((y, w) for y in X)
    return tuple(sorted(X)) if len(span) == n else None


def test_generators_skip_only_zero_products(corpus3, double_taft):
    # the closure skips e_x v when no nonempty cell of row x meets supp(v);
    # X must be the one the closure forming every product finds
    algebras = [fresh(A) for A in corpus3.values()]
    algebras += [fresh(A.dual_cached()) for A in corpus3.values()]
    algebras.append(fresh(double_taft))
    for A in algebras:
        assert A.generators == oracle_generators(A), A.label
        assert A.generators is not None, A.label


def test_generating_sets_stay_small(double_taft):
    assert len(fresh(double_taft).generators) <= 16
    for seed in range(10):
        R = relabel(double_taft, random.Random(100 + seed), seed % 2 == 1)
        assert len(R.generators) <= 16, seed
    kz27 = standard_constructors("group_algebra", 3, group="z27")
    assert len(kz27.generators) == 1


def test_integrals_match_all_conditions(corpus3, double_taft):
    def full_conditions(A, left):
        n = A.dim
        eps = sparse_to_dense(A.counit, n, A.conductor)
        for i in range(n):
            eq: dict = {}
            for b in range(n):
                for k, c in (A.mrows[i][b] if left else A.mrows[b][i]):
                    sparse_add_into(eq.setdefault(k, {}), b, c)
            if not eps[i].is_zero():
                for b in range(n):
                    sparse_add_into(eq.setdefault(b, {}), b, -eps[i])
            yield from eq.values()

    for H in (*corpus3.values(), double_taft):
        n, M = H.dim, H.conductor
        for A, left in ((H, True), (H.dual_cached(), False)):
            assert (intersect_kernels(_integral_maps(A, left), n, M)
                    == kernel(full_conditions(A, left), n, M)), H.label
        assert integrals(H) is integrals(H)


def test_qt1_index_matches_the_full_loop(taft3, uq3, uq_rmatrix):
    def qt1_oracle(H, R):
        for h in range(H.dim):
            d = dict(H.crows[h])
            if H.tensor_mul(_tensor_swap(d), R) != H.tensor_mul(R, d):
                return (h,)
        return None

    def unit_r(H):
        u = H.unit
        return {(a, b): c * d for a, c in u.items() for b, d in u.items()}

    R_uq = uq_rmatrix[1].r_dict()
    bumped = dict(R_uq)
    key = sorted(bumped)[len(bumped) // 2]
    bumped[key] = bumped[key] + CycloNum.one(uq3.conductor)
    # in this relabelling QT.1 fails first at a basis element outside X
    taft_rl = relabel(taft3, random.Random(0), True)
    for H, R in ((taft3, unit_r(taft3)), (taft_rl, unit_r(taft_rl)),
                 (uq3, R_uq), (uq3, bumped)):
        rep, _ = verify_qt(H, R)
        qt1 = rep.checks[0]
        want = qt1_oracle(H, R)
        assert qt1.name == "QT.1"
        assert (qt1.ok, qt1.first_failure) == (want is None, want), H.label


def test_is_central_matches_the_basis_loop(corpus3, double_taft, uq_rmatrix):
    def central_oracle(H, v):
        one = CycloNum.one(H.conductor)
        return all(H.mul(v, {h: one}) == H.mul({h: one}, v)
                   for h in range(H.dim))

    rng = random.Random(7)
    uq, rm = uq_rmatrix
    u = rm.u
    hosts = [(H, ()) for H in corpus3.values()]
    hosts.append((double_taft, double_taft.claims.central_grouplikes))
    hosts.append((uq, (u, uq.mul(u, uq.antipode_of(u)))))
    verdicts = set()
    for H, extra in hosts:
        M = H.conductor
        randoms = [{i: CycloNum.from_rational(M, rng.choice((-2, -1, 1, 3)))
                    for i in rng.sample(range(H.dim), k)} for k in (1, 2, 4)]
        for v in (*H.verified_grouplikes, *extra, *randoms):
            want = central_oracle(H, v)
            assert H.is_central(v) == want, H.label
            verdicts.add((want, H.label == uq.label))
    # central and non-central inputs, both on u_q (u is not central, u S(u)
    # is) and on the other hosts
    assert {(True, True), (False, True), (True, False), (False, False)} <= verdicts


def test_morphism_algebra_check_matches_the_full_sweep(corpus3, double_taft, taft3,
                                                        z3_bichar, z3z3_bichar,
                                                        uq_rmatrix):
    def algebra_map_oracle(f):
        Hs, Ht = f.source, f.target
        if f.apply(Hs.unit) != Ht.unit:
            return ("unit",)
        for i in range(Hs.dim):
            for j in range(Hs.dim):
                if f.apply(dict(Hs.mrows[i][j])) != Ht.mul(f.cols[i], f.cols[j]):
                    return (i, j)
        return None

    maps = []
    # the paper's isomorphism fixtures, and seeded one-entry corruptions
    rng = random.Random(5)
    for H in corpus3.values():
        for key, cols in H.iso_fixtures:
            T = resolve_fixture_target(key, conductor=H.conductor)
            maps.append(HopfMorphism(H, T, cols))
            bad = [dict(c) for c in cols]
            j, i = rng.randrange(H.dim), rng.randrange(T.dim)
            bad[j][i] = bad[j].get(i, CycloNum.zero(H.conductor)) + CycloNum.one(H.conductor)
            maps.append(HopfMorphism(H, T, bad))
    # f_R : H*^cop -> H of the quasitriangular hosts
    hosts = [*z3_bichar[1], *z3z3_bichar[1], uq_rmatrix[1]]
    for rm in hosts:
        H = rm.host
        fR, _ = f_matrices(H, rm.r_dict())
        maps.append(HopfMorphism(op_cop(H.dual_cached(), "cop"), H, fR))
    # D(taft) -> taft, beta # h -> beta(1) h, and taft -> D(taft), h -> eps # h
    n = taft3.dim
    down = [{b: taft3.unit[a]} if a in taft3.unit else {}
            for a in range(n) for b in range(n)]
    maps.append(HopfMorphism(double_taft, taft3, down))
    up = [{a * n + b: c for a, c in taft3.counit.items()} for b in range(n)]
    maps.append(HopfMorphism(taft3, double_taft, up))
    # the broken map of k[Z/3]: g -> g, g^2 -> g
    kz3 = standard_constructors("group_algebra", 3, group="z3", conductor=9)
    one = CycloNum.one(9)
    maps.append(HopfMorphism(kz3, kz3, [{0: one}, {1: one}, {1: one}]))

    verdicts = set()
    for f in maps:
        check = verify_morphism(f).checks[0]
        want = algebra_map_oracle(f)
        assert check.name == "algebra_map"
        assert (check.ok, check.first_failure) == (want is None, want), f
        verdicts.add(check.ok)
    assert verdicts == {True, False}
