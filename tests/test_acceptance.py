"""Acceptance suite: every criterion is exact (tolerance 0).

Each test prints one pass/fail line so the suite can be read as a
checklist with `pytest tests/test_acceptance.py -v -s`.
"""

import random

import pytest

from dense_oracle import identity_matrix, mat_eq
from hopfkit.cyclo import CycloNum
from hopfkit.constructors import (CrossedProductData, crossed_product,
                                  drinfeld_double, group_algebra,
                                  resolve_fixture_target, standard_constructors)
from hopfkit.groups import cyclic
from hopfkit.hopf import HopfMorphism, dual, op_cop, verify_hopf, verify_morphism
from hopfkit.hopffile import dumps, loads
from hopfkit.invariants import (antipode_order, commutative_quotient_check,
                                coradical_filtration, fingerprint,
                                grouplike_census, integrals, pairing_table,
                                radford_s4_check, semisimplicity,
                                trace_formula_check)
from hopfkit.linalg import (algebra_radical, identity_columns, mat_mul,
                            sparse_columns)
from hopfkit.papercheck import (dim27_case_elimination, spectra_lemma_check,
                                type_table_sweep)
from hopfkit.quasitriangular import (double_surjection_check,
                                     drinfeld_element, ribbon_search)

M = 9


def _report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_c01_corpus_validity(corpus3):
    """All constructors at p=3 pass verify_hopf with zero failures."""
    ok = True
    for label, H in corpus3.items():
        rep = verify_hopf(H)
        if rep.failures:
            ok = False
            print(f"  {label}: {rep.failures}")
    assert len(corpus3) == 17
    _report("C1 corpus validity", ok)


def test_c02_type_table(corpus3):
    """Theorem-3.5 sweep: expected slots, no forbidden types."""
    rows, ok = type_table_sweep(3, 1)
    for row in rows:
        if not row.ok:
            print(f"  {row.label}: {row.note}")
    _report("C2 type table", ok)


def test_c03_radford_and_trace_formulas(corpus3):
    """S^4 identity and both trace formulas, 20 seeded endomorphisms each;
    eps(Lambda) = 0 iff Tr S^2 = 0 across the corpus."""
    rng = random.Random(0)
    ok = True
    for label, H in corpus3.items():
        integ = integrals(H)
        if not radford_s4_check(H):
            ok = False
            print(f"  {label}: Radford S^4 fails")
        n = H.dim
        for _ in range(20):
            f = sparse_columns(
                [[CycloNum.from_rational(H.conductor, rng.randint(-3, 3))
                  for _ in range(n)] for _ in range(n)])
            a, b, c = trace_formula_check(H, f)
            if not (a == b == c):
                ok = False
                print(f"  {label}: trace formula fails")
                break
        eps_lam = H.counit_of(integ.left_integral)
        tr_s2 = semisimplicity(H).trace_s2
        if eps_lam.is_zero() != tr_s2.is_zero():
            ok = False
            print(f"  {label}: eps(Lambda)=0 iff TrS2=0 fails")
    _report("C3 Radford S^4 + trace formulas + integrals", ok)


def test_c04_antipode_orders(corpus3):
    """ord S = 2 on semisimple members, 2p = 6 on T(q), u_q, h(q,m);
    order-6 type-(3;3) members have a nontrivial pairing entry."""
    ok = True
    orders = {}
    for label, H in corpus3.items():
        orders[label] = antipode_order(H)
        if semisimplicity(H).semisimple:
            if orders[label] != 2:
                ok = False
                print(f"  {label}: semisimple but ordS={orders[label]}")
    for label in ("taft(p=3,e=1)", "uq_sl2(p=3,e=1)",
                  "book(p=3,e=1,m=1)", "book(p=3,e=1,m=2)"):
        if orders[label] != 6:
            ok = False
            print(f"  {label}: ordS={orders[label]} != 6")
    # Corollary on order 4p by contraposition: ord 2p forces a pairing != 1
    for label, H in corpus3.items():
        fp = fingerprint(H)
        if fp.type_pair() == "(3;3)" and orders[label] == 6:
            if not pairing_table(H).has_nontrivial_entry:
                ok = False
                print(f"  {label}: (3;3) with ordS=6 but trivial pairing")
    _report("C4 antipode orders", ok)


def test_c05_self_duality_and_twist_isos(corpus3, taft3, book1):
    """fingerprint(T) = fingerprint(T*); fingerprint(op T) = fingerprint(T(q^-1));
    book and ttilde fixture isomorphisms verify bijectively."""
    ok = fingerprint(taft3) == fingerprint(dual(taft3))
    T2 = standard_constructors("taft", 3, 2)
    ok = ok and fingerprint(op_cop(taft3, "op")) == fingerprint(T2)
    fixture_count = 0
    for H in (book1, standard_constructors("book", 3, 1, 2),
              standard_constructors("ttilde", 3, 1)):
        for key, mat in H.iso_fixtures:
            target = resolve_fixture_target(key, conductor=M)
            rep = verify_morphism(HopfMorphism(H, target, mat))
            fixture_count += 1
            if not (rep.ok and rep.bijective):
                ok = False
                print(f"  fixture {H.label} -> {key} fails")
    ok = ok and fixture_count == 5
    _report("C5 self-duality and twist isomorphisms", ok)


def test_c06a_coradical_taft(taft3):
    rep = coradical_filtration(taft3)
    _report("C6a T(q) coradical filtration [3,6,9]",
            rep.filtration_dims == (3, 6, 9))


def test_c06b_coradical_uq(uq3):
    rep = coradical_filtration(uq3)
    _report("C6b u_q coradical: H0 dim 3, filtration reaches 27",
            rep.H0_dim == 3 and rep.filtration_dims[-1] == 27)


def test_c06c_coradical_uq_dual_as_stated(uq3):
    """Criterion as the paper states it: u_q(sl2) has type (G(H); G(H*)) =
    (p; 1), so u_q* is not pointed and its coradical H0 = (u_q / J(u_q))*.

    - G(u_q*) is trivial: a character of u_q kills the nilpotent x and y,
      so xy - yx = g - g^{-1} forces chi(g)^2 = 1 and, p being odd,
      chi = epsilon.  H0 therefore has exactly one 1x1 block.
    - The simple u_q-modules have dimensions 1, ..., p, so
      dim H0 = 1 + 4 + ... + p^2 (14 at p = 3), which must equal
      dim u_q - dim J(u_q) with the radical taken on u_q itself.
    - The blocks besides the 1x1 one are the non-trivial simples (2, 3).

    Three 1x1 blocks would be G(u_q) = Z/3, the coradical of u_q (C6b),
    not of u_q*.
    """
    p = 3
    uq_dual = dual(uq3)
    rep = coradical_filtration(uq_dual)
    rad = algebra_radical(uq3.mult, M)
    ok = (rep.one_dim_blocks == 1 == grouplike_census(uq_dual).size
          and rep.H0_dim == sum(d * d for d in range(1, p + 1)) == 14
          and rep.H0_dim == uq3.dim - rad.dim
          and rep.candidate_multisets == ((2, 3),))
    _report("C6c u_q* coradical as stated (type (p;1): H0=1+4+9=14, "
            "one 1x1 block, blocks (2,3))", ok)


def _uq_simple_module_dims(p, e, M):
    """Independent oracle: explicit Verma modules for u_q(sl2).

    Builds the 3x3 action matrices directly (g diagonal, y the shift,
    x from the commutation relation), verifies every defining relation as
    a matrix identity, and extracts the simple quotient dimensions by
    locating the maximal proper submodule (weight vectors are eigenvectors
    of g with distinct eigenvalues, so submodules are coordinate spans).
    """
    q = CycloNum.zeta(M, (M // p) * e)
    one = CycloNum.one(M)
    zero = CycloNum.zero(M)
    dims = []
    for t in range(p):
        mu = q ** t
        g = [[zero] * p for _ in range(p)]
        y = [[zero] * p for _ in range(p)]
        x = [[zero] * p for _ in range(p)]
        for j in range(p):
            g[j][j] = mu * q ** ((-2 * j) % p)
        for j in range(p - 1):
            y[j + 1][j] = one
        c = zero
        cs = [zero]
        for j in range(1, p):
            c = c + mu * q ** ((-2 * (j - 1)) % p) - (mu ** (p - 1)) * q ** ((2 * (j - 1)) % p)
            cs.append(c)
            x[j - 1][j] = c
        # every defining relation must hold as a matrix identity
        qq = q * q
        assert mat_eq(mat_mul(g, x), [[qq * v for v in row] for row in mat_mul(x, g)])
        qi2 = qq.inverse()
        assert mat_eq(mat_mul(g, y), [[qi2 * v for v in row] for row in mat_mul(y, g)])
        ident = identity_matrix(p, M)
        gp = ident
        ginv = ident
        for k in range(p):
            gp = mat_mul(gp, g)
            if k < p - 1:
                ginv = mat_mul(ginv, g)
        assert mat_eq(gp, ident)
        xp = ident
        yp = ident
        for _ in range(p):
            xp = mat_mul(xp, x)
            yp = mat_mul(yp, y)
        assert all(v.is_zero() for row in xp for v in row)
        assert all(v.is_zero() for row in yp for v in row)
        comm = [[mat_mul(x, y)[i][j] - mat_mul(y, x)[i][j] for j in range(p)]
                for i in range(p)]
        rhs = [[g[i][j] - ginv[i][j] for j in range(p)] for i in range(p)]
        assert mat_eq(comm, rhs)
        # head of the Verma: quotient at the first vanishing x-coefficient
        j0 = next((j for j in range(1, p) if cs[j].is_zero()), p)
        dims.append(j0)
    return sorted(dims)


def test_c06d_coradical_uq_dual_exact_oracle(uq3):
    """Companion to C6c: the true exact values, cross-checked against the
    explicit simple-module oracle."""
    dims = _uq_simple_module_dims(3, 1, M)
    assert dims == [1, 2, 3]
    expected_h0 = sum(d * d for d in dims)
    rep = coradical_filtration(dual(uq3))
    ok = (rep.H0_dim == expected_h0 == 14
          and rep.blocks == len(dims)
          and rep.one_dim_blocks == dims.count(1) == 1
          and rep.candidate_multisets == ((2, 3),))
    _report("C6d u_q* coradical exact (H0=14, blocks {1,2,3}; oracle)", ok)


def test_c07_quasitriangular_suite(z3_bichar, z3z3_bichar, uq_rmatrix):
    """Bicharacter counts 3 and 81; u_q standard R passes QT.1-5 with
    minimal = yes; Drinfeld identities clean; ribbon elements exist and
    pass R.1-R.5; semisimple hosts have u = S(u)."""
    H3, rms3 = z3_bichar
    H33, rms33 = z3z3_bichar
    ok = len(rms3) == 3 and len(rms33) == 81
    Hu, rmu = uq_rmatrix
    ok = ok and rmu.minimal
    dr = drinfeld_element(rmu)
    ok = ok and dr.ok
    rc = ribbon_search(rmu)
    ok = ok and len(rc.ribbon_elements) >= 1
    one = CycloNum.one(M)
    for v in rc.ribbon_elements:
        sv = v
        # R.1-R.5 re-checked directly
        u = rmu.u
        usu = Hu.mul(u, Hu.antipode_of(u))
        R = rmu.r_dict()
        RtR = Hu.tensor_mul({(b, a): c for (a, b), c in R.items()}, R)
        vv = {}
        from hopfkit.linalg import sparse_add_into
        for a, ca in sv.items():
            for b, cb in sv.items():
                sparse_add_into(vv, (a, b), ca * cb)
        ok = ok and Hu.mul(sv, sv) == usu
        ok = ok and Hu.antipode_of(sv) == sv
        ok = ok and Hu.counit_of(sv).is_one()
        ok = ok and Hu.tensor_mul(RtR, Hu.comult_of(sv)) == vv
        ok = ok and all(Hu.mul(sv, {h: one}) == Hu.mul({h: one}, sv)
                        for h in range(Hu.dim))
    for H, rms in ((H3, rms3), (H33, rms33)):
        for rm in rms:
            su = rm.u
            if H.antipode_of(su) != su:
                ok = False
                print("  u != S(u) on a semisimple host")
                break
    _report("C7 quasitriangular suite", ok)


def test_c08_double(z3_bichar, double_taft):
    """D(k[Z/3]) and D(T(q)) verify; F: D(H) -> H is a Hopf surjection for
    the bicharacter hosts; claimed central group-likes of D(T(q)) are
    central."""
    H3, rms3 = z3_bichar
    D3 = drinfeld_double(group_algebra(cyclic(3), M))
    ok = verify_hopf(D3).ok and verify_hopf(double_taft).ok
    for rm in rms3:
        f, rep, central_ok = double_surjection_check(H3, rm)
        if not (rep.ok and rep.surjective and central_ok):
            ok = False
            print("  F surjection fails for a bicharacter R")
    one = CycloNum.one(M)
    central = double_taft.claims.central_grouplikes
    ok = ok and len(central) > 0
    for v in central:
        if not all(double_taft.mul(v, {h: one}) == double_taft.mul({h: one}, v)
                   for h in range(81)):
            ok = False
            print("  claimed central group-like of D(T) is not central")
    _report("C8 Drinfeld double", ok)


def test_c09_crossed_products():
    """Verifiers accept the three fixtures, reject a broken cocycle; the
    Taft fixture's dual is pointed (commutative quotient criterion)."""
    from hopfkit.errors import CocycleConditionFails
    A = group_algebra(cyclic(3), M)
    unit = A.unit
    one = CycloNum.one(M)
    ok = True
    # fixture 1: trivial everything = tensor product algebra
    triv = CrossedProductData(A.mult, unit, M, 3, [identity_columns(3, M)] * 3,
                              {(i, j): unit for i in range(3) for j in range(3)})
    t, _ = crossed_product(triv)
    expected = {}
    for (i, j, k), c in A.mult.entries:
        for a in range(3):
            for b in range(3):
                expected[(i * 3 + a, j * 3 + b, k * 3 + ((a + b) % 3))] = c
    from hopfkit.linalg import SparseTensor3
    ok = ok and t == SparseTensor3.from_dict((9, 9, 9), expected)
    # fixture 2: carry cocycle gives k[Z/9]
    sigma = {(i, j): {(i + j) // 3: one} for i in range(3) for j in range(3)}
    carry = CrossedProductData(A.mult, unit, M, 3,
                               [identity_columns(3, M)] * 3, sigma)
    t2, _ = crossed_product(carry)
    ok = ok and t2 == group_algebra(cyclic(9), M).mult
    # fixture 3: Taft with the x -> qx automorphism action
    T = standard_constructors("taft", 3, 1)
    monos = T.monomials
    q = CycloNum.zeta(M, 3)
    acts = [identity_columns(9, M)]
    for k in (1, 2):
        acts.append([{j: q ** (k * a[0])} for j, (a, c) in enumerate(monos)])
    taft_data = CrossedProductData(
        T.mult, T.unit, M, 3, acts,
        {(i, j): T.unit for i in range(3) for j in range(3)})
    t3, _ = crossed_product(taft_data)
    ok = ok and commutative_quotient_check(t3, M)
    # broken cocycle rejected
    corrupted = dict(sigma)
    corrupted[(2, 2)] = unit
    try:
        CrossedProductData(A.mult, unit, M, 3,
                           [identity_columns(3, M)] * 3, corrupted)
        ok = False
        print("  broken cocycle was accepted")
    except CocycleConditionFails:
        pass
    _report("C9 crossed products", ok)


def test_c10_paper_enumerations():
    """spectra(3,1): 2 conforming; spectra(3,2): 6 conforming;
    dim-27 bounds (30, 27, 39, 36), all >= 27."""
    r1 = spectra_lemma_check(3, 1)
    r2 = spectra_lemma_check(3, 2)
    cases, ok27 = dim27_case_elimination()
    ok = (len(r1.trace_zero) == 2 and r1.all_conform
          and len(r2.trace_zero) == 6 and r2.all_conform
          and [c.bound for c in cases] == [30, 27, 39, 36] and ok27)
    _report("C10 paper enumerations", ok)


def test_c11_roundtrip_and_determinism(corpus3, uq_rmatrix):
    """Export/import is bit-exact for every corpus algebra; reports are
    byte-identical across runs."""
    ok = True
    for label, H in corpus3.items():
        text = dumps(H)
        H2, _ = loads(text)
        if dumps(H2) != text:
            ok = False
            print(f"  {label}: round trip not bit-exact")
    Hu, rm = uq_rmatrix
    text = dumps(Hu, rm.r_dict())
    H2, rm2 = loads(text)
    ok = ok and rm2 == rm.r_dict() and dumps(H2, rm2) == text
    # deterministic reports
    from hopfkit.cli import _report_lines
    a, _ = _report_lines(corpus3["taft(p=3,e=1)"], "all", 0, None)
    b, _ = _report_lines(corpus3["taft(p=3,e=1)"], "all", 0, None)
    ok = ok and a == b
    _report("C11 round-trip and determinism", ok)
