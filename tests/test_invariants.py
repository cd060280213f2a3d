import random
from types import SimpleNamespace

import pytest

from dense_oracle import oracle_coradical_spaces
from hopfkit.cyclo import CycloNum, render
from hopfkit.constructors import group_algebra, standard_constructors
from hopfkit.groups import cyclic, heisenberg
from hopfkit.hopf import HopfMorphism, dual, tensor
from hopfkit.errors import (ClaimIncomplete, ClaimNotGrouplike,
                            ExtractionInconsistent, NotGrouplike)
from hopfkit.invariants import (antipode_order, characters_census,
                                coradical_filtration,
                                commutative_quotient_check, fingerprint,
                                grouplike_census, integrals, is_unimodular,
                                modular_elements, pairing_table,
                                projection_splitting_check, radford_s4_check,
                                radical_power_dims, semisimplicity,
                                skew_primitives,
                                trace_formula_check)
from hopfkit.linalg import (Subspace, compose_columns, dense_to_sparse,
                            identity_columns, sparse_columns, sparse_to_dense)

M = 9


def basis_vector(i):
    return {i: CycloNum.one(M)}


def test_integral_group_algebra():
    # k[Z/3]: Lambda = 1 + g + g^2 up to scalar
    H = group_algebra(cyclic(3), M)
    integ = integrals(H)
    lam = sparse_to_dense(integ.left_integral, 3, M)
    assert len({render(c) for c in lam}) == 1
    eps_lam = H.counit_of(dense_to_sparse(lam))
    assert not eps_lam.is_zero()


def test_integral_taft(taft3):
    # oracle: Lambda = (1 + g + g^2) x^2, built by multiplying in the algebra
    monos = taft3.monomials
    ix = {m: i for i, m in enumerate(monos)}
    one = CycloNum.one(M)
    sumg = {ix[((0,), (c,))]: one for c in range(3)}
    x2 = {ix[((2,), (0,))]: one}
    expected = taft3.mul(sumg, x2)
    integ = integrals(taft3)
    got = integ.left_integral
    k0 = next(iter(expected))
    ratio = got[k0] / expected[k0]
    assert got == {k: ratio * v for k, v in expected.items()}
    # nonsemisimple iff eps(Lambda) = 0
    assert taft3.counit_of(got).is_zero()


def test_modular_elements_taft(taft3):
    mod = modular_elements(taft3)
    assert mod.alpha != taft3.counit
    assert mod.g != taft3.unit
    assert not is_unimodular(taft3)


def test_modular_elements_semisimple_trivial():
    H = group_algebra(heisenberg(3), M)
    mod = modular_elements(H)
    assert mod.alpha == H.counit
    assert mod.g == H.unit


def test_uq_modular_pairing(uq3):
    # <alpha, g> = 1 for the standard small quantum group
    mod = modular_elements(uq3)
    acc = CycloNum.zero(M)
    for a, b in zip(sparse_to_dense(mod.alpha, 27, M), sparse_to_dense(mod.g, 27, M)):
        acc = acc + a * b
    assert acc.is_one()
    assert is_unimodular(uq3)


def test_radford_s4(taft3, uq3):
    assert radford_s4_check(taft3)
    assert radford_s4_check(uq3)
    H27 = group_algebra(cyclic(27), 27)
    assert radford_s4_check(H27)


def test_trace_formula(taft3, uq3):
    rng = random.Random(0)
    for H in (group_algebra(cyclic(3), M), taft3, uq3):
        n = H.dim
        # f = id gives Tr = dim
        a, b, c = trace_formula_check(H, identity_columns(n, M))
        assert a == b == c
        assert a == CycloNum.from_rational(M, n)
        for _ in range(20):
            f = sparse_columns(
                [[CycloNum.from_rational(M, rng.randint(-3, 3))
                  for _ in range(n)] for _ in range(n)])
            a, b, c = trace_formula_check(H, f)
            assert a == b == c
    # f = S^2 on Taft: the common value is Tr S^2 = 0
    S2 = compose_columns(taft3.antipode, taft3.antipode)
    a, b, c = trace_formula_check(taft3, S2)
    assert a == b == c and a.is_zero()


def test_antipode_orders(taft3, uq3, book1):
    assert antipode_order(group_algebra(cyclic(27), 27)) == 2
    assert antipode_order(taft3) == 6
    assert antipode_order(uq3) == 6
    assert antipode_order(book1) == 6


def test_semisimplicity(taft3, book1):
    H = group_algebra(cyclic(27), 27)
    rep = semisimplicity(H)
    assert rep.semisimple and rep.cosemisimple
    assert rep.trace_s2 == CycloNum.from_rational(27, 27)
    rep = semisimplicity(taft3)
    assert not rep.semisimple and rep.trace_s2.is_zero()
    assert not semisimplicity(book1).semisimple


def test_coradical_cosemisimple():
    H = group_algebra(cyclic(27), 27)
    rep = coradical_filtration(H)
    assert rep.filtration_dims == (27,)
    assert rep.H0_dim == 27


def test_coradical_taft(taft3):
    rep = coradical_filtration(taft3)
    assert rep.filtration_dims == (3, 6, 9)
    # oracle: H_j = span{x^a g^b : a <= j}
    monos = taft3.monomials
    ix = {m: i for i, m in enumerate(monos)}
    for j, sp in enumerate(oracle_coradical_spaces(taft3)):
        vecs = [basis_vector(ix[((a,), (b,))])
                for a in range(j + 1) for b in range(3)]
        assert sp == Subspace.from_vectors(9, M, vecs)


def test_radical_power_dims(taft3):
    # J(taft) = span{x g^i, x^2 g^i}, J^2 = span{x^2 g^i}, J^3 = 0
    assert radical_power_dims(taft3) == (6, 3, 0)
    # a radical that is not nilpotent (all of k[Z/3]) fails to shrink
    A = group_algebra(cyclic(3), M)
    fake = SimpleNamespace(dim=3, conductor=M, mrows=A.mrows,
                           mmasks=A.mmasks, radical=Subspace.full(3, M))
    with pytest.raises(ExtractionInconsistent):
        radical_power_dims(fake)


def test_coradical_uq_dual(uq3):
    # simple u_q-modules have dimensions 1, 2, 3, so the coradical of the
    # dual has dimension 1 + 4 + 9 = 14 with blocks {2, 3} beyond the
    # single one-dimensional one (see tests/test_acceptance.py for the
    # independent module-theoretic oracle)
    rep = coradical_filtration(dual(uq3))
    assert rep.H0_dim == 14
    assert rep.blocks == 3
    assert rep.one_dim_blocks == 1
    assert rep.candidate_multisets == ((2, 3),)
    assert rep.filtration_dims[-1] == 27


def test_census_group_algebras():
    c = grouplike_census(group_algebra(cyclic(27), 27))
    assert c.size == 27 and c.invariant_factors == (27,)
    from hopfkit.groups import abelian
    c = grouplike_census(group_algebra(abelian(9, 3), M))
    assert c.size == 27 and c.invariant_factors == (9, 3)
    H = group_algebra(heisenberg(3), M)
    c = grouplike_census(H)
    assert c.size == 27 and not c.abelian and c.invariant_factors is None
    cd = characters_census(H)
    assert cd.size == 9 and cd.invariant_factors == (3, 3)


def test_census_uq(uq3):
    assert grouplike_census(uq3).size == 3
    assert characters_census(uq3).size == 1


def test_census_r():
    R = standard_constructors("r", 3, 1)
    c = grouplike_census(R)
    cd = characters_census(R)
    assert (c.size, cd.size) == (9, 3)
    assert c.invariant_factors == (9,)


def test_census_rejects_bad_claims(taft3):
    from hopfkit.hopf import ClaimSet, FinHopf
    bad_vec = {3: CycloNum.one(M)}  # x monomial: not group-like
    H = FinHopf(9, M, taft3.mult, taft3.unit, taft3.comult, taft3.counit,
                taft3.antipode, ClaimSet([bad_vec], []), "bad")
    with pytest.raises(ClaimNotGrouplike):
        grouplike_census(H)
    H2 = FinHopf(9, M, taft3.mult, taft3.unit, taft3.comult, taft3.counit,
                 taft3.antipode,
                 ClaimSet([taft3.claims.grouplikes[0]], []), "short")
    with pytest.raises(ClaimIncomplete):
        grouplike_census(H2)


def test_skew_primitives(taft3, uq3):
    # group algebra: P_{a,b} = k(a - b), trivial
    H = group_algebra(cyclic(3), M)
    one = CycloNum.one(M)
    a, b = {0: one}, {1: one}
    P, trivial = skew_primitives(H, a, b)
    assert P.dim == 1 and trivial
    with pytest.raises(NotGrouplike):
        skew_primitives(H, a, {})
    # Taft: P_{1,g} contains x, dim 2, nontrivial ... careful with sides:
    # Delta x = x (x) 1 + g (x) x means x lies in P_{g,1}
    monos = taft3.monomials
    ix = {m: i for i, m in enumerate(monos)}
    e = {ix[((0,), (0,))]: one}
    g = {ix[((0,), (1,))]: one}
    P, trivial = skew_primitives(taft3, g, e)
    assert P.dim == 2 and not trivial
    xvec = basis_vector(ix[((1,), (0,))])
    assert P.contains(xvec)
    # u_q: x in P_{1,g} and y in P_{g^{-1},1} with the paper's coproducts
    monos = uq3.monomials
    ix = {m: i for i, m in enumerate(monos)}
    e = {ix[((0, 0), (0,))]: one}
    g = {ix[((0, 0), (1,))]: one}
    g2 = {ix[((0, 0), (2,))]: one}
    P1, t1 = skew_primitives(uq3, e, g)   # Delta x = x(x)g + 1(x)x
    assert not t1 and P1.contains(basis_vector(ix[((1, 0), (0,))]))
    P2, t2 = skew_primitives(uq3, g2, e)  # Delta y = y(x)1 + g^{-1}(x)y
    assert not t2 and P2.contains(basis_vector(ix[((0, 1), (0,))]))


def test_fingerprint_lines(taft3, book1):
    fp = fingerprint(taft3)
    assert fp.line() == ("dim=9 type=(3;3) ordS=6 TrS2=0 corad=[3,6,9] "
                         "pointed=yes dualpointed=yes unimodular=no")
    fpb = fingerprint(book1)
    assert fpb.type_pair() == "(3;3)"
    assert fpb.pointed and fpb.dual_pointed
    H = group_algebra(heisenberg(3), M)
    fph = fingerprint(H)
    assert fph.g_type == "na27" and fph.g_dual_type == "3,3"


def test_pairing_table(book1):
    pr = pairing_table(book1)
    assert pr.has_nontrivial_entry and not pr.all_entries_one
    H = group_algebra(cyclic(3), M)
    pr = pairing_table(H)
    one = CycloNum.one(M)
    flat = [c for row in pr.table for c in row]
    assert pr.has_nontrivial_entry
    # the full character/group pairing takes all cube roots of unity
    assert len(set(flat)) == 3
    from hopfkit.hopf import trivial_hopf
    pr = pairing_table(trivial_hopf(M))
    assert pr.all_entries_one and not pr.has_nontrivial_entry


def test_commutative_quotient(taft3):
    assert commutative_quotient_check(taft3.mult, M)
    # 2x2 matrix algebra fixture: not commutative mod radical
    one = CycloNum.one(M)
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    d = {}
    for (a, b), i in idx.items():
        for (c, e2), j in idx.items():
            if b == c:
                d[(i, j, idx[(a, e2)])] = one
    from hopfkit.linalg import SparseTensor3
    m22 = SparseTensor3.from_dict((4, 4, 4), d)
    assert not commutative_quotient_check(m22, M)


def test_projection_splitting(book1):
    # identity splitting
    from hopfkit.hopf import identity_morphism
    H = group_algebra(cyclic(3), M)
    rep = projection_splitting_check(identity_morphism(H), identity_morphism(H))
    assert rep.success and rep.coinvariant_dim == 1
    # taft (x) k[Z/3] splits over the right factor
    T = tensor(standard_constructors("taft", 3, 1), H)
    z = CycloNum.zero(M)
    pi = [[z] * 27 for _ in range(3)]
    gamma = [[z] * 3 for _ in range(27)]
    TT = standard_constructors("taft", 3, 1)
    for i in range(9):
        for a in range(3):
            pi[a][i * 3 + a] = TT.counit.get(i, z)
    ui = min(TT.unit)
    for a in range(3):
        gamma[ui * 3 + a][a] = CycloNum.one(M)
    rep = projection_splitting_check(HopfMorphism(T, H, sparse_columns(pi)),
                                     HopfMorphism(H, T, sparse_columns(gamma)))
    assert rep.success and rep.coinvariant_dim == 9
    # book algebras are bosonizations of k[Z/p]
    monos = book1.monomials
    pi = [[z] * 27 for _ in range(3)]
    gamma = [[z] * 3 for _ in range(27)]
    for j, (a, c) in enumerate(monos):
        if a == (0, 0):
            pi[c[0]][j] = CycloNum.one(M)
    for c in range(3):
        gamma[monos.index(((0, 0), (c,)))][c] = CycloNum.one(M)
    rep = projection_splitting_check(
        HopfMorphism(book1, H, sparse_columns(pi)),
        HopfMorphism(H, book1, sparse_columns(gamma)))
    assert rep.success and rep.coinvariant_dim == 9


def test_odd_dimension_forces_grouplikes(corpus3):
    # a nonsemisimple Hopf algebra of odd dimension has nontrivial G(H)
    # or G(H*)
    for label, H in corpus3.items():
        if not semisimplicity(H).semisimple:
            assert H.dim % 2 == 1
            sizes = (grouplike_census(H).size, characters_census(H).size)
            assert max(sizes) > 1, label


def test_filtration_dims_strictly_increase(corpus3):
    for label, H in corpus3.items():
        dims = coradical_filtration(H).filtration_dims
        assert all(a < b for a, b in zip(dims, dims[1:])), label
        assert dims[-1] == H.dim


def test_taft_radical_oracle(taft3):
    # oracle: the nilpotent ideal span{x g^i, x^2 g^i} is the whole radical
    from hopfkit.linalg import algebra_radical
    monos = taft3.monomials
    ix = {m: i for i, m in enumerate(monos)}
    vecs = [basis_vector(ix[((a,), (b,))])
            for a in (1, 2) for b in range(3)]
    expected = Subspace.from_vectors(9, M, vecs)
    rad = algebra_radical(taft3.mult, M)
    assert rad.dim == 6
    assert rad == expected


def test_antipode_order_even_on_nonsemisimple(corpus3):
    for label, H in corpus3.items():
        n = antipode_order(H)
        if semisimplicity(H).semisimple:
            assert n == 2, label
        else:
            assert n % 2 == 0 and n > 2, label


def test_taft_semisimple_quotient(taft3):
    from hopfkit.linalg import algebra_radical, quotient_mult
    rad = algebra_radical(taft3.mult, M)
    proj = rad.projection_columns()
    qmult = quotient_mult(taft3.mrows, rad, proj)
    assert algebra_radical(qmult, M).dim == 0


def test_integral_solver_against_stacked_system(taft3):
    # independent oracle: one stacked 81x9 kernel instead of the solver's
    # iterated restriction
    from hopfkit.linalg import kernel
    rows = []
    for i in range(9):
        # matrix of x -> e_i x: column j is e_i e_j
        A = [[CycloNum.zero(M)] * 9 for _ in range(9)]
        for j in range(9):
            for k, c in taft3.mrows[i][j]:
                A[k][j] = c
        if i in taft3.counit:
            for d in range(9):
                A[d][d] = A[d][d] - taft3.counit[i]
        rows.extend(A)
    assert len(rows) == 81
    K = kernel([dense_to_sparse(r) for r in rows], 9, M)
    assert K.dim == 1
    integ = integrals(taft3)
    assert K.contains(integ.left_integral)
