import pytest

from hopfkit.cyclo import CycloNum
from hopfkit.constructors import (CrossedProductData, corpus, crossed_product,
                                  drinfeld_double, group_algebra,
                                  resolve_fixture_target,
                                  standard_constructors)
from hopfkit.errors import (BadParameter, CocycleConditionFails,
                            DimensionGateExceeded, WeakActionAxiomFails)
from hopfkit.groups import abelian, cyclic, heisenberg, semidirect_p2_p
from hopfkit.hopf import HopfMorphism, dual, verify_hopf, verify_morphism
from hopfkit.invariants import (characters_census, fingerprint,
                                grouplike_census, semisimplicity)
from hopfkit.linalg import (SparseTensor3, dense_to_sparse, identity_columns,
                            sparse_to_dense)

M = 9


def test_group_orders_and_exponents():
    assert heisenberg(3).exponent == 3
    assert semidirect_p2_p(3).exponent == 9
    assert abelian(9, 3).exponent == 9
    G = semidirect_p2_p(3)
    # nonabelian: some pair fails to commute
    assert any(G.mul(a, b) != G.mul(b, a)
               for a in G.elements for b in G.elements)


def test_bad_parameters():
    with pytest.raises(BadParameter):
        standard_constructors("uq_sl2", 4, 1)
    with pytest.raises(BadParameter):
        standard_constructors("taft", 3, 3)  # q = 1 is not allowed
    with pytest.raises(BadParameter):
        standard_constructors("book", 3, 1, 3)
    with pytest.raises(BadParameter):
        standard_constructors("group_algebra", 3, group="nope")
    with pytest.raises(BadParameter):
        standard_constructors("group_algebra", 3, group="z27", conductor=9)


def test_corpus_builds_and_verifies(corpus3):
    assert len(corpus3) == 17
    for label, H in corpus3.items():
        rep = verify_hopf(H)
        assert rep.ok, (label, rep.failures)
        assert len(rep.failures) == 0


def test_taft_self_duality_fingerprint(taft3):
    assert fingerprint(taft3) == fingerprint(dual(taft3))


def test_taft_tensor_fingerprint():
    T = standard_constructors("taft_tensor", 3, 1)
    fp = fingerprint(T)
    assert fp.dim == 27 and fp.type_pair() == "(3,3;3,3)"


def test_book_fixtures_verify(book1):
    assert len(book1.iso_fixtures) == 2
    for key, mat in book1.iso_fixtures:
        target = resolve_fixture_target(key, conductor=M)
        f = HopfMorphism(book1, target, mat)
        rep = verify_morphism(f)
        assert rep.ok and rep.bijective, key


def test_ttilde_fixture_verifies():
    T = standard_constructors("ttilde", 3, 1)
    ((key, mat),) = T.iso_fixtures
    target = resolve_fixture_target(key, conductor=M)
    f = HopfMorphism(T, target, mat)
    rep = verify_morphism(f)
    assert rep.ok and rep.bijective


def test_crossed_product_trivial_is_tensor():
    # trivial action and cocycle: bit-exact tensor-product algebra
    A = group_algebra(cyclic(3), M)
    unit = A.unit
    data = CrossedProductData(
        A.mult, unit, M, 3,
        [identity_columns(3, M)] * 3,
        {(i, j): unit for i in range(3) for j in range(3)})
    t, u = crossed_product(data)
    expected = {}
    for (i, j, k), c in A.mult.entries:
        for a in range(3):
            for b in range(3):
                expected[(i * 3 + a, j * 3 + b, k * 3 + ((a + b) % 3))] = c
    assert t == SparseTensor3.from_dict((9, 9, 9), expected)


def test_crossed_product_carry_cocycle_gives_z9():
    # A = k[Z/3] = <h>, sigma(t^i, t^j) = h^((i+j) div 3): the group Z/9
    A = group_algebra(cyclic(3), M)
    sigma = {(i, j): {(i + j) // 3: CycloNum.one(M)}
             for i in range(3) for j in range(3)}
    data = CrossedProductData(A.mult, A.unit, M, 3,
                              [identity_columns(3, M)] * 3, sigma)
    t, u = crossed_product(data)
    # basis h^a # t^i at index 3a+i matches g^(3a+i) in k[Z/9] (h = g^3)
    Z9 = group_algebra(cyclic(9), M)
    assert t == Z9.mult


def test_crossed_product_taft_action():
    # A = T(q), t.x = qx, t.g = g, trivial sigma; dual pointedness criterion
    from hopfkit.invariants import commutative_quotient_check
    T = standard_constructors("taft", 3, 1)
    monos = T.monomials
    q = CycloNum.zeta(M, 3)
    U = [{j: q ** a[0]} for j, (a, c) in enumerate(monos)]
    action = [identity_columns(9, M), U,
              [{j: c * c for j, c in col.items()} for col in U]]
    unit = T.unit
    sigma = {(i, j): unit for i in range(3) for j in range(3)}
    data = CrossedProductData(T.mult, unit, M, 3, action, sigma)
    t, u = crossed_product(data)
    assert u == {3 * i: c for i, c in unit.items()}
    assert commutative_quotient_check(t, M)


def test_crossed_product_rejects_broken_cocycle():
    A = group_algebra(cyclic(3), M)
    unit = A.unit
    sigma = {(i, j): {(i + j) // 3: CycloNum.one(M)}
             for i in range(3) for j in range(3)}
    corrupted = dict(sigma)
    corrupted[(2, 2)] = unit  # drop one carry
    with pytest.raises(CocycleConditionFails):
        CrossedProductData(A.mult, unit, M, 3,
                           [identity_columns(3, M)] * 3, corrupted)
    # non-normalized sigma
    bad2 = dict(sigma)
    bad2[(0, 1)] = {1: CycloNum.one(M)}
    with pytest.raises(CocycleConditionFails):
        CrossedProductData(A.mult, unit, M, 3,
                           [identity_columns(3, M)] * 3, bad2)


def test_crossed_product_rejects_broken_action():
    A = group_algebra(cyclic(3), M)
    unit = A.unit
    sigma = {(i, j): unit for i in range(3) for j in range(3)}
    # g -> 2g: not an algebra map; e_1 e_1 = e_2 is the first pair it breaks
    bad = [{0: CycloNum.one(M)}, {1: CycloNum.from_rational(M, 2)},
           {2: CycloNum.one(M)}]
    with pytest.raises(WeakActionAxiomFails) as exc:
        CrossedProductData(A.mult, unit, M, 3,
                           [identity_columns(3, M), bad, bad], sigma)
    assert str(exc.value) == "action of element 1 is not an algebra map at (1,1)"
    # 1 -> 2: the unit is not fixed
    unfixed = [{0: CycloNum.from_rational(M, 2)}, {1: CycloNum.one(M)},
               {2: CycloNum.one(M)}]
    with pytest.raises(WeakActionAxiomFails) as exc:
        CrossedProductData(A.mult, unit, M, 3,
                           [identity_columns(3, M), unfixed,
                            identity_columns(3, M)], sigma)
    assert str(exc.value) == "action of element 1 does not fix 1"


def test_double_of_group_algebra():
    D = drinfeld_double(group_algebra(cyclic(3), M))
    assert D.dim == 9
    assert verify_hopf(D).ok
    assert semisimplicity(D).semisimple
    assert grouplike_census(D).size == 9


def test_double_dimension_gate():
    with pytest.raises(DimensionGateExceeded):
        drinfeld_double(standard_constructors("uq_sl2", 3, 1))


def test_double_taft(double_taft):
    assert double_taft.dim == 81
    assert not semisimplicity(double_taft).semisimple
    c = grouplike_census(double_taft)
    assert c.size == 9 and c.invariant_factors == (3, 3)
    # characters of D(T) are exactly the diagonal pairs: 3 of them
    cd = characters_census(double_taft)
    assert cd.size == 3 and cd.invariant_factors == (3,)
    # the quotient by the central group-likes has dimension 27
    from hopfkit.hopf import quotient_by_hopf_ideal
    gens = []
    unit = sparse_to_dense(double_taft.unit, 81, M)
    for v in double_taft.claims.central_grouplikes:
        gens.append(dense_to_sparse([a - b for a, b in zip(sparse_to_dense(v, 81, M), unit)]))
    Q, proj = quotient_by_hopf_ideal(double_taft, gens)
    assert Q.dim == 27


def test_double_central_grouplikes(double_taft):
    one = CycloNum.one(M)
    central = double_taft.claims.central_grouplikes
    assert len(central) == 3
    for v in central:
        assert double_taft.is_grouplike(v)
        for j in range(81):
            assert double_taft.mul(v, {j: one}) == double_taft.mul({j: one}, v)


def test_character_claims_match_census(corpus3):
    for label, H in corpus3.items():
        cd = characters_census(H)
        verified = [c for c in H.claims.characters
                    if H.dual_cached().is_grouplike(c)]
        assert cd.size == len(verified), label


def test_isomorphic_pairs_share_fingerprints(book1):
    # paper-asserted isomorphisms force equal fingerprints
    twin = standard_constructors("book", 3, 2, 1)
    assert fingerprint(book1) == fingerprint(twin)
    dual_partner = dual(standard_constructors("book", 3, 1, 2))
    assert fingerprint(book1) == fingerprint(dual_partner)
    t0 = standard_constructors("ttilde", 3, 1, root=0)
    t1 = standard_constructors("ttilde", 3, 1, root=1)
    assert fingerprint(t0) == fingerprint(t1)


def test_dual_book_fixture_inverse_direction(book1):
    # the stored fixture goes h(q,m) -> h(q,-m)*; its matrix inverse is the
    # asserted isomorphism h(q,-m)* -> h(q,m)
    from hopfkit.linalg import mat_inverse
    key, cols = next(f for f in book1.iso_fixtures
                     if f[0][0] == "dual_book")
    target = resolve_fixture_target(key, conductor=M)
    inv = mat_inverse(cols, M)
    assert inv is not None
    rep = verify_morphism(HopfMorphism(target, book1, inv))
    assert rep.ok and rep.bijective
