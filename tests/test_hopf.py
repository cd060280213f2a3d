import pytest

from dense_oracle import zero_vector
from hopfkit.cyclo import CycloNum
from hopfkit.constructors import group_algebra, standard_constructors
from hopfkit.groups import cyclic
from hopfkit.hopf import (FinHopf, HopfMorphism, coinvariants, dual,
                          identity_morphism, op_cop, quotient_by_hopf_ideal,
                          tensor, trivial_hopf, verify_hopf, verify_morphism)
from hopfkit.errors import ConductorMismatch, NotAHopfIdeal
from hopfkit.invariants import fingerprint, grouplike_census
from hopfkit.linalg import dense_to_sparse, sparse_columns

M = 9


def kz3():
    return group_algebra(cyclic(3), M)


def test_group_algebra_axioms():
    assert verify_hopf(kz3()).ok


def test_taft_axioms(taft3):
    assert verify_hopf(taft3).ok


def test_broken_antipode_detected():
    H = kz3()
    one = CycloNum.one(M)
    z = CycloNum.zero(M)
    ident = [[one if i == j else z for j in range(3)] for i in range(3)]
    bad = FinHopf(3, M, H.mult, H.unit, H.comult, H.counit, sparse_columns(ident))
    rep = verify_hopf(bad)
    assert not rep.ok
    names = {c.name for c in rep.failures}
    assert names & {"antipode_left", "antipode_right"}


def test_dual_involution_bit_exact(taft3):
    DD = dual(dual(taft3))
    assert DD.mult == taft3.mult
    assert DD.comult == taft3.comult
    assert DD.unit == taft3.unit
    assert DD.counit == taft3.counit
    assert DD.antipode == taft3.antipode


def test_dual_verifies(taft3):
    assert verify_hopf(dual(taft3)).ok
    D = dual(kz3())
    assert verify_hopf(D).ok
    # dual of an abelian group algebra is again semisimple with 3 group-likes
    assert grouplike_census(D).size == 3


def test_op_cop(taft3):
    assert verify_hopf(op_cop(taft3, "op")).ok
    assert verify_hopf(op_cop(taft3, "cop")).ok
    assert op_cop(op_cop(taft3, "op"), "op").mult == taft3.mult
    H = kz3()
    assert op_cop(H, "cop").comult == H.comult  # cocommutative
    # op(T(q)) has the fingerprint of T(q^{-1})
    fp_op = fingerprint(op_cop(taft3, "op"))
    T2 = standard_constructors("taft", 3, 2)
    assert fp_op == fingerprint(T2)


def test_tensor(taft3):
    H = kz3()
    T = tensor(H, H)
    assert T.dim == 9
    assert verify_hopf(T).ok
    assert grouplike_census(T).size == 9
    # claims multiplicativity
    assert len(T.claims.grouplikes) == 9
    assert len(T.claims.characters) == 9
    TT = tensor(taft3, H)
    assert TT.dim == 27
    with pytest.raises(ConductorMismatch):
        tensor(H, group_algebra(cyclic(3), 3))
    # unit object
    assert tensor(H, trivial_hopf(M)).mult.entries == H.mult.entries


def test_morphisms():
    H = kz3()
    r = verify_morphism(identity_morphism(H))
    assert r.ok and r.bijective
    eps = HopfMorphism(H, trivial_hopf(M), [{0: H.counit[j]} for j in range(3)])
    r = verify_morphism(eps)
    assert r.ok and r.surjective and not r.injective
    # inversion g -> g^2 is a Hopf automorphism of an abelian group algebra
    one = CycloNum.one(M)
    z = CycloNum.zero(M)
    inv = verify_morphism(HopfMorphism(
        H, H, sparse_columns([[one, z, z], [z, z, one], [z, one, z]])))
    assert inv.ok and inv.bijective
    # g -> g, g^2 -> g is not an algebra map
    bad = verify_morphism(HopfMorphism(
        H, H, sparse_columns([[one, z, z], [z, one, one], [z, z, z]])))
    assert not bad.ok


def test_coinvariants_identity_and_counit():
    H = kz3()
    assert coinvariants(identity_morphism(H)).dim == 1
    eps = HopfMorphism(H, trivial_hopf(M), [{0: H.counit[j]} for j in range(3)])
    assert coinvariants(eps).dim == 3


def test_coinvariants_that_projection():
    # pi: that(q) -> k[Z/3], x -> 0, g -> generator; dim of coinvariants
    # is dim H / dim B by Nichols-Zoeller freeness
    H = standard_constructors("that", 3, 1)
    B = kz3()
    monos = H.monomials
    mat = [zero_vector(27, M) for _ in range(3)]
    for j, (a, c) in enumerate(monos):
        if a == (0,):
            mat[c[0] % 3][j] = CycloNum.one(M)
    pi = HopfMorphism(H, B, sparse_columns(mat))
    assert verify_morphism(pi).ok
    assert coinvariants(pi).dim == 9


def test_quotient_group_algebra():
    H9 = group_algebra(cyclic(9), M)
    one = CycloNum.one(M)
    gen = zero_vector(9, M)
    gen[3] = one
    gen[0] = -one  # g^3 - 1
    Q, proj = quotient_by_hopf_ideal(H9, [dense_to_sparse(gen)])
    assert Q.dim == 3
    assert verify_hopf(Q).ok
    rep = verify_morphism(proj)
    assert rep.ok and rep.surjective
    assert fingerprint(Q) == fingerprint(kz3())


def test_quotient_trivial_generators():
    H = kz3()
    Q, proj = quotient_by_hopf_ideal(H, [])
    assert Q is H
    Q2, _ = quotient_by_hopf_ideal(H, [{0: CycloNum.zero(M), 2: CycloNum.zero(M)}])
    assert Q2 is H


def test_quotient_rejects_non_hopf_ideal():
    # an invertible generator closes up to the whole algebra
    H9 = group_algebra(cyclic(9), M)
    v = zero_vector(9, M)
    v[1] = CycloNum.one(M)
    with pytest.raises(NotAHopfIdeal):
        quotient_by_hopf_ideal(H9, [dense_to_sparse(v)])


def test_quotient_taft_by_x_ideal(taft3):
    # <x> is a Hopf ideal of T(q); the quotient is k[Z/3]
    monos = taft3.monomials
    ix = {m: i for i, m in enumerate(monos)}
    v = zero_vector(9, M)
    v[ix[((1,), (0,))]] = CycloNum.one(M)
    Q, proj = quotient_by_hopf_ideal(taft3, [dense_to_sparse(v)])
    assert Q.dim == 3
    assert verify_hopf(Q).ok
    assert fingerprint(Q) == fingerprint(kz3())


def test_double_dual_of_double(double_taft):
    # structural sanity on a big object: double dual is bit-exact
    DD = dual(dual(double_taft))
    assert DD.mult == double_taft.mult
    assert DD.comult == double_taft.comult
