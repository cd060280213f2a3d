"""The three tensor-leg kernels of `linalg` (`coproduct_leg`,
`functional_leg`, `contract`) against the hand-written sums they replace,
and `presentations._root`, the one scaling rule of `find_embedding`.

The oracles are the deleted loops, kept here word for word: the two sides
of coassociativity (the first is Delta^2), the counit law, the two
antipode laws, the left side of QT.2, QT.3 and QT.5, and the Drinfeld
element sums u = S(R2) R1 and u^{-1} = R2 S^2(R1).  They run on Delta(e_i)
of the p = 3 corpus, its duals, D(taft) and a rescaled relabelling of
D(taft), and on the R-matrices of u_q(sl2) and the bicharacters on k[Z/3]
and k[Z/3 x Z/3].
"""

import random

import pytest

from hopfkit.cyclo import CycloNum
from hopfkit.hopf import coassociativity_failure
from hopfkit.linalg import (compose_columns, contract, coproduct_leg,
                            functional_leg, identity_columns, sparse_add_into)
from hopfkit.presentations import _root
from test_generator_certificate import relabel

M = 9


def oracle_coassociativity(crows, i):
    """((Delta (x) id)Delta(e_i), (id (x) Delta)Delta(e_i)); the first is
    Delta^2(e_i), the deleted `FinHopf.delta2`."""
    lhs: dict = {}
    rhs: dict = {}
    for (j, k), c in crows[i]:
        for (a, b), d in crows[j]:
            sparse_add_into(lhs, (a, b, k), c * d)
        for (a, b), d in crows[k]:
            sparse_add_into(rhs, (j, a, b), c * d)
    return lhs, rhs


def oracle_counit(crows, counit, i):
    """((eps (x) id)Delta(e_i), (id (x) eps)Delta(e_i))."""
    left: dict = {}
    right: dict = {}
    for (j, k), c in crows[i]:
        if j in counit:
            sparse_add_into(left, k, c * counit[j])
        if k in counit:
            sparse_add_into(right, j, c * counit[k])
    return left, right


def oracle_antipode(H, i, side):
    """sum c side(j, k) over the terms c e_j (x) e_k of Delta(e_i)."""
    acc: dict = {}
    for (j, k), c in H.crows[i]:
        for l, d in side(j, k).items():
            sparse_add_into(acc, l, c * d)
    return acc


def oracle_qt2_lhs(crows, R):
    """(Delta (x) id)(R)."""
    lhs: dict = {}
    for (a, b), c in R.items():
        for (j, k), d in crows[a]:
            sparse_add_into(lhs, (j, k, b), c * d)
    return lhs


def oracle_qt3(H, R):
    """(eps (x) id)(R); QT.5's (id (x) eps)(R) is this on R21."""
    acc: dict = {}
    for (a, b), c in R.items():
        if a in H.counit:
            sparse_add_into(acc, b, c * H.counit[a])
    return acc


def oracle_r_sum(H, R, left, right):
    """sum c left(e_j) right(e_i) over the terms c e_i (x) e_j of R."""
    acc: dict = {}
    for (i, j), c in R.items():
        for k, d in H.mul(left[j], right[i]).items():
            sparse_add_into(acc, k, c * d)
    return acc


@pytest.fixture(scope="module")
def hosts(corpus3, double_taft):
    members = list(corpus3.values())
    return (members + [H.dual_cached() for H in members]
            + [double_taft, relabel(double_taft, random.Random(5), True)])


def test_coproduct_legs_match_the_oracle(hosts):
    for H in hosts:
        crows = H.crows
        for i in range(H.dim):
            X = dict(crows[i])
            lhs, rhs = oracle_coassociativity(crows, i)
            assert coproduct_leg(crows, X, 0) == lhs, H.label
            assert coproduct_leg(crows, X, 1) == rhs, H.label
        assert coassociativity_failure(crows) is None, H.label


def test_functional_legs_match_the_counit_oracle(hosts):
    for H in hosts:
        one = CycloNum.one(H.conductor)
        for i in range(H.dim):
            X = dict(H.crows[i])
            left, right = oracle_counit(H.crows, H.counit, i)
            assert functional_leg(H.counit, X, 0) == left == {i: one}, H.label
            assert functional_leg(H.counit, X, 1) == right == {i: one}, H.label


def test_contract_matches_the_antipode_oracle(hosts):
    for H in hosts:
        one = CycloNum.one(H.conductor)
        S, ident = H.antipode, identity_columns(H.dim, H.conductor)
        for i in range(H.dim):
            X = dict(H.crows[i])
            assert contract(H.mrows, S, ident, X) == oracle_antipode(
                H, i, lambda j, k: H.mul(S[j], {k: one})), H.label
            assert contract(H.mrows, ident, S, X) == oracle_antipode(
                H, i, lambda j, k: H.mul({j: one}, S[k])), H.label


@pytest.fixture(scope="module")
def rmatrices(uq_rmatrix, z3_bichar, z3z3_bichar):
    return [uq_rmatrix[1], *z3_bichar[1], *z3z3_bichar[1]]


def test_kernels_match_the_qt_oracles(rmatrices):
    assert len(rmatrices) == 1 + 3 + 81
    for rm in rmatrices:
        H, R = rm.host, rm.r_dict()
        R21 = {(b, a): c for (a, b), c in R.items()}
        label = (H.label, rm.R[:2])
        assert coproduct_leg(H.crows, R, 0) == oracle_qt2_lhs(H.crows, R), label
        assert functional_leg(H.counit, R, 0) == oracle_qt3(H, R) == H.unit, label
        assert functional_leg(H.counit, R, 1) == oracle_qt3(H, R21) == H.unit, label
        n, M = H.dim, H.conductor
        ident = identity_columns(n, M)
        S2 = compose_columns(H.antipode, H.antipode)
        assert contract(H.mrows, H.antipode, ident, R21) == oracle_r_sum(
            H, R, H.antipode, ident) == rm.u, label
        assert contract(H.mrows, ident, S2, R21) == oracle_r_sum(
            H, R, ident, S2), label


def test_root_of_exponent_one_is_rho():
    rho = CycloNum.from_rational(M, 7) * CycloNum.zeta(M, 1) + CycloNum.one(M)
    assert _root(rho, 1) is rho


def test_root_of_one_is_one():
    assert _root(CycloNum.one(M), 3).is_one()


def test_root_of_a_rational_times_a_root_of_unity():
    # rho = (q w)^3 for rationals q and w = +-zeta_9^k
    for q in ((1, 1), (2, 1), (2, 3)):
        for k, sign in ((0, -1), (1, 1), (4, -1), (8, 1)):
            w = CycloNum.zeta(M, k)
            s0 = (CycloNum.from_rational(M, q[0]) / CycloNum.from_rational(M, q[1])
                  * (w if sign > 0 else -w))
            rho = s0 ** 3
            s = _root(rho, 3)
            assert s is not None and s ** 3 == rho, (q, k, sign)


def test_root_none_when_no_root_is_found():
    # 2 has no cube root in Q(zeta_9), which is abelian over Q, and the
    # cube of no rational times a root of unity is 1 + zeta_9
    assert _root(CycloNum.from_rational(M, 2), 3) is None
    assert _root(CycloNum.one(M) + CycloNum.zeta(M, 1), 3) is None
