"""The entries that verify_qt, drinfeld_element and ribbon_search read from
proofs, against the direct checks they replace.

The oracles are those direct checks: the sub-Hopf sweep of K = im f_R and
L = im f_R~, the QT.4 and QT.5 loops, the ribbon axioms R.3 and R.4, and
the seven identities of the Drinfeld element u = S(R2) R1.  They run on
every verified R-matrix of the session fixtures: the bicharacters on k[Z/3]
and k[Z/3 x Z/3], the standard R on u_q(sl2), R = 1 (x) 1 on the corpus
group algebras, and the canonical R on D(k[Z/3]) and D(T(q)).
"""

import pytest

from hopfkit.constructors import (GROUP_TOKENS, drinfeld_double, group_algebra,
                                  standard_constructors)
from hopfkit.cyclo import CycloNum
from hopfkit.groups import cyclic
from hopfkit.invariants import grouplike_census
from hopfkit.linalg import (apply_tensor_columns, compose_columns,
                            identity_columns, outer, sparse_add_into, zero_free)
from hopfkit.quasitriangular import drinfeld_element, ribbon_search, verify_qt
from test_quasitriangular import M, _canonical_double_r, f_r_entry_inputs


def is_sub_hopf(H, V):
    """Unital subalgebra with Delta(V) in V (x) V and S(V) = V."""
    n, M = H.dim, H.conductor
    if V.dim == n:
        return True  # H itself
    if not V.contains(H.unit):
        return False
    basis = V.basis
    for a in basis:
        for b in basis:
            if not V.contains(H.mul(a, b)):
                return False
    # Delta(V) in V (x) H and in H (x) V
    proj, ident = V.projection_columns(), identity_columns(n, M)
    for a in basis:
        dv = H.comult_of(a)
        if (apply_tensor_columns(proj, ident, dv)
                or apply_tensor_columns(ident, proj, dv)):
            return False
    return all(V.contains(H.antipode_of(a)) for a in basis)


def qt4_holds(H, R):
    """(id (x) Delta)(R) = R13 R12, swept directly."""
    lhs: dict = {}
    for (a, b), c in R.items():
        for (j, k), d in H.crows[b]:
            sparse_add_into(lhs, (a, j, k), c * d)
    rhs: dict = {}
    for (a, b), c in R.items():
        for (a2, b2), c2 in R.items():
            cc = c * c2
            for k, ck in H.mrows[a][a2]:
                sparse_add_into(rhs, (k, b2, b), cc * ck)
    return lhs == rhs


def qt5_holds(H, R):
    """(id (x) eps)(R) = 1, swept directly."""
    acc: dict = {}
    for (a, b), c in R.items():
        if b in H.counit:
            sparse_add_into(acc, a, c * H.counit[b])
    return acc == H.unit


def drinfeld_identities(H, R, u, u_inv):
    """[(name, holds)] for the identities of u = S(R2) R1 and the given
    u^{-1}, each swept directly, in `drinfeld_element`'s order."""
    one = CycloNum.one(H.conductor)
    S2 = compose_columns(H.antipode, H.antipode)
    RtR = H.tensor_mul({(b, a): c for (a, b), c in R.items()}, R)
    du, uu = H.comult_of(u), outer(u, u)
    return [
        ("u_invertible", H.mul(u, u_inv) == H.unit == H.mul(u_inv, u)),
        ("S2_inner_by_u", all(S2[h] == H.mul(u, H.mul({h: one}, u_inv))
                              for h in range(H.dim))),
        ("eps_u_is_1", H.counit_of(u).is_one()),
        ("Delta_u_left", H.tensor_mul(RtR, du) == uu),
        ("Delta_u_right", H.tensor_mul(du, RtR) == uu),
        ("uSu_central", H.is_central(H.mul(u, H.antipode_of(u)))),
        ("u_commutes_with_grouplikes", all(
            H.mul(u, g) == H.mul(g, u) for g in H.verified_grouplikes)),
    ]


def ribbon_sweep(rm):
    """(ribbon elements, failures) of the full R.1-R.5 sweep over the
    candidates S(l) u, each failure naming the candidate's first failing axiom."""
    H, u = rm.host, rm.u
    R = rm.r_dict()
    RtR = H.tensor_mul({(b, a): c for (a, b), c in R.items()}, R)
    usu = H.mul(u, H.antipode_of(u))
    axioms = (
        ("R.1", lambda v: H.mul(v, v) == usu),
        ("R.2", lambda v: H.antipode_of(v) == v),
        ("R.3", lambda v: H.counit_of(v).is_one()),
        ("R.4", lambda v: H.tensor_mul(RtR, H.comult_of(v)) == outer(v, v)),
        ("R.5", H.is_central),
    )
    ribbons, fails = [], []
    for idx, l in enumerate(grouplike_census(H).elements):
        v = H.mul(H.antipode_of(l), u)
        failing = next((name for name, holds in axioms if not holds(v)), None)
        if failing is None:
            ribbons.append(v)
        else:
            fails.append((idx, failing))
    return tuple(ribbons), tuple(fails)


@pytest.fixture(scope="module")
def verified(z3_bichar, z3z3_bichar, uq_rmatrix, taft3, double_taft):
    rms = [rm for _, rms in (z3_bichar, z3z3_bichar) for rm in rms]
    rms.append(uq_rmatrix[1])
    for token in GROUP_TOKENS:
        H = standard_constructors("group_algebra", 3, group=token)
        rms.append(verify_qt(H, outer(H.unit, H.unit))[1])
    H3 = group_algebra(cyclic(3), M)
    for H, D in ((H3, drinfeld_double(H3)), (taft3, double_taft)):
        rms.append(verify_qt(D, _canonical_double_r(H, D))[1])
    assert None not in rms
    return rms


def test_k_and_l_are_sub_hopf(verified):
    for rm in verified:
        assert is_sub_hopf(rm.host, rm.K) and is_sub_hopf(rm.host, rm.L), rm.host.label
        assert rm.K.dim == rm.L.dim == rm.rank


def test_drinfeld_entries_match_the_direct_identities(verified):
    for rm in verified:
        H = rm.host
        R = rm.r_dict()
        one = CycloNum.one(H.conductor)
        u = {}  # S(R2) R1, term by term
        for (a, b), c in R.items():
            for k, d in H.mul(H.antipode_of({b: c}), {a: one}).items():
                sparse_add_into(u, k, d)
        dr = drinfeld_element(rm)
        assert dr.u == rm.u == u, H.label
        identities = drinfeld_identities(H, R, u, dr.u_inv)
        assert [(c.name, c.ok) for c in dr.checks] == identities, H.label
        assert all(holds for _, holds in identities), H.label


def test_ribbon_search_matches_the_full_axiom_sweep(verified):
    # every candidate satisfies R.3 and R.4, those failing R.1 included, so
    # the search that skips them names the same first failing axiom; R.4
    # rests on Delta u = (R21 R)^{-1} (u (x) u), swept by the test above
    r1_failures = 0
    for rm in verified:
        ribbons, fails = ribbon_sweep(rm)
        assert all(axiom in ("R.1", "R.2", "R.5") for _, axiom in fails)
        r1_failures += sum(axiom == "R.1" for _, axiom in fails)
        rc = ribbon_search(rm)
        assert (rc.ribbon_elements, rc.failures) == (ribbons, fails)
    assert r1_failures > 0


def test_qt4_and_qt5_entries_match_the_direct_loops(z3_bichar, z3z3_bichar,
                                                   uq_rmatrix, corpus3):
    inputs, z3_inputs, one_sided = f_r_entry_inputs(
        z3_bichar, z3z3_bichar, uq_rmatrix, corpus3)
    verdicts = set()
    for H, R in inputs + z3_inputs + one_sided:
        qt4, qt5 = verify_qt(H, R)[0].checks[3:5]
        R = zero_free(R)
        expected = (qt4_holds(H, R), qt5_holds(H, R))
        assert (qt4.name, qt5.name) == ("QT.4", "QT.5")
        assert qt4.first_failure == (None if expected[0] else ("QT.4",))
        assert qt5.first_failure == (None if expected[1] else ("QT.5",))
        verdicts.add(expected)
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
