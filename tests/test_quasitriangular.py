import random
import sys
from itertools import product

import pytest

from hopfkit.cyclo import CycloNum
from hopfkit.constructors import group_algebra
from hopfkit.errors import FieldTooSmall
from hopfkit.groups import cyclic
from hopfkit.hopf import op_cop
from hopfkit.invariants import semisimplicity
from dense_oracle import dense_rows
from hopfkit.linalg import dense_to_sparse, sparse_add_into, sparse_to_dense
from hopfkit.quasitriangular import (bicharacter_rmatrices, double_surjection_check,
                                     drinfeld_element, f_matrices, ribbon_search,
                                     uq_standard_rmatrix, verify_qt)

M = 9


def trivial_r(H):
    u = H.unit
    return {(a, b): ca * cb for a, ca in u.items() for b, cb in u.items()}


def test_trivial_r_on_group_algebra():
    H = group_algebra(cyclic(3), M)
    rep, rm = verify_qt(H, trivial_r(H))
    assert rm is not None
    assert rm.rank == 1 and not rm.minimal
    dr = drinfeld_element(rm)
    assert dr.ok
    assert dr.u == H.unit


def test_trivial_r_fails_on_taft(taft3):
    # T(q) is not cocommutative: QT.1 must fail
    rep, rm = verify_qt(taft3, trivial_r(taft3))
    assert rm is None
    assert rep.checks[0].name == "QT.1" and not rep.checks[0].ok


def test_bicharacter_counts_z3(z3_bichar):
    H, rms = z3_bichar
    assert len(rms) == 3
    assert sorted(rm.rank for rm in rms) == [1, 3, 3]
    for rm in rms:
        assert rm.K.dim == rm.L.dim == rm.rank


def test_bicharacter_counts_z3z3(z3z3_bichar):
    H, rms = z3z3_bichar
    assert len(rms) == 81


def test_semisimple_host_u_fixed_by_antipode(z3_bichar, z3z3_bichar):
    for H, rms in (z3_bichar, z3z3_bichar):
        assert semisimplicity(H).semisimple
        for rm in rms:
            su = rm.u
            assert H.antipode_of(su) == su


def test_field_too_small_for_bicharacters():
    with pytest.raises(FieldTooSmall):
        bicharacter_rmatrices((3,), 8)


def test_f_matrices_transpose_relation(z3_bichar):
    H, rms = z3_bichar
    for rm in rms:
        n = H.dim
        fR, fRt = (dense_rows(f, n, M) for f in f_matrices(H, rm.r_dict()))
        assert all(fRt[i][j] == fR[j][i] for i in range(n) for j in range(n))


def test_uq_standard_rmatrix(uq_rmatrix):
    Hu, rm = uq_rmatrix
    assert rm.minimal
    assert rm.rank == 9
    assert rm.K.dim == rm.L.dim == 9
    dr = drinfeld_element(rm)
    assert dr.ok
    # S^2 = conjugation by g, so u g^{-1} is central
    monos = Hu.monomials
    ix = {m: i for i, m in enumerate(monos)}
    one = CycloNum.one(M)
    g_inv = {ix[((0, 0), (2,))]: one}
    z = Hu.mul(dr.u, g_inv)
    for j in range(27):
        assert Hu.mul(z, {j: one}) == Hu.mul({j: one}, z)


def test_uq_modular_image_under_f_r(uq_rmatrix):
    # alpha = eps for the unimodular u_q, so f_R(alpha) = (eps (x) id)R = 1
    from hopfkit.invariants import modular_elements
    Hu, rm = uq_rmatrix
    mod = modular_elements(Hu)
    assert mod.alpha == Hu.counit
    fR = dense_rows(f_matrices(Hu, rm.r_dict())[0], 27, M)
    img: dict = {}
    for a, c in mod.alpha.items():
        if not c.is_zero():
            for k in range(27):
                if not fR[k][a].is_zero():
                    from hopfkit.linalg import sparse_add_into
                    sparse_add_into(img, k, c * fR[k][a])
    assert img == Hu.unit


def test_r21_on_cop(uq_rmatrix, z3_bichar):
    # (H^cop, R21) is again quasitriangular
    Hu, rm = uq_rmatrix
    R21 = {(b, a): c for (a, b), c in rm.r_dict().items()}
    rep, rm2 = verify_qt(op_cop(Hu, "cop"), R21)
    assert rm2 is not None
    H3, rms = z3_bichar
    for rm3 in rms:
        R21 = {(b, a): c for (a, b), c in rm3.r_dict().items()}
        rep, got = verify_qt(op_cop(H3, "cop"), R21)
        assert got is not None


def test_ribbon_uq(uq_rmatrix):
    Hu, rm = uq_rmatrix
    rc = ribbon_search(rm)
    assert len(rc.ribbon_elements) >= 1
    assert len(rc.candidate_grouplikes) == 3  # |G(u_q)| candidates: exhaustive
    one = CycloNum.one(M)
    for v in rc.ribbon_elements:
        sv = v
        assert Hu.antipode_of(sv) == sv
        for j in range(27):
            assert Hu.mul(sv, {j: one}) == Hu.mul({j: one}, sv)


def test_ribbon_z27_trivial_r():
    H = group_algebra(cyclic(27), 27)
    rep, rm = verify_qt(H, trivial_r(H))
    assert rm is not None
    rc = ribbon_search(rm)
    # R.1 forces l^2 = 1, and the group has odd order: only v = 1 survives
    assert len(rc.ribbon_elements) == 1
    assert rc.ribbon_elements[0] == H.unit
    assert len(rc.candidate_grouplikes) == 27


def test_double_surjection_bicharacters(z3_bichar):
    H, rms = z3_bichar
    for rm in rms:
        f, rep, central_ok = double_surjection_check(H, rm)
        assert rep.ok and rep.surjective and central_ok
        # nondegenerate bicharacters have bijective f_R, trivial one rank 1
        assert f.rank == 3


def test_f_maps_wrapper(uq_rmatrix):
    from hopfkit.linalg import image, transpose_columns
    Hu, rm = uq_rmatrix
    fR, fRt = f_matrices(Hu, rm.r_dict())
    assert fRt == transpose_columns(fR, 27)  # f_R~ = (f_R)*
    # rank of f_R as a matrix equals the cached rank
    assert image(fR, 27, M).dim == rm.rank


def test_drinfeld_identities_bicharacters(z3_bichar):
    # verify_qt passing implies a clean Drinfeld identity report
    H, rms = z3_bichar
    for rm in rms:
        assert drinfeld_element(rm).ok


def _canonical_double_r(H, D):
    # R = sum_a (eps # e_a) (x) (beta_a # 1) on D(H) = H*^cop (x) H
    n = H.dim
    R = {}
    ui = min(H.unit)
    for a in range(n):
        right = a * n + ui
        for j, c in H.counit.items():
            R[(j * n + a, right)] = c
    return R


def test_canonical_r_on_double_of_group_algebra():
    from hopfkit.constructors import drinfeld_double
    H = group_algebra(cyclic(3), M)
    D = drinfeld_double(H)
    rep, rm = verify_qt(D, _canonical_double_r(H, D))
    assert rm is not None, rep
    assert rm.minimal
    dr = drinfeld_element(rm)
    assert dr.ok


def test_canonical_r_on_double_of_taft(double_taft, taft3):
    # the strongest consistency check of the double conventions: the
    # canonical R must satisfy every QT axiom on the 81-dim double
    rep, rm = verify_qt(double_taft, _canonical_double_r(taft3, double_taft))
    assert rm is not None, rep
    assert rm.rank == 9
    assert rm.K.dim == rm.L.dim == 9
    assert rm.minimal
    assert drinfeld_element(rm).ok


def test_ribbon_on_bicharacter_host(z3_bichar):
    H, rms = z3_bichar
    for rm in rms:
        rc = ribbon_search(rm)
        # odd group order: R.1 pins l = 1, so v = u is the only candidate
        assert len(rc.ribbon_elements) == 1
        assert rc.ribbon_elements[0] == rm.u


def test_uq_is_central_quotient_of_taft_double(double_taft, taft3, uq3):
    # quotient of D(T(q)) by its central group-likes: dimension 27, carries
    # the pushed-forward canonical R, and is isomorphic to u_q(sl2)
    from hopfkit.hopf import quotient_by_hopf_ideal, verify_morphism
    from hopfkit.invariants import fingerprint
    from hopfkit.presentations import find_embedding
    from hopfkit.linalg import sparse_add_into
    unit = sparse_to_dense(double_taft.unit, 81, M)
    gens = [dense_to_sparse([a - b for a, b in zip(sparse_to_dense(v, 81, M), unit)])
            for v in double_taft.claims.central_grouplikes]
    Q, proj = quotient_by_hopf_ideal(double_taft, gens)
    assert Q.dim == 27
    RD = _canonical_double_r(taft3, double_taft)
    RQ = {}
    A = dense_rows(proj.cols, Q.dim, M)
    for (I, J), c in RD.items():
        for i2 in range(Q.dim):
            if A[i2][I].is_zero():
                continue
            ci = c * A[i2][I]
            for j2 in range(Q.dim):
                if not A[j2][J].is_zero():
                    sparse_add_into(RQ, (i2, j2), ci * A[j2][J])
    rep, rm = verify_qt(Q, RQ)
    assert rm is not None, rep
    assert rm.rank == 9 and rm.minimal
    assert fingerprint(Q) == fingerprint(uq3)
    f = find_embedding(uq3, Q)
    r = verify_morphism(f)
    assert r.ok and r.bijective


def _wrap_everywhere(monkeypatch, orig, wrapper):
    for mod in list(sys.modules.values()):
        if mod.__name__ == "hopfkit" or mod.__name__.startswith("hopfkit."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, wrapper)


def f_r_entry_inputs(z3_bichar, z3z3_bichar, uq_rmatrix, corpus3):
    """(inputs, z3_inputs, one_sided): the (H, R) pairs on which the
    f_R_bialgebra_map entry is compared with the map check it replaces."""
    from hopfkit.linalg import outer
    inputs = [(H, rm.r_dict()) for H, rms in (z3_bichar, z3z3_bichar) for rm in rms]
    Hu, rm = uq_rmatrix
    inputs.append((Hu, rm.r_dict()))
    for seed in range(6):
        rng = random.Random(seed)
        R = rm.r_dict()
        k = (rng.randrange(27), rng.randrange(27))
        R[k] = R.get(k, CycloNum.zero(M)) + CycloNum.one(M)
        inputs.append((Hu, {p: c for p, c in R.items() if not c.is_zero()}))
    inputs += [(H, outer(H.unit, H.unit)) for H in corpus3.values()]
    H3 = group_algebra(cyclic(3), M)
    z3_inputs = [(H3, {(a, b): CycloNum.from_rational(M, c)})
                 for a in range(3) for b in range(3) for c in (1, 2)]
    z3_inputs.append((H3, {}))
    # R = sum_chi E_chi (x) g^lam(chi), E_chi the idempotents of k[Z/3] and
    # lam(0) = 0: QT.3-QT.5 hold, and QT.2 holds iff lam is additive; the
    # flipped R fails QT.4 alone in the same way
    w = CycloNum.zeta(M, 3)
    third = CycloNum.one(M) / CycloNum.from_rational(M, 3)
    idem = [{i: third * w ** ((-chi * i) % 3) for i in range(3)} for chi in range(3)]
    one_sided = []
    for lam in product(range(3), repeat=2):
        R = {}
        for chi, l in enumerate((0,) + lam):
            for i, c in idem[chi].items():
                sparse_add_into(R, (i, l), c)
        one_sided += [(H3, R), (H3, {(b, a): c for (a, b), c in R.items()})]
    return inputs, z3_inputs, one_sided


def test_f_r_entry_is_qt2_to_qt5(monkeypatch, z3_bichar, z3z3_bichar,
                                 uq_rmatrix, corpus3):
    """The f_R_bialgebra_map entry against the map check it replaces:
    verify_morphism of f_R : H*^cop -> H, on valid R-matrices, seeded
    bumps of the u_q one, R = 1 (x) 1 on the corpus, and R = 0, the
    one-entry R and R failing QT.2 alone or QT.4 alone on k[Z/3]; verify_qt
    builds no H*^cop and checks no map.  No R fails QT.3 or QT.5 alone:
    given QT.2 and QT.4, (eps (x) id)(R) and (id (x) eps)(R) are each 0 or 1,
    and both have the counit eps (x) eps (R)."""
    from hopfkit.hopf import HopfMorphism, verify_morphism

    def oracle(H, R):
        fR, _ = f_matrices(H, R)
        return verify_morphism(HopfMorphism(op_cop(H.dual_cached(), "cop"), H, fR)).ok

    calls = []
    for orig in (verify_morphism, op_cop):
        def recording(*args, _orig=orig, **kw):
            calls.append(_orig.__name__)
            return _orig(*args, **kw)
        _wrap_everywhere(monkeypatch, orig, recording)

    inputs, z3_inputs, one_sided = f_r_entry_inputs(
        z3_bichar, z3z3_bichar, uq_rmatrix, corpus3)

    def checked(H, R):
        """The QT.1-f_R verdicts, after comparing the entry with the oracle."""
        rep, _ = verify_qt(H, R)
        assert calls == []
        entry = rep.checks[7]
        assert entry.name == "f_R_bialgebra_map"
        expected = oracle(H, R)
        calls.clear()
        assert entry.ok == expected
        assert entry.first_failure == (None if expected else ("f_R",))
        return tuple(c.ok for c in rep.checks[:8])

    for H, R in inputs:
        checked(H, R)
    # QT.2 and QT.3 passing with QT.4 failing, and the reverse, both occur
    z3_patterns = {checked(H, R) for H, R in z3_inputs}
    assert len(z3_patterns) == 6
    assert any(p[1] and p[2] and not p[3] for p in z3_patterns)
    assert any(p[3] and p[4] and not p[1] for p in z3_patterns)
    # each of QT.2 and QT.4 fails with the other three passing
    qt2_to_5 = {checked(H, R)[1:5] for H, R in one_sided}
    assert {(False, True, True, True), (True, True, False, True)} <= qt2_to_5
