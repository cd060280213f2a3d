"""Each algebra is built, verified and analysed once.

The constructor cache is keyed on the canonical conductor, a dual member is
the `dual_cached()` of its base and is certified by transposition instead of
a second `verify_hopf`, integrals, modular elements and censuses are
memoised on the algebra, and each structure tensor builds its row view once.  The certificates of `op_cop`, `tensor` and
`quotient_by_hopf_ideal` are checked here against `verify_hopf` too.
"""

import random
import sys
from functools import lru_cache

from hopfkit import constructors, hopf, presentations
from hopfkit.cli import main
from hopfkit.constructors import corpus, group_algebra, standard_constructors
from hopfkit.cyclo import CycloNum
from hopfkit.groups import cyclic
from hopfkit.hopf import (FinHopf, dual, op_cop, quotient_by_hopf_ideal,
                          tensor, verify_hopf)
from hopfkit.invariants import (characters_census, grouplike_census,
                                integrals, modular_elements)
from hopfkit.linalg import SparseTensor3, sparse_add_into

# verify_hopf check on H*  ->  the check on H it transposes to
TRANSPOSED = {"associativity": "coassociativity",
              "coassociativity": "associativity",
              "unit": "counit", "counit": "unit",
              "antipode_left": "antipode_left",
              "antipode_right": "antipode_right"}
ALGEBRA_MAP = ("comult_algebra_map", "counit_algebra_map")


def _verdicts(H):
    return {c.name: c.ok for c in verify_hopf(H).checks}


def _assert_certificate(H, label):
    a = _verdicts(H)
    b = _verdicts(dual(H))
    assert all(a.values()) == all(b.values()), label
    for on_dual, on_H in TRANSPOSED.items():
        assert b[on_dual] == a[on_H], (label, on_dual)
    # Delta(1) = 1 (x) 1 and eps multiplicative trade places between the two
    # algebra-map checks, so only their conjunction corresponds
    assert all(b[k] for k in ALGEBRA_MAP) == all(a[k] for k in ALGEBRA_MAP), label
    return all(a.values())


def test_dual_certificate_on_corpus(corpus3):
    for label, H in corpus3.items():
        assert _assert_certificate(H, label)


def _corrupt(H, part, rng):
    """H with one entry of one structure map increased by 1."""
    n, M = H.dim, H.conductor
    one = CycloNum.one(M)
    mult, comult = H.mult, H.comult
    unit, counit = dict(H.unit), dict(H.counit)
    S = [dict(col) for col in H.antipode]
    if part in ("mult", "comult"):
        t = dict((mult if part == "mult" else comult).entries)
        key = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        t[key] = t.get(key, CycloNum.zero(M)) + one
        t = SparseTensor3.from_dict(
            (n, n, n), {k: v for k, v in t.items() if not v.is_zero()})
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


def test_dual_certificate_on_corruptions(taft3, uq3):
    for H, seeds in ((taft3, range(3)), (uq3, range(1))):
        for part in ("mult", "comult", "unit", "counit", "antipode"):
            for seed in seeds:
                Hc = _corrupt(H, part, random.Random(seed))
                assert not _assert_certificate(Hc, (H.label, part, seed))


def _assert_tensor_certificate(H, label):
    """Each axiom holds on H (x) k[Z/3] and on k[Z/3] (x) H iff it holds on H."""
    K = group_algebra(cyclic(3), H.conductor)
    a = _verdicts(H)
    for T in (tensor(H, K), tensor(K, H)):
        assert _verdicts(T) == a, (label, T.label)
    return all(a.values())


def test_tensor_certificate_on_corpus(corpus3):
    for label, H in corpus3.items():
        assert _assert_tensor_certificate(H, label)


def test_tensor_certificate_on_corruptions(taft3):
    for part in ("mult", "comult", "unit", "counit", "antipode"):
        for seed in range(3):
            Hc = _corrupt(taft3, part, random.Random(seed))
            assert not _assert_tensor_certificate(Hc, (part, seed))


def test_op_cop_certificate(corpus3, double_taft):
    for H in list(corpus3.values()) + [double_taft]:
        for which in ("op", "cop", "both"):
            assert verify_hopf(op_cop(H, which)).ok, (H.label, which)


def test_quotient_certificate(double_taft):
    one = CycloNum.one(9)
    # D(taft) by its central group-likes minus 1: dimension 27
    gens = []
    for g in double_taft.claims.central_grouplikes:
        v = dict(g)
        for i, c in double_taft.unit.items():
            sparse_add_into(v, i, -c)
        gens.append(v)
    Q, _ = quotient_by_hopf_ideal(double_taft, gens)
    assert Q.dim == 27 and verify_hopf(Q).ok
    # k[Z/9 x Z/3] by g^3 (x) 1 - 1 (x) 1: dimension 9
    H = standard_constructors("group_algebra", 3, group="z9xz3")
    Q, _ = quotient_by_hopf_ideal(H, [{9: one, 0: -one}])
    assert Q.dim == 9 and verify_hopf(Q).ok


def test_corpus_builds_and_verifies_each_algebra_once(monkeypatch):
    # a fresh constructor cache, so that corpus() builds everything
    fresh = constructors._build.__wrapped__
    monkeypatch.setattr(constructors, "_build",
                        lru_cache(maxsize=None)(fresh))
    calls = {"verify_hopf": 0, "build_from_presentation": 0}

    def counting(name, orig):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper
    for name, orig in (("verify_hopf", hopf.verify_hopf),
                       ("build_from_presentation",
                        presentations.build_from_presentation)):
        wrapped = counting(name, orig)
        for modname, mod in list(sys.modules.items()):
            if modname == "hopfkit" or modname.startswith("hopfkit."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, attr, wrapped)
    members = corpus(3, 1)
    assert len(members) == 17
    assert calls["verify_hopf"] <= 13
    assert calls["build_from_presentation"] <= 7


def test_construct_builds_each_row_view_once(monkeypatch, capsys):
    # a fresh constructor cache, so that the job builds everything
    monkeypatch.setattr(constructors, "_build", lru_cache(maxsize=None)(
        constructors._build.__wrapped__))
    orig = SparseTensor3.rows_ij
    built = []

    def counting(t):
        if t._ij is None:
            built.append(t.dims[0])
        return orig(t)
    monkeypatch.setattr(SparseTensor3, "rows_ij", counting)
    assert main(["construct", "that", "--p", "5", "--q", "2"]) == 0
    assert "type=(25;25)" in capsys.readouterr().out
    # the products of H and H* (dim 125) and of their semisimple quotients
    # (dim 25), each read by several analyses
    assert sorted(built) == [25, 25, 125, 125]


def test_default_conductor_is_the_same_object():
    for name in ("uq_sl2", "taft", "r"):
        assert standard_constructors(name, 3, 1) is \
            standard_constructors(name, 3, 1, conductor=9)
    assert standard_constructors("group_algebra", 3, group="heis") is \
        standard_constructors("group_algebra", 3, group="heis", conductor=9)


def test_dual_member_is_the_dual_of_its_base():
    for dual_name, base_name in (("dual_uq_sl2", "uq_sl2"), ("dual_r", "r")):
        D = standard_constructors(dual_name, 3, 1)
        assert D.dual_cached() is standard_constructors(base_name, 3, 1)
    for token in ("heis", "z9sz3"):
        D = standard_constructors("dual_group_algebra", 3, group=token)
        assert D.dual_cached() is \
            standard_constructors("group_algebra", 3, group=token)


def test_invariants_are_memoised(uq3):
    assert characters_census(uq3) is grouplike_census(uq3.dual_cached())
    assert grouplike_census(uq3) is grouplike_census(uq3)
    assert integrals(uq3) is integrals(uq3)
    assert modular_elements(uq3) is modular_elements(uq3)
    assert uq3.verified_grouplikes is uq3.verified_grouplikes
    assert len(uq3.verified_grouplikes) == len(uq3.claims.grouplikes) == 3
