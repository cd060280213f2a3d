import random
import re

import pytest

from hopfkit.cyclo import CycloNum
from hopfkit.constructors import (book_spec, r_spec, standard_constructors,
                                  taft_spec, that_spec, ttilde_spec,
                                  uq_sl2_spec)
from hopfkit.errors import (AxiomFailure, NonMonomialConstraint,
                            NonTerminatingRewrite)
from hopfkit.hopf import verify_hopf
from hopfkit.presentations import (GroupGen, PresentationSpec, SkewGen,
                                   build_from_presentation, find_embedding,
                                   solve_characters)

from rewrite_oracle import oracle_mult

M = 9


def test_taft_structure(taft3):
    assert taft3.dim == 9
    monos = taft3.monomials
    ix = {m: i for i, m in enumerate(monos)}
    one = CycloNum.one(M)
    x = ix[((1,), (0,))]
    g = ix[((0,), (1,))]
    e = ix[((0,), (0,))]
    dx = {(j, k): c for (i, j, k), c in taft3.comult.entries if i == x}
    # Delta x = x (x) 1 + g (x) x
    assert dx == {(x, e): one, (g, x): one}
    # S(x) = -g^{-1} x = -q^2 (x g^2) in normal form
    q = CycloNum.zeta(M, 3)
    assert taft3.antipode[x] == {ix[((1,), (2,))]: -(q * q)}


def test_uq_commutation_relation(uq3):
    # y x must rewrite to x y - g + g^{-1}
    monos = uq3.monomials
    ix = {m: i for i, m in enumerate(monos)}
    one = CycloNum.one(M)
    x = ix[((1, 0), (0,))]
    y = ix[((0, 1), (0,))]
    xy = ix[((1, 1), (0,))]
    g = ix[((0, 0), (1,))]
    g2 = ix[((0, 0), (2,))]
    prod = uq3.mul({y: one}, {x: one})
    assert prod == {xy: one, g: -one, g2: one}


def test_r_power_relation():
    R = standard_constructors("r", 3, 1)
    monos = R.monomials
    ix = {m: i for i, m in enumerate(monos)}
    one = CycloNum.one(M)
    x = ix[((1,), (0,))]
    x2 = ix[((2,), (0,))]
    e = ix[((0,), (0,))]
    g3 = ix[((0,), (3,))]
    # x * x^2 = x^3 = 1 - g^3
    assert R.mul({x: one}, {x2: one}) == {e: one, g3: -one}


def test_rewrite_associativity_smoke(uq3):
    # spot-check on random monomial triples (full check is verify_hopf)
    rng = random.Random(123)
    one = CycloNum.one(M)
    for _ in range(100):
        i, j, k = (rng.randrange(27) for _ in range(3))
        a = uq3.mul(uq3.mul({i: one}, {j: one}), {k: one})
        b = uq3.mul({i: one}, uq3.mul({j: one}, {k: one}))
        assert a == b


def test_theta_is_memoised_per_group_and_x_exponent(monkeypatch, uq3):
    """The scalar theta(w, b) of g^w x^b = theta(w, b) x^b g^w depends only
    on (w, b) and is memoised per pair: building u_q(sl2) at p = 3 takes 32
    `CycloNum.__pow__` calls (854 when every monomial product recomputed
    it)."""
    from hopfkit.constructors import uq_sl2_spec
    spec = uq_sl2_spec(3, 1, M)
    pow_, calls = CycloNum.__pow__, []

    def counting(self, e):
        calls.append(e)
        return pow_(self, e)

    monkeypatch.setattr(CycloNum, "__pow__", counting)
    H = build_from_presentation(spec)
    monkeypatch.undo()
    assert len(calls) == 32
    assert H.mult == uq3.mult and H.comult == uq3.comult
    assert H.antipode == uq3.antipode


def test_solve_characters_counts(taft3, uq3, book1):
    assert len(taft3.claims.characters) == 3
    assert len(uq3.claims.characters) == 1
    assert len(book1.claims.characters) == 3
    assert len(standard_constructors("r", 3, 1).claims.characters) == 3
    assert len(standard_constructors("that", 3, 1).claims.characters) == 9
    assert len(standard_constructors("ttilde", 3, 1).claims.characters) == 9


def test_characters_match_dual_census(taft3, uq3):
    from hopfkit.invariants import characters_census
    assert characters_census(taft3).size == len(taft3.claims.characters)
    assert characters_census(uq3).size == len(uq3.claims.characters)


def test_admissibility_checks():
    q = CycloNum.zeta(M, 3)
    with pytest.raises(NonTerminatingRewrite):
        PresentationSpec(M, [GroupGen("g", 3)],
                         [SkewGen("x", 1, {}, u=(0,), v=(1,))], theta=[[q]])
    with pytest.raises(NonTerminatingRewrite):
        PresentationSpec(M, [GroupGen("g", 3)],
                         [SkewGen("x", 3, {}, u=(0,), v=(1,))],
                         theta=[[CycloNum.zero(M)]])
    # rule must move later generators past earlier ones
    one = CycloNum.one(M)
    with pytest.raises(NonTerminatingRewrite):
        PresentationSpec(M, [GroupGen("g", 3)],
                         [SkewGen("x", 3, {}, u=(0,), v=(1,)),
                          SkewGen("y", 3, {}, u=(0,), v=(1,))],
                         theta=[[q, q]], theta_x={(0, 1): one})


def test_non_monomial_character_constraint():
    # a skew generator commuting with everything but with nonzero power
    # value cannot be sent to 0: outside the supported class
    one = CycloNum.one(M)
    spec = PresentationSpec(
        M, [GroupGen("g", 3)],
        [SkewGen("x", 3, {(0,): one}, u=(0,), v=(1,))],
        theta=[[one]])
    with pytest.raises(NonMonomialConstraint):
        solve_characters(spec)


def test_find_embedding_identity(taft3):
    f = find_embedding(taft3, taft3)
    from hopfkit.hopf import verify_morphism
    rep = verify_morphism(f)
    assert rep.ok and rep.bijective


def test_presented_corpus_verifies():
    for name in ("taft", "ttilde", "that", "r", "uq_sl2"):
        H = standard_constructors(name, 3, 2)
        assert verify_hopf(H).ok, name


def test_find_embedding_inhomogeneous_power():
    # x^p = 1 - g^p pins the image scalar to a p-th root; the self-map
    # search must solve for it
    from hopfkit.hopf import verify_morphism
    R = standard_constructors("r", 3, 1)
    f = find_embedding(R, R)
    assert verify_morphism(f).bijective


def _rescaled(H, lam):
    """H in the basis e'_i = lam[i] e_i, for nonzero field values lam[i]."""
    from hopfkit.hopf import ClaimSet, FinHopf
    from hopfkit.linalg import SparseTensor3
    n, M = H.dim, H.conductor
    inv = [c.inverse() for c in lam]
    mult = {(i, j, k): c * lam[i] * lam[j] * inv[k]
            for (i, j, k), c in H.mult.entries}
    comult = {(i, j, k): c * lam[i] * inv[j] * inv[k]
              for (i, j, k), c in H.comult.entries}
    S = [{a: c * lam[j] * inv[a] for a, c in col.items()}
         for j, col in enumerate(H.antipode)]
    claims = ClaimSet([{i: c * inv[i] for i, c in g.items()}
                       for g in H.claims.grouplikes])
    return FinHopf(n, M, SparseTensor3.from_dict((n, n, n), mult),
                   {i: c * inv[i] for i, c in H.unit.items()},
                   SparseTensor3.from_dict((n, n, n), comult),
                   {i: c * lam[i] for i, c in H.counit.items()}, S, claims,
                   label=f"{H.label}:rescaled")


def test_find_embedding_rescales_by_a_root_of_unity():
    # r(p=3) into its copy in the basis e'(x^a g^c) = zeta_9^a x^a g^c: the
    # solved image of x is e'(x) = zeta_9 x, whose cube is zeta_3 (1 - g^3),
    # so x^3 = 1 - g^3 holds only after the image is rescaled by a root of
    # unity s with s^3 = zeta_3^-1
    from hopfkit.hopf import verify_morphism
    R = standard_constructors("r", 3, 1)
    target = _rescaled(R, [CycloNum.zeta(M, a) for (a,), _ in R.monomials])
    assert verify_hopf(target).ok
    f = find_embedding(R, target)
    rep = verify_morphism(f)
    assert rep.ok and rep.bijective and f.rank == 27
    x = R.monomials.index(((1,), (0,)))
    (i, s), = f.cols[x].items()
    assert R.monomials[i] == ((1,), (0,))
    assert s ** 3 == CycloNum.zeta(M, 6) and not (s ** 3).is_one()


def test_find_embedding_rescales_by_a_rational_times_a_root_of_unity():
    # r(p=3) into its copy in the basis e'(x^a g^c) = 2^a x^a g^c: the image
    # of x must be rescaled by s with s^3 a rational multiple of a root of
    # unity, which no root of unity alone meets
    from hopfkit.hopf import verify_morphism
    R = standard_constructors("r", 3, 1)
    two = CycloNum.from_rational(M, 2)
    target = _rescaled(R, [two ** a for (a,), _ in R.monomials])
    assert verify_hopf(target).ok
    f = find_embedding(R, target)
    assert f.rank == 27
    rep = verify_morphism(f)
    assert rep.ok and rep.bijective


def test_find_embedding_pins_a_scale_through_the_corr_relation(uq3):
    # u_q(sl2) into its copy in the basis e'(x^a y^b g^c) = 2^a 3^b x^a y^b g^c:
    # yx = xy - (g - g^-1) holds for the solved images only after the image
    # of y is rescaled by the ratio of the two sides, a rational here
    from hopfkit.hopf import verify_morphism
    two, three = CycloNum.from_rational(M, 2), CycloNum.from_rational(M, 3)
    target = _rescaled(uq3, [two ** a * three ** b
                             for (a, b), _ in uq3.monomials])
    assert verify_hopf(target).ok
    f = find_embedding(uq3, target)
    rep = verify_morphism(f)
    assert rep.ok and rep.bijective and f.rank == 27


def test_taft_self_duality_explicit_iso(taft3):
    from hopfkit.hopf import dual, verify_morphism
    f = find_embedding(taft3, dual(taft3))
    r = verify_morphism(f)
    assert r.ok and r.bijective


def test_taft_op_cop_isomorphism_chain(taft3):
    # T(q)*^cop ~ T(q)^op ~ T(q^{-1}), via explicitly found maps
    from hopfkit.hopf import dual, op_cop, verify_morphism
    T2 = standard_constructors("taft", 3, 2)
    for target in (op_cop(taft3, "op"), op_cop(dual(taft3), "cop")):
        f = find_embedding(T2, target)
        r = verify_morphism(f)
        assert r.ok and r.bijective


def test_find_embedding_among_presented_members_and_duals():
    """All 100 same-dimension pairs of the presented p = 3 members against
    the members and their duals: the 17 known embeddings (h(q,m)* = h(q,-m),
    T~(q) independent of the root and dual to T^(q)) are found and verify,
    every other pair raises NoEmbeddingFound.  This runs the rescaling of
    the skew images both where it succeeds and where it fails."""
    from hopfkit.errors import NoEmbeddingFound
    from hopfkit.hopf import verify_morphism
    members = {"taft": ("taft", {}), "ttilde0": ("ttilde", {"root": 0}),
               "ttilde1": ("ttilde", {"root": 1}), "that": ("that", {}),
               "r": ("r", {}), "uq": ("uq_sl2", {}),
               "book1": ("book", {"m": 1}), "book2": ("book", {"m": 2})}
    sources = {k: standard_constructors(name, 3, 1, **kw)
               for k, (name, kw) in members.items()}
    targets = dict(sources)
    targets.update({k + "*": H.dual_cached() for k, H in sources.items()})
    found, pairs = set(), 0
    for ks, S in sources.items():
        for kt, T in targets.items():
            if S.dim != T.dim:
                continue
            pairs += 1
            try:
                f = find_embedding(S, T)
            except NoEmbeddingFound:
                continue
            assert verify_morphism(f).ok, (ks, kt)
            found.add((ks, kt))
    assert pairs == 100
    assert found == {(k, k) for k in members} | {
        ("taft", "taft*"), ("ttilde0", "ttilde1"), ("ttilde1", "ttilde0"),
        ("ttilde0", "that*"), ("ttilde1", "that*"), ("that", "ttilde0*"),
        ("that", "ttilde1*"), ("book1", "book2*"), ("book2", "book1*")}


def _specs(p, M):
    """Every presented family at (p, M), for e = 1 and 2: taft, that, r,
    u_q(sl2), ttilde for each root and book for each m."""
    for e in (1, 2):
        yield from (taft_spec(p, e, M), that_spec(p, e, M), r_spec(p, e, M),
                    uq_sl2_spec(p, e, M))
        yield from (ttilde_spec(p, e, root, M) for root in range(p))
        yield from (book_spec(p, e, m, M) for m in range(1, p))


@pytest.mark.parametrize("conductor", [9, 27])
def test_product_table_matches_rewrite_oracle(conductor):
    """The table built along the monomials' words equals the rewriting
    engine's n^2 monomial products on the 18 presentations at p = 3."""
    specs = list(_specs(3, conductor))
    assert len(specs) == 18
    for spec in specs:
        assert build_from_presentation(spec).mult == oracle_mult(spec), spec.label


@pytest.mark.slow
def test_product_table_matches_rewrite_oracle_p5():
    specs = list(_specs(5, 25))
    assert len(specs) == 26
    for spec in specs:
        assert build_from_presentation(spec).mult == oracle_mult(spec), spec.label


def _respec(spec, label, skew_gens=None, corr=None):
    return PresentationSpec(spec.conductor, spec.group_gens,
                            skew_gens or spec.skew_gens, spec.theta,
                            spec.theta_x, corr or spec.corr, label)


def test_inconsistent_power_value_fails_self_validation():
    # x^3 = 1 + g^3 in r(q): Delta(x)^3 is not Delta(1 + g^3)
    one = CycloNum.one(M)
    spec = r_spec(3, 1, M)
    x = spec.skew_gens[0]
    bad = _respec(spec, "r-bad-power", skew_gens=[
        SkewGen("x", 3, {(0,): one, (3,): one}, x.u, x.v)])
    with pytest.raises(AxiomFailure) as exc:
        build_from_presentation(bad)
    assert str(exc.value) == (
        "presentation 'r-bad-power' failed verification: "
        "[comult_algebra_map: FAIL at (9, 18), "
        "counit_algebra_map: FAIL at (9, 18)]")


def test_inconsistent_correction_fails_self_validation():
    # yx = xy + g + g^-1 in u_q(sl2): the correction is not skew-primitive
    one = CycloNum.one(M)
    bad = _respec(uq_sl2_spec(3, 1, M), "uq-bad-corr",
                  corr={(1, 0): {(1,): one, (2,): one}})
    with pytest.raises(AxiomFailure) as exc:
        build_from_presentation(bad)
    assert str(exc.value) == (
        "presentation 'uq-bad-corr' failed verification: "
        "[comult_algebra_map: FAIL at (3, 9), "
        "counit_algebra_map: FAIL at (3, 9)]")


def test_non_associative_presentation_fails_self_validation():
    """x^3 = g in a Taft-like algebra with gx = q xg: g x^3 = q^3 x^3 g
    holds, but (x x^2) x = g x and x (x^2 x) = x g = q^-1 g x differ, so
    the table is not associative.  Its first failing index depends on the
    order the table is filled in, so only the axiom names are pinned."""
    one = CycloNum.one(M)
    spec = taft_spec(3, 1, M)
    x = spec.skew_gens[0]
    bad = _respec(spec, "taft-bad-power",
                  skew_gens=[SkewGen("x", 3, {(1,): one}, x.u, x.v)])
    with pytest.raises(AxiomFailure) as exc:
        build_from_presentation(bad)
    assert re.findall(r"(\w+): FAIL", str(exc.value)) == [
        "associativity", "comult_algebra_map", "counit_algebra_map"]
