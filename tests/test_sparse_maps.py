"""The sparse-column view of linear maps against the dense matrix products
it replaced: the antipode order, Tr S^2, Radford's S^4 formula and the
Drinfeld element, on the p = 3 corpus, its opposites (antipode S^{-1})
and D(taft); the zero-free invariant of every stored map, morphism, unit
and counit; and the projected quotient multiplication against reduction
modulo the ideal."""

import random

import pytest

from dense_oracle import dense_rows, identity_matrix, mat_eq, mat_trace, mat_vec
from hopfkit.cyclo import CycloNum
from hopfkit.errors import BoundExceeded
from hopfkit.constructors import resolve_fixture_target, standard_constructors
from hopfkit.hopf import (FinHopf, HopfMorphism, embed_hopf, identity_morphism,
                          op_cop, quotient_by_hopf_ideal, tensor, verify_hopf,
                          verify_morphism)
from hopfkit.hopffile import dumps, loads
from hopfkit.invariants import (antipode_order, modular_elements,
                                radford_s4_check, semisimplicity)
from hopfkit.linalg import (SparseTensor3, apply_columns, compose_columns,
                            dense_to_sparse, ideal_closure,
                            mat_mul, outer, quotient_mult,
                            sparse_add_into, sparse_columns, sparse_to_dense)
from hopfkit.presentations import find_embedding
from hopfkit.quasitriangular import drinfeld_element, verify_qt

M = 9


def dense_powers(H):
    """[S, S^2, ...] by dense mat_mul, up to S^(ord S) and at least S^4."""
    n = H.dim
    S = dense_rows(H.antipode, n, H.conductor)
    ident = identity_matrix(n, H.conductor)
    powers = [S]
    while len(powers) < 4 or not any(mat_eq(P, ident) for P in powers):
        assert len(powers) <= 4 * n * n
        powers.append(mat_mul(powers[-1], S))
    return powers


def dense_order(powers):
    ident = identity_matrix(len(powers[0]), powers[0][0][0].M)
    return next(k for k, P in enumerate(powers, 1) if mat_eq(P, ident))


def delta2(H, i):
    """(Delta (x) id)Delta(e_i) as {(a, b, c): coef}, by its own loop."""
    acc: dict = {}
    for (j, k), c in H.crows[i]:
        for (a, b), d in H.crows[j]:
            sparse_add_into(acc, (a, b, k), c * d)
    return acc


def dense_radford(H, S4):
    """S^4(h) = g (alpha -> h <- alpha^{-1}) g^{-1}, with a dense S and S^4."""
    n = H.dim
    mod = modular_elements(H)
    alpha = sparse_to_dense(mod.alpha, n, H.conductor)
    S = dense_rows(H.antipode, n, H.conductor)
    alpha_inv = []
    for j in range(n):
        acc = CycloNum.zero(H.conductor)
        for a in range(n):
            if not S[a][j].is_zero():
                acc = acc + alpha[a] * S[a][j]
        alpha_inv.append(acc)
    g = mod.g
    g_inv, power = g, H.mul(g, g)  # g^{-1} = g^{ord g - 1}, by powering
    while power != H.unit:
        g_inv, power = power, H.mul(power, g)
    for i in range(n):
        mid: dict = {}
        for (a, b, c), coef in delta2(H, i).items():
            w = alpha_inv[a] * alpha[c]
            if not w.is_zero():
                sparse_add_into(mid, b, coef * w)
        lhs = {k: S4[k][i] for k in range(n) if not S4[k][i].is_zero()}
        if lhs != H.mul(g, H.mul(mid, g_inv)):
            return False
    return True


def dense_u_inv(H, R, S2):
    """u^{-1} = R2 S^2(R1), with a dense S^2."""
    n, M = H.dim, H.conductor
    one = CycloNum.one(M)
    acc: dict = {}
    for (i, j), c in R.items():
        s2i = {a: S2[a][i] for a in range(n) if not S2[a][i].is_zero()}
        for k, d in H.mul({j: one}, s2i).items():
            sparse_add_into(acc, k, c * d)
    return tuple(sparse_to_dense(acc, n, M))


def double_rmatrix(H):
    """The canonical R = sum_i (eps # e_i) (x) (beta_i # 1) of D(H)."""
    n = H.dim
    eps, unit = H.counit, H.unit
    R: dict = {}
    for i in range(n):
        left = {a * n + i: c for a, c in eps.items()}
        right = {i * n + b: c for b, c in unit.items()}
        for k, c in outer(left, right).items():
            sparse_add_into(R, k, c)
    return R


@pytest.fixture(scope="module")
def family(corpus3, double_taft):
    members = list(corpus3.values())
    return members + [op_cop(H, "op") for H in members] + [double_taft]


def test_order_trace_and_powers_match_dense_products(family):
    for H in family:
        powers = dense_powers(H)
        assert antipode_order(H) == dense_order(powers), H.label
        assert semisimplicity(H).trace_s2 == mat_trace(powers[1]), H.label
        S2 = compose_columns(H.antipode, H.antipode)
        assert S2 == sparse_columns(powers[1]), H.label
        assert compose_columns(S2, S2) == sparse_columns(powers[3]), H.label


def test_radford_s4_matches_dense_oracle(family):
    for H in family:
        S4 = dense_powers(H)[3]
        assert radford_s4_check(H) is dense_radford(H, S4) is True, H.label


def test_drinfeld_element_matches_dense_oracle(corpus3, uq_rmatrix, taft3,
                                               double_taft):
    hosts = []
    for H in corpus3.values():
        delta = dict(H.comult.entries)
        if delta == {(i, k, j): c for (i, j, k), c in delta.items()}:
            unit = H.unit
            _, rm = verify_qt(H, outer(unit, unit))  # cocommutative: 1 (x) 1
            assert rm is not None, H.label
            hosts.append(rm)
    assert len(hosts) == 5  # the group algebras
    hosts.append(uq_rmatrix[1])
    _, rm = verify_qt(double_taft, double_rmatrix(taft3))
    assert rm is not None
    hosts.append(rm)
    for rm in hosts:
        H = rm.host
        S2 = dense_powers(H)[1]
        rep = drinfeld_element(rm)
        u_inv = tuple(sparse_to_dense(rep.u_inv, H.dim, H.conductor))
        assert rep.ok and u_inv == dense_u_inv(H, rm.r_dict(), S2), H.label
        one = CycloNum.one(H.conductor)
        su, siu = rep.u, rep.u_inv
        for h in range(H.dim):
            lhs = {a: S2[a][h] for a in range(H.dim) if not S2[a][h].is_zero()}
            assert lhs == H.mul(su, H.mul({h: one}, siu)), (H.label, h)


def _random_matrix(rng, rows, cols):
    zero = CycloNum.zero(M)
    A = [[zero] * cols for _ in range(rows)]
    for row in A:
        for j in range(cols):
            if rng.random() < 0.3:
                row[j] = CycloNum.make(M, [rng.randint(-2, 2) for _ in range(6)],
                                       rng.randint(1, 3))
    dead = rng.randrange(cols)  # at least one zero column
    for row in A:
        row[dead] = zero
    return A


def test_columns_match_dense_products():
    rng = random.Random(20260501)
    zero_cols = 0
    for _ in range(50):
        m, k, n = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        A, B = _random_matrix(rng, m, k), _random_matrix(rng, k, n)
        Ac, Bc = sparse_columns(A), sparse_columns(B)
        zero_cols += sum(1 for c in Ac + Bc if not c)
        assert compose_columns(Ac, Bc) == sparse_columns(mat_mul(A, B))
        v = [row[0] for row in _random_matrix(rng, k, 2)]
        assert apply_columns(Ac, dense_to_sparse(v)) == dense_to_sparse(mat_vec(A, v))
    assert zero_cols >= 100


def test_antipode_order_bound_exceeded():
    # k[Z/2] with the non-involutive "antipode" diag(2, 1): no power is id.
    one, zero = CycloNum.one(3), CycloNum.zero(3)
    two = one + one
    mult = SparseTensor3.from_dict(
        (2, 2, 2), {(i, j, (i + j) % 2): one for i in range(2) for j in range(2)})
    comult = SparseTensor3.from_dict((2, 2, 2), {(i, i, i): one for i in range(2)})
    H = FinHopf(2, 3, mult, {0: one}, comult, {0: one, 1: one},
                sparse_columns(((two, zero), (zero, one))))
    with pytest.raises(BoundExceeded):
        antipode_order(H)


def zero_free(cols, n):
    return len(cols) == n and all(not c.is_zero() for col in cols
                                  for c in col.values())


def zero_free_vector(v, n):
    return type(v) is dict and all(0 <= i < n and not c.is_zero()
                                   for i, c in v.items())


def test_stored_maps_are_zero_free_columns(corpus3, double_taft, taft3):
    for H in (*corpus3.values(), double_taft):
        assert zero_free(H.antipode, H.dim), H.label
        assert zero_free(H.antipode_inv, H.dim), H.label
        for key, cols in H.iso_fixtures:
            assert zero_free(cols, H.dim), (H.label, key)
    t0 = standard_constructors("ttilde", 3, 1, root=0)
    f = find_embedding(t0, resolve_fixture_target(("ttilde", 3, 1, 1)))
    assert zero_free(f.cols, t0.dim)
    G = standard_constructors("group_algebra", 3, group="z9xz3")
    one = CycloNum.one(G.conductor)
    Q, pi = quotient_by_hopf_ideal(G, [{9: one, 0: -one}])
    assert Q.dim == 9 and zero_free(pi.cols, G.dim) and zero_free(Q.antipode, 9)
    # the unit and the counit are zero-free dicts on every construction path
    members = tuple(corpus3.values())
    assert len(members) == 17
    for H in (*members, *(H.dual_cached() for H in members),
              op_cop(taft3, "op"), op_cop(taft3, "cop"), op_cop(taft3, "both"),
              tensor(taft3, G), double_taft, Q, embed_hopf(taft3, 18),
              loads(dumps(double_taft))[0]):
        assert zero_free_vector(H.unit, H.dim), H.label
        assert zero_free_vector(H.counit, H.dim), H.label
    # explicit zeros in the given unit, counit and columns are dropped: the
    # same algebra
    for H in (taft3, corpus3["k[Z/27]"]):
        zero, one = CycloNum.zero(H.conductor), CycloNum.one(H.conductor)
        padded = [{i: col.get(i, zero) for i in range(H.dim)}
                  for col in H.antipode]
        unit, counit = ({i: v.get(i, zero) for i in range(H.dim)}
                        for v in (H.unit, H.counit))
        assert any(c.is_zero() for c in (*unit.values(), *counit.values()))
        P = FinHopf(H.dim, H.conductor, H.mult, unit, H.comult, counit,
                    padded)
        assert P.unit == H.unit and P.counit == H.counit, H.label
        assert verify_hopf(P).ok, H.label
        assert P.antipode == H.antipode, H.label
        assert antipode_order(P) == antipode_order(H), H.label
        for j in range(H.dim):
            v = {j: one, (j + 1) % H.dim: -one}
            assert P.antipode_of(v) == H.antipode_of(v), H.label
    # and by a morphism, so a valid map given explicit zeros still verifies
    book = corpus3["book(p=3,e=1,m=1)"]
    key, cols = book.iso_fixtures[0]
    for Hs, Ht, cols in (
            (taft3, taft3, identity_morphism(taft3).cols),
            (book, resolve_fixture_target(key, conductor=book.conductor), cols)):
        zero = CycloNum.zero(Hs.conductor)
        padded = [{**col, (j + 1) % Ht.dim: col.get((j + 1) % Ht.dim, zero)}
                  for j, col in enumerate(cols)]
        assert any(c.is_zero() for col in padded for c in col.values())
        f = HopfMorphism(Hs, Ht, padded)
        assert f.cols == tuple(cols)
        rep = verify_morphism(f)
        assert rep.ok and rep.bijective, [c for c in rep.checks if not c.ok]


def test_quotient_mult_matches_reduction(corpus3, taft3):
    """Coordinate c of reduce(v) is (P v)[c]: the projected products equal
    the reduced ones that the dense quotient built."""
    ideals = [(H, H.radical) for H in corpus3.values() if H.radical.dim]
    G = corpus3["k[Z/9 x Z/3]"]
    one = CycloNum.one(G.conductor)
    ideals.append((G, ideal_closure(G.mrows, 27, G.conductor, [{9: one, 0: -one}])))
    assert len(ideals) >= 10
    for H, I in ideals:
        n, M = H.dim, H.conductor
        one = CycloNum.one(M)
        coords = I.complement_coords()
        proj = I.projection_columns()
        for j in range(n):
            red = sparse_to_dense(I.reduce({j: one}), n, M)
            assert proj[j] == {t: red[c] for t, c in enumerate(coords)
                               if not red[c].is_zero()}, (H.label, j)
        want = {}
        for a, ca in enumerate(coords):
            for b, cb in enumerate(coords):
                red = sparse_to_dense(I.reduce(H.mul({ca: one}, {cb: one})), n, M)
                for t, c in enumerate(coords):
                    if not red[c].is_zero():
                        want[(a, b, t)] = red[c]
        q = len(coords)
        assert quotient_mult(H.mrows, I, proj) == SparseTensor3.from_dict(
            (q, q, q), want), H.label
