import random

import pytest

from hopfkit.cyclo import (CycloNum, cyclotomic_polynomial, embed, parse, render,
                           root_of_unity_order)
from hopfkit.errors import ConductorMismatch, DivisionByZero, NotASubfield, ParseError


def rnd(rng, M):
    from hopfkit.cyclo import _context
    phi = _context(M).phi
    return CycloNum.make(M, [rng.randint(-4, 4) for _ in range(phi)],
                         rng.randint(1, 6))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    # prime-power shape X^{p^{n-1}(p-1)} + ... + X^{p^{n-1}} + 1
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(27) == tuple([1] + [0] * 8 + [1] + [0] * 8 + [1])
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity_relations():
    z3 = CycloNum.zeta(3)
    one = CycloNum.one(3)
    assert z3 * z3 ** 2 == one
    assert one + z3 + z3 ** 2 == CycloNum.zero(3)


def test_zeta9_inverse_reduced():
    z9 = CycloNum.zeta(9)
    inv = z9.inverse()
    assert inv == CycloNum.zeta(9, 8)
    assert render(inv) == "-1*z^2 + -1*z^5"
    assert z9 * inv == CycloNum.one(9)


def test_phi_vanishes_up_to_30():
    for M in range(1, 31):
        zM = CycloNum.zeta(M)
        acc = CycloNum.zero(M)
        power = CycloNum.one(M)
        for c in cyclotomic_polynomial(M):
            if c:
                acc = acc + CycloNum.from_rational(M, c) * power
            power = power * zM
        assert acc.is_zero(), M


def test_field_axioms_random():
    rng = random.Random(20240901)
    for M in (3, 8, 9, 12, 27):
        one = CycloNum.one(M)
        for _ in range(50):
            a, b, c = rnd(rng, M), rnd(rng, M), rnd(rng, M)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a and a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == one
                assert (b / a) * a == b


def test_conductor_mismatch_and_div_by_zero():
    with pytest.raises(ConductorMismatch):
        CycloNum.one(3) + CycloNum.one(9)
    with pytest.raises(DivisionByZero):
        CycloNum.one(9) / CycloNum.zero(9)


def test_embed():
    z3 = CycloNum.zeta(3)
    assert embed(z3, 9) == CycloNum.zeta(9, 3)
    half = CycloNum.from_rational(3, "1/2")
    assert render(embed(half, 9)) == "1/2"
    with pytest.raises(NotASubfield):
        embed(CycloNum.zeta(9), 3)
    # embeddings are ring maps
    rng = random.Random(7)
    for _ in range(20):
        a, b = rnd(rng, 3), rnd(rng, 3)
        assert embed(a * b, 27) == embed(a, 27) * embed(b, 27)
        assert embed(a + b, 27) == embed(a, 27) + embed(b, 27)
    for _ in range(10):
        a = rnd(rng, 9)
        if not a.is_zero():
            assert embed(a.inverse(), 27) == embed(a, 27).inverse()


def test_render_parse_roundtrip():
    rng = random.Random(5)
    for M in (3, 9, 27):
        for _ in range(40):
            a = rnd(rng, M)
            assert parse(M, render(a)) == a
    assert render(CycloNum.zero(9)) == "0"
    assert parse(9, "0") == CycloNum.zero(9)
    with pytest.raises(ParseError):
        parse(9, "1 + bogus")
    with pytest.raises(ParseError):
        parse(9, "1*z^7")  # power out of basis range


def test_root_of_unity_order():
    assert root_of_unity_order(CycloNum.one(9)) == 1
    assert root_of_unity_order(CycloNum.zeta(9)) == 9
    assert root_of_unity_order(-CycloNum.one(9)) == 2
    assert root_of_unity_order(CycloNum.from_rational(9, "1/2")) is None
    # order dividing lcm(2, M) = 2 * 9: -zeta_9 has order 18
    assert root_of_unity_order(-CycloNum.zeta(9)) == 18


def test_inverse_at_conductor_125():
    # Q(zeta_125), phi = 100: the field of k[Z/125] at p = 5
    rng = random.Random(125)
    for _ in range(4):
        a = rnd(rng, 125)
        inv = a.inverse()
        assert (a * inv).is_one()
        assert inv.inverse() == a


def test_embed_transitive():
    rng = random.Random(12)
    for _ in range(20):
        a = rnd(rng, 3)
        assert embed(embed(a, 9), 27) == embed(a, 27)


def test_tables_stop_growing_at_the_cap_and_stay_exact(monkeypatch):
    from hopfkit import cyclo
    M = 9
    # values no other test builds, so every product and inverse is new
    a = CycloNum.make(M, [1001, -7, 3, 0, 5, 2], 13)
    b = CycloNum.make(M, [-999, 4, 0, 11, 1, 0], 17)
    c = CycloNum.make(M, [2, 0, 0, 1003, 0, -1], 19)
    tables = (cyclo._INTERN, cyclo._MUL_CACHE, cyclo._PARTS, cyclo._PART_MUL,
              cyclo._PART_INV)
    sizes = [len(t) for t in tables]
    monkeypatch.setattr(cyclo, "_CACHE_CAP", min(sizes))
    ab, inv_a = a * b, a.inverse()
    assert ab == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * inv_a).is_one() and inv_a.inverse() == a
    assert (a / b) * b == a
    # past the cap a value is not interned: equal objects need not be identical
    twin = CycloNum(M, ab.num, ab.den)
    assert twin is not ab
    assert twin == ab and hash(twin) == hash(ab) and {ab: 1}[twin] == 1
    assert [len(t) for t in tables] == sizes
    monkeypatch.undo()
    # the same values once the tables accept them again
    assert a * b == ab and a.inverse() == inv_a
    assert all(len(t) > size for t, size in zip(tables, sizes))
