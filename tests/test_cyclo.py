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
    tables = (cyclo._MUL_CACHE, cyclo._ADD_CACHE, cyclo._PARTS,
              cyclo._PART_MUL, cyclo._PART_INV)
    sizes = [len(t) for t in tables]
    live = len(cyclo._INTERN)
    monkeypatch.setattr(cyclo, "_CACHE_CAP", min(sizes))
    ab, inv_a = a * b, a.inverse()
    assert ab == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * inv_a).is_one() and inv_a.inverse() == a
    assert (a / b) * b == a
    # _INTERN has no cap: past the caps a value is still the only one of
    # its value
    twin = CycloNum(M, ab.num, ab.den)
    assert twin is ab and {ab: 1}[twin] == 1
    assert [len(t) for t in tables] == sizes
    # and it lists only live values: the ones built past the caps go
    assert len(cyclo._INTERN) > live
    coords = [(x.num, x.den) for x in (ab, inv_a, b + c)]
    del ab, inv_a, twin
    assert len(cyclo._INTERN) == live
    monkeypatch.undo()
    # the same values once the tables accept them again
    assert [(x.num, x.den) for x in (a * b, a.inverse(), b + c)] == coords
    assert all(len(t) > size for t, size in zip(tables, sizes))


def test_values_cannot_be_assigned_to():
    # a value is shared by everything equal to it, so a write to one would
    # change them all: every field refuses assignment and deletion
    one = CycloNum.one(3)
    for name in ("M", "prim", "k", "den"):
        before = getattr(one, name)
        with pytest.raises(AttributeError):
            setattr(one, name, 2)
        with pytest.raises(AttributeError):
            delattr(one, name)
        assert getattr(one, name) is before
    with pytest.raises(AttributeError):
        one.num = (2, 0)
    assert render(CycloNum.one(3)) == "1"
    assert render(CycloNum.from_rational(3, 1)) == "1"
    assert CycloNum.one(3) is one and one.is_one()


@pytest.mark.parametrize("M", [9, 25])
def test_a_product_is_stored_on_a_miss_and_read_on_a_hit(M, monkeypatch):
    from cyclo_oracle import OracleNum
    from hopfkit import cyclo
    rng = random.Random(M)
    parts = [rnd(rng, M) for _ in range(2)]
    # rescaled values: rational multiples of a few primitive parts, as in a
    # file written in a rescaled basis
    vals = []
    for u in parts:
        for _ in range(4):
            s = rng.choice((-1, 1)) * rng.randint(1, 40)
            vals.append(CycloNum.make(M, [s * x for x in u.num],
                                      rng.randint(1, 40) * u.den))
    assert {a.prim for a in vals} == {u.prim for u in parts}
    monkeypatch.setattr(cyclo, "_MUL_CACHE", {})
    for a in vals:
        for b in vals:
            assert (a, b) not in cyclo._MUL_CACHE
            first = a * b
            assert cyclo._MUL_CACHE[(a, b)] is first
            assert a * b is first
            o = OracleNum.make(M, a.num, a.den) * OracleNum.make(M, b.num, b.den)
            assert (first.num, first.den) == (o.num, o.den)
            assert CycloNum(M, o.num, o.den) is first


def test_a_mixed_conductor_product_raises_on_every_call(monkeypatch):
    from hopfkit import cyclo
    monkeypatch.setattr(cyclo, "_MUL_CACHE", {})
    a, b = CycloNum.from_rational(9, "2/3"), CycloNum.zeta(25)
    for x, y in ((a, b), (b, a)):
        for _ in range(2):
            with pytest.raises(ConductorMismatch):
                x * y
    assert cyclo._MUL_CACHE == {}


def test_a_product_past_the_cap_is_the_interned_value(monkeypatch):
    from hopfkit import cyclo
    M = 25
    a = CycloNum.make(M, [3, 0, -1] + [0] * 16 + [7], 11)
    b = CycloNum.make(M, [0, 5, 0, 2] + [0] * 15 + [-1], 13)
    monkeypatch.setattr(cyclo, "_CACHE_CAP", 0)
    monkeypatch.setattr(cyclo, "_MUL_CACHE", {})
    ab = a * b
    # a new value, then the live one of its key, read by each later call
    assert a * b is ab and b * a is ab
    assert CycloNum(M, ab.num, ab.den) is ab
    # a product whose value is already live is that object
    twice = CycloNum.make(M, [2 * x for x in ab.num], ab.den)
    assert CycloNum.from_rational(M, 2) * ab is twice
    assert cyclo._MUL_CACHE == {}
