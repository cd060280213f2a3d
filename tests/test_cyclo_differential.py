"""The scale-times-primitive-part arithmetic of `hopfkit.cyclo` against the
coordinate-tuple oracle in `cyclo_oracle.py`, on seeded values, and the
work it saves: one convolution per pair of primitive parts and one norm per
part; and `parse`, which reads render's grammar with `int`, against the
`Fraction` reader it replaced."""

import random
from fractions import Fraction
from itertools import product

import pytest

from cyclo_oracle import (OracleNum, fraction_parse, parse as oracle_parse,
                          render as oracle_render)
from hopfkit import cyclo
from hopfkit.cyclo import CycloNum, _context, parse, render
from hopfkit.errors import ConductorMismatch, DivisionByZero, ParseError
from hopfkit.hopf import verify_hopf
from test_generator_certificate import relabel


def pool(rng, M):
    """Zero, rationals, negatives, general values and many rational
    multiples of one shared part, as (value, oracle value) pairs."""
    phi = _context(M).phi
    shared = [rng.randint(-6, 6) for _ in range(phi)]
    shared[rng.randrange(phi)] = 5
    coords = [[0] * phi, shared]
    for _ in range(4):
        coords.append([rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(phi)])
    out = [(CycloNum.make(M, c, rng.randint(1, 9)), None) for c in coords]
    for q in ("0", "1", "-1", "3/7", "-12/5"):
        out.append((CycloNum.from_rational(M, q), None))
    for _ in range(8):
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
        out.append((CycloNum.make(M, [r.numerator * x for x in shared], r.denominator),
                    None))
    out.append((CycloNum.zeta(M), None))
    return [(a, OracleNum.make(M, a.num, a.den)) for a, _ in out]


def agree(a, o):
    assert isinstance(a, CycloNum)
    assert (a.M, a.num, a.den) == (o.M, o.num, o.den), (render(a), oracle_render(o))
    assert a == CycloNum(a.M, o.num, o.den)
    assert render(a) == oracle_render(o)
    assert parse(a.M, render(a)) == a and oracle_parse(a.M, render(a)) == o


@pytest.mark.parametrize("M", [3, 4, 9, 25, 27])
def test_field_operations_match_the_coordinate_oracle(M):
    rng = random.Random(M)
    vals = pool(rng, M)
    for a, o in vals:
        agree(a, o)
        agree(-a, -o)
        if a.is_zero():
            with pytest.raises(DivisionByZero):
                a.inverse()
        else:
            agree(a.inverse(), o.inverse())
    for (a, oa), (b, ob) in product(vals, repeat=2):
        agree(a + b, oa + ob)
        agree(a - b, oa - ob)
        agree(a * b, oa * ob)
        if not b.is_zero():
            agree(a / b, oa / ob)
        assert (a == b) == (oa == ob)


@pytest.mark.parametrize("M", [3, 4, 9, 25, 27])
def test_equal_values_have_equal_hashes(M):
    rng = random.Random(100 + M)
    vals = [a for a, _ in pool(rng, M)]
    # the same values reached by different routes
    seen: dict = {}
    for a, b in product(vals, repeat=2):
        for x in (a * b, b * a, a + b, b + a, (a + b) - b, CycloNum(M, a.num, a.den)):
            twin = CycloNum.make(M, x.num, x.den)
            assert twin is x and hash(twin) == hash(x)
            seen.setdefault(x, x)
            assert seen[x] == x and hash(seen[x]) == hash(x)


@pytest.mark.parametrize("M", [3, 4, 9, 25, 27])
def test_cached_sums_match_the_coordinate_oracle(M, monkeypatch):
    # each sum formed twice: computed and stored, then read from _ADD_CACHE
    monkeypatch.setattr(cyclo, "_ADD_CACHE", {})
    vals = pool(random.Random(200 + M), M)
    for (a, oa), (b, ob) in product(vals, repeat=2):
        first = a + b
        agree(first, oa + ob)
        if not (a.is_zero() or b.is_zero()):
            assert cyclo._ADD_CACHE[(a, b)] is first
        second = a + b
        assert second is first
        agree(second, oa + ob)
        agree(a - b, oa - ob)
    # a stored sum is of one conductor; a sum across two still raises
    other = CycloNum.one(9 if M != 9 else 3)
    for a, _ in vals:
        for x, y in ((a, other), (other, a)):
            for _ in range(2):
                with pytest.raises(ConductorMismatch):
                    x + y
    assert all(a.M == b.M == s.M for (a, b), s in cyclo._ADD_CACHE.items())


def test_rescaled_double_forms_few_part_products(double_taft, monkeypatch):
    # a file in a rescaled basis multiplies rational multiples of a few
    # primitive parts, so verify_hopf convolves each pair of parts once,
    # not each pair of values: 6 convolutions here, where the coordinate
    # arithmetic convolved on each of its tens of thousands of
    # multiplication-cache misses
    H = relabel(double_taft, random.Random(2), True)
    H.generators
    monkeypatch.setattr(cyclo, "_MUL_CACHE", {})
    monkeypatch.setattr(cyclo, "_PART_MUL", {})
    calls = []
    part_product = cyclo._part_product

    def counting(M, u, v):
        calls.append((u, v))
        return part_product(M, u, v)
    monkeypatch.setattr(cyclo, "_part_product", counting)
    assert verify_hopf(H).ok
    assert 0 < len(calls) <= 20, len(calls)


def test_inverting_rational_multiples_computes_no_new_norm(monkeypatch):
    M = 27
    a = CycloNum.make(M, [7, 0, -3, 1, 0, 0, 2, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 5], 4)
    inv = a.inverse()
    calls = []
    part_inverse = cyclo._part_inverse

    def counting(M, u):
        calls.append(u)
        return part_inverse(M, u)
    monkeypatch.setattr(cyclo, "_part_inverse", counting)
    for q in (Fraction(3), Fraction(-1), Fraction(2, 9), Fraction(-15, 4),
              Fraction(1, 1000)):
        ra = CycloNum.from_rational(M, q) * a
        assert ra.inverse() == CycloNum.from_rational(M, 1 / q) * inv
        assert (ra.inverse() * ra).is_one()
    assert calls == []


# spellings outside render's grammar, which the `Fraction` fallback reads
# or refuses, and malformed terms refused before a coefficient is read
HOSTILE = ["1.5", "+3", " 3 ", "3/-4", "3/0", "--3", "1_000", "\u0663", "1e5",
           "0*z + 1*z", "1*z + 2*z", "", "z", "1*z^99", "1*z^-1", "1/2*z^1",
           "-", "-/2", "3/", "/3", "0/0", "0/5 + 1/3", "007/014*z", "1E2 + 2*z",
           "1 +  2*z", "2/4 + 1/6*z^2", "1/2*z + 1/3*z", "0/5*z + -1/3*z"]


def parsed(read, M, text):
    """The value `read` gives, or the message of its ParseError."""
    try:
        return read(M, text)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("M", [3, 4, 9, 25, 27])
def test_parse_matches_the_fraction_reader(M):
    rng = random.Random(300 + M)
    texts = [render(a) for a, _ in pool(rng, M)]
    for a, o in pool(rng, M):
        for b, ob in pool(rng, M)[:6]:
            texts.append(render(a * b + b))
    texts += HOSTILE
    for text in texts:
        got = parsed(parse, M, text)
        want = parsed(fraction_parse, M, text)
        if isinstance(want, str):
            assert got == want, text
        else:
            assert got is want, text
            if text in HOSTILE:
                continue
            # render's own texts also match the coordinate oracle
            o = oracle_parse(M, text)
            assert (got.num, got.den) == (o.num, o.den), text
            assert render(got) == text
