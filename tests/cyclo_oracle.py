"""Coordinate-tuple reference arithmetic in Q(zeta_M), for tests.

`OracleNum` is the field element `hopfkit.cyclo.CycloNum` was before it
stored values as a rational scale times an interned primitive part: integer
coordinates `num` in the power basis over one positive denominator `den`,
with gcd(content(num), den) = 1.  Every product is a full convolution and
reduction mod Phi_M, every sum adds coordinates, and every inverse computes
its own norm.  It is kept in substance as a slow oracle, with no interning
and no caches; it borrows only the reduction tables of `hopfkit.cyclo`.

`fraction_parse` is `hopfkit.cyclo.parse` as it was before it read render's
grammar with `int`: every coefficient goes through `Fraction`, and the
result is built by `CycloNum.make`.
"""

from fractions import Fraction
from math import gcd

from hopfkit.cyclo import CycloNum, _context
from hopfkit.errors import DivisionByZero, ParseError


class OracleNum:
    __slots__ = ("M", "num", "den")

    def __init__(self, M, num, den=1):
        # num must already be reduced mod Phi_M and normalized with den
        self.M, self.num, self.den = M, tuple(num), den

    @staticmethod
    def make(M, nums, den=1):
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            den = -den
            nums = [-x for x in nums]
        g = den
        for x in nums:
            if x:
                g = gcd(g, x)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        if not any(nums):
            return OracleNum.zero(M)
        return OracleNum(M, nums, den)

    @staticmethod
    def from_rational(M, q):
        q = Fraction(q)
        nums = [0] * _context(M).phi
        nums[0] = q.numerator
        return OracleNum.make(M, nums, q.denominator)

    @staticmethod
    def zero(M):
        return OracleNum(M, (0,) * _context(M).phi, 1)

    @staticmethod
    def one(M):
        return OracleNum.from_rational(M, 1)

    def is_zero(self):
        return not any(self.num)

    def __add__(self, other):
        assert self.M == other.M
        da, db = self.den, other.den
        nums = [x * db + y * da for x, y in zip(self.num, other.num)]
        return OracleNum.make(self.M, nums, da * db)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OracleNum(self.M, [-x for x in self.num], self.den)

    def __mul__(self, other):
        assert self.M == other.M
        ctx = _context(self.M)
        phi = ctx.phi
        conv = [0] * (2 * phi - 1) if phi > 1 else [0]
        for i, ai in enumerate(self.num):
            for j, bj in enumerate(other.num):
                conv[i + j] += ai * bj
        res = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            row = ctx.red[k - phi]
            for i in range(phi):
                res[i] += conv[k] * row[i]
        return OracleNum.make(self.M, res, self.den * other.den)

    def conjugate(self, r):
        """sigma_r(self): zeta -> zeta^r."""
        ctx = _context(self.M)
        nums = [0] * ctx.phi
        for e, c in enumerate(self.num):
            for i, x in enumerate(ctx.xpow(e * r)):
                nums[i] += c * x
        return OracleNum.make(self.M, nums, self.den)

    def inverse(self):
        """c / N(a), c the product of the conjugates sigma_r(a), r != 1."""
        if self.is_zero():
            raise DivisionByZero("division by zero in Q(zeta)")
        M = self.M
        c = OracleNum.one(M)
        for r in range(2, M):
            if gcd(r, M) == 1:
                c = c * self.conjugate(r)
        norm = self * c
        assert not any(norm.num[1:])
        return OracleNum.make(M, [x * norm.den for x in c.num], c.den * norm.num[0])

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return (self.M, self.num, self.den) == (other.M, other.num, other.den)

    def __hash__(self):
        return hash((self.M, self.num, self.den))


def render(a):
    terms = []
    for e, c in enumerate(a.num):
        if not c:
            continue
        coeff = str(c) if a.den == 1 else f"{c}/{a.den}"
        terms.append(coeff if e == 0 else f"{coeff}*z" if e == 1 else f"{coeff}*z^{e}")
    return " + ".join(terms) if terms else "0"


def parse(M, text):
    text = text.strip()
    if text == "0":
        return OracleNum.zero(M)
    nums = [Fraction(0)] * _context(M).phi
    for term in text.split(" + "):
        coeff, _, zpart = term.partition("*")
        e = 0 if not zpart else 1 if zpart == "z" else int(zpart[2:])
        if nums[e]:
            raise ParseError(f"duplicate power {e} in {text!r}")
        nums[e] = Fraction(coeff)
    den = 1
    for f in nums:
        den = den * f.denominator // gcd(den, f.denominator)
    return OracleNum.make(M, [int(f * den) for f in nums], den)


def fraction_parse(M, text):
    """`hopfkit.cyclo.parse` read through `Fraction` alone."""
    text = text.strip()
    if text == "0":
        return CycloNum.zero(M)
    ctx = _context(M)
    nums = [Fraction(0)] * ctx.phi
    for raw in text.split(" + "):
        term = raw.strip()
        if not term:
            raise ParseError(f"empty term in {text!r}")
        if "*" in term:
            coeff_s, _, zpart = term.partition("*")
            if zpart == "z":
                e = 1
            elif zpart.startswith("z^"):
                try:
                    e = int(zpart[2:])
                except ValueError as exc:
                    raise ParseError(f"bad power in term {term!r}") from exc
            else:
                raise ParseError(f"bad term {term!r}")
        else:
            coeff_s, e = term, 0
        if not (0 <= e < ctx.phi):
            raise ParseError(f"power out of range in term {term!r}")
        try:
            coeff = Fraction(coeff_s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient in term {term!r}") from exc
        if nums[e]:
            raise ParseError(f"duplicate power {e} in {text!r}")
        nums[e] = coeff
    den = 1
    for f in nums:
        den = den * f.denominator // gcd(den, f.denominator)
    return CycloNum.make(M, [int(f * den) for f in nums], den)

