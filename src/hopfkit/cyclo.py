"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Elements are stored in the power basis 1, z, ..., z^(phi(M)-1) of
Z[X]/Phi_M(X) with a common positive integer denominator.  All operations
are exact; equality is coordinate equality (representations are canonical:
gcd(content, den) = 1, den > 0).

CycloNum keeps integer numerators plus one shared denominator, so every
operation stays in plain int arithmetic; `fractions.Fraction` is used only
to read rationals in `parse` and `from_rational`.  Inversion and `embed`
share one zeta-substitution (`_substitute`: replace zeta_M by a power of a
root of unity and reduce through the `xpow` rows): `embed` substitutes
zeta_{M'}^(M'/M), and the inverse is the product of the Galois conjugates
sigma_k(a) (zeta -> zeta^k) divided by the rational norm.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ConductorMismatch, DivisionByZero, NotASubfield, ParseError

Rational = Fraction


def cyclotomic_polynomial(M: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the M-th cyclotomic polynomial.

    Computed by exact division of X^M - 1 by the product of Phi_d over the
    proper divisors d of M.
    """
    if M < 1:
        raise ValueError("conductor must be a positive integer")
    return _cyclotomic(M)


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def _cyclotomic(M: int) -> tuple[int, ...]:
    cached = _CYCLO_CACHE.get(M)
    if cached is not None:
        return cached
    # X^M - 1
    num = [0] * (M + 1)
    num[0] = -1
    num[M] = 1
    for d in range(1, M):
        if M % d == 0:
            num = _polydiv_exact(num, list(_cyclotomic(d)))
    result = tuple(num)
    _CYCLO_CACHE[M] = result
    return result


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low-to-high coefficients)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        if c % den[dd] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[dd]
        out[k] = q
        if q:
            for i, dc in enumerate(den):
                num[k + i] -= q * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


class _Context:
    """Per-conductor tables: Phi_M and reduction rows for powers of z."""

    __slots__ = ("M", "phi", "red", "_xpow")

    def __init__(self, M: int):
        self.M = M
        poly = cyclotomic_polynomial(M)
        self.phi = phi = len(poly) - 1
        # red[k - phi] = coordinates of X^k, for k in [phi, 2*phi - 2]
        rows: list[tuple[int, ...]] = []
        if phi > 0:
            cur = [-c for c in poly[:phi]]
            rows.append(tuple(cur))
            for _ in range(phi + 1, 2 * phi - 1):
                top = cur[phi - 1]
                cur = [0] + cur[: phi - 1]
                if top:
                    base = rows[0]
                    for i in range(phi):
                        cur[i] += top * base[i]
                rows.append(tuple(cur))
        self.red = rows
        self._xpow: dict[int, tuple[int, ...]] = {}

    def xpow(self, e: int) -> tuple[int, ...]:
        """Coordinates of z^e (any integer e)."""
        e %= self.M
        v = self._xpow.get(e)
        if v is not None:
            return v
        phi = self.phi
        if e < phi:
            v = tuple(1 if i == e else 0 for i in range(phi))
        elif e - phi < len(self.red):
            v = self.red[e - phi]
        else:
            prev = list(self.xpow(e - 1))
            top = prev[phi - 1]
            cur = [0] + prev[: phi - 1]
            if top:
                base = self.red[0]
                for i in range(phi):
                    cur[i] += top * base[i]
            v = tuple(cur)
        self._xpow[e] = v
        return v


_CONTEXTS: dict[int, _Context] = {}

# Largest conductor accepted: a context holds phi(M)^2 integers, so an
# unbounded M (from a file or the command line) could exhaust memory.  The
# constructors pick at most p^3 (343 at p = 7).
MAX_CONDUCTOR = 1024


def _context(M: int) -> _Context:
    ctx = _CONTEXTS.get(M)
    if ctx is None:
        if M > MAX_CONDUCTOR:
            raise ValueError(f"conductor {M} exceeds {MAX_CONDUCTOR}")
        ctx = _Context(M)
        _CONTEXTS[M] = ctx
    return ctx


def _gcd_list(nums, den: int) -> int:
    g = den
    for x in nums:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


# Values are interned and products and inverses memoised, each table up to
# _CACHE_CAP entries; past it new results are computed but not stored, which
# is safe because equality and hashing compare fields, not identity.
_INTERN: dict[tuple, "CycloNum"] = {}
_MUL_CACHE: dict[tuple, "CycloNum"] = {}
_INV_CACHE: dict["CycloNum", "CycloNum"] = {}
_CACHE_CAP = 1 << 20


class CycloNum:
    """An element of Q(zeta_M), immutable and interned."""

    __slots__ = ("M", "num", "den", "_hash")

    def __new__(cls, M: int, num: tuple[int, ...], den: int = 1):
        # num must already be reduced mod Phi_M and normalized with den.
        key = (M, num, den)
        obj = _INTERN.get(key)
        if obj is None:
            obj = object.__new__(cls)
            obj.M = M
            obj.num = num
            obj.den = den
            obj._hash = hash(key)
            if len(_INTERN) < _CACHE_CAP:
                _INTERN[key] = obj
        return obj

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def make(M: int, nums, den: int = 1) -> "CycloNum":
        """Normalize arbitrary integer coordinates / denominator."""
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            den = -den
            nums = [-x for x in nums]
        g = _gcd_list(nums, den)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        if not any(nums):
            return CycloNum(M, (0,) * _context(M).phi, 1)
        return CycloNum(M, tuple(nums), den)

    @staticmethod
    def from_rational(M: int, q) -> "CycloNum":
        q = Fraction(q)
        ctx = _context(M)
        nums = [0] * ctx.phi
        nums[0] = q.numerator
        return CycloNum.make(M, nums, q.denominator)

    @staticmethod
    def zeta(M: int, e: int = 1) -> "CycloNum":
        ctx = _context(M)
        return CycloNum.make(M, list(ctx.xpow(e)), 1)

    @staticmethod
    def zero(M: int) -> "CycloNum":
        return CycloNum(M, (0,) * _context(M).phi, 1)

    @staticmethod
    def one(M: int) -> "CycloNum":
        return CycloNum.from_rational(M, 1)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "CycloNum"):
        if self.M != other.M:
            raise ConductorMismatch(f"conductors {self.M} and {other.M} differ")

    def __add__(self, other: "CycloNum") -> "CycloNum":
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            nums = [x + y for x, y in zip(self.num, other.num)]
            return CycloNum.make(self.M, nums, da)
        nums = [x * db + y * da for x, y in zip(self.num, other.num)]
        return CycloNum.make(self.M, nums, da * db)

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        return self + (-other)

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.M, tuple(-x for x in self.num), self.den)

    def __mul__(self, other: "CycloNum") -> "CycloNum":
        key = (self, other)
        out = _MUL_CACHE.get(key)
        if out is not None:
            return out
        self._check(other)
        ctx = _context(self.M)
        phi = ctx.phi
        conv = [0] * (2 * phi - 1) if phi > 1 else [0]
        a, b = self.num, other.num
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        res = conv[:phi]
        red = ctx.red
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = red[k - phi]
                for i in range(phi):
                    if row[i]:
                        res[i] += c * row[i]
        out = CycloNum.make(self.M, res, self.den * other.den)
        if len(_MUL_CACHE) < _CACHE_CAP:
            _MUL_CACHE[key] = out
        return out

    def inverse(self) -> "CycloNum":
        """a^-1 = c / N(a), where c is the product of the conjugates sigma_k(a).

        sigma_k (zeta -> zeta^k, 1 < k < M, gcd(k, M) = 1) runs over the
        Galois group of Q(zeta_M) / Q minus the identity, so the norm
        N(a) = a * c is the product of all Galois conjugates of a.  Since
        sigma_j sigma_k = sigma_jk, each sigma_j permutes the conjugates and
        fixes N(a), which is therefore rational; it is nonzero because a is.
        """
        inv = _INV_CACHE.get(self)
        if inv is not None:
            return inv
        if self.is_zero():
            raise DivisionByZero("division by zero in Q(zeta)")
        M = self.M
        c = CycloNum.one(M)
        for k in range(2, M):
            if gcd(k, M) == 1:
                c = c * _substitute(self, M, k)
        norm = self * c
        # norm = n / d, so a^-1 = c * d / n
        inv = CycloNum.make(M, [x * norm.den for x in c.num], c.den * norm.num[0])
        if len(_INV_CACHE) < _CACHE_CAP:
            _INV_CACHE[self] = inv
        return inv

    def __truediv__(self, other: "CycloNum") -> "CycloNum":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "CycloNum":
        if e < 0:
            return self.inverse() ** (-e)
        result = CycloNum.one(self.M)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.M == other.M and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return self._hash

    # -- rendering ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"CycloNum({self.M}, {render(self)!r})"

    def __str__(self) -> str:
        return render(self)


def _substitute(a: CycloNum, M_new: int, r: int) -> CycloNum:
    """a with zeta_M replaced by zeta_{M_new}^r, reduced in Q(zeta_{M_new})."""
    ctx = _context(M_new)
    nums = [0] * ctx.phi
    for e, c in enumerate(a.num):
        if c:
            row = ctx.xpow(e * r)
            for i in range(ctx.phi):
                if row[i]:
                    nums[i] += c * row[i]
    return CycloNum.make(M_new, nums, a.den)


def embed(a: CycloNum, M_new: int) -> CycloNum:
    """Image of a under zeta_M -> zeta_{M_new}^(M_new/M)."""
    if M_new == a.M:
        return a
    if M_new % a.M != 0:
        raise NotASubfield(f"Q(zeta_{a.M}) is not a subfield of Q(zeta_{M_new})")
    return _substitute(a, M_new, M_new // a.M)


def root_of_unity_order(a: CycloNum) -> int | None:
    """Least k >= 1 with a^k = 1, or None if a is not a root of unity.

    Roots of unity in Q(zeta_M) have order dividing lcm(2, M), so the
    search is finite.
    """
    M = a.M
    limit = M if M % 2 == 0 else 2 * M
    one = CycloNum.one(M)
    acc = a
    for k in range(1, limit + 1):
        if acc == one:
            return k
        acc = acc * a
    return None


# -- canonical text form ------------------------------------------------------

def render(a: CycloNum) -> str:
    """Canonical text: "a0/b0 + a1/b1*z + ...", increasing powers, zeros omitted."""
    terms = []
    for e, c in enumerate(a.num):
        if not c:
            continue
        coeff = str(c) if a.den == 1 else f"{c}/{a.den}"
        if e == 0:
            terms.append(coeff)
        elif e == 1:
            terms.append(f"{coeff}*z")
        else:
            terms.append(f"{coeff}*z^{e}")
    if not terms:
        return "0"
    return " + ".join(terms)


def parse(M: int, text: str) -> CycloNum:
    """Inverse of render for conductor M."""
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

