"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Coordinates are taken in the power basis 1, z, ..., z^(phi(M)-1) of
Z[X]/Phi_M(X).  A value is stored as (k / den) * prim: `prim` is its
primitive part, an integer coordinate tuple with content 1 (the gcd of its
entries) and first nonzero entry positive, and k / den is a rational scale
with den > 0 and gcd(k, den) = 1.  Zero is k = 0 with the zero tuple.  All
operations are exact, and equality is coordinate equality:

  The form is one-to-one with the canonical coordinates num / den, where
  num is an integer tuple, den > 0 and gcd(content(num), den) = 1.  Those
  are unique: den must clear every coordinate's denominator, and any
  multiple t > 1 of the least such den would divide content(num).  From
  (num, den), put s = the sign of the first nonzero entry of num,
  k = s * content(num) and prim = num / k; then prim is primitive with a
  positive first entry, and gcd(k, den) = gcd(content(num), den) = 1.
  Conversely, num = k * prim has content |k| * content(prim) = |k| and the
  sign of k in front, so (prim, k) is read back from num.  Hence two values
  are equal if and only if their (M, prim, k, den) are.

Each value is one object, so equality is identity and hashing is the
default one, both in C:

  Every value is made by `_value`, which returns the live object of its
  key (M, prim, k, den) when there is one and makes a new object only when
  there is none, so two live objects never share a key.  (A product that
  misses `_MUL_CACHE` reads `_INTERN` itself and calls `_value` only when
  no live object holds its key.)  By the lemma above, equal values have
  equal keys.  Hence a == b exactly when a is b.

`_INTERN` holds a weak reference to each live value and forgets it when
the value dies, so it needs no cap: every value it lists is kept alive by
the program or by one of the capped caches below.  Values cannot be
assigned to, since one stray write would change every equal value.

The arithmetic works on the interned primitive parts, of which a
computation meets few (a file in a rescaled basis multiplies many rational
multiples of the same few parts):
- a product (k_a / d_a) u * (k_b / d_b) v is (k_a k_b g / d_a d_b) w, where
  u v = g w with w primitive is convolved and reduced mod Phi_M once per
  pair of parts, and the scale is put in lowest terms by one gcd;
- a sum of multiples of one part adds the scales; other sums add
  coordinates and take the content of the result, and each sum of two
  values is stored like a product, since most sums repeat a pair;
- the inverse of (k / den) u is (den / k) u^-1, with u^-1 computed once per
  part.

All of it is plain int arithmetic.  `parse` reads render's grammar with
`int` too; `fractions.Fraction` reads only the other spellings of a rational
in `parse` (`1.5`, `+3`, `1e5`) and a non-integer in `from_rational`, which
import it on first use, so a process that reads only render's grammar loads
neither `fractions` nor the `decimal` it imports (`Rational`, the same class,
is served by the module `__getattr__`).  A decimal exponent of more than
`sys.get_int_max_str_digits()` in magnitude is refused before `Fraction`
builds 10^|exponent|, as `int` refuses a digit string past that limit.

The inverse of a part and `embed` share one zeta-substitution
(`_substitute`: replace zeta_M by a power of a root of unity and reduce
through the `xpow` rows): `embed` substitutes zeta_{M'}^(M'/M), and the
inverse is the product of the Galois conjugates sigma_r(u) (zeta -> zeta^r)
divided by the rational norm.
"""

from __future__ import annotations

import sys
import weakref
from math import gcd

from .errors import ConductorMismatch, DivisionByZero, NotASubfield, ParseError


def __getattr__(name):
    # `Rational`, imported on first use (PEP 562)
    if name == "Rational":
        from fractions import Fraction
        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    __slots__ = ("M", "phi", "red", "zero", "one", "_xpow")

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
        # the primitive parts of 0 and 1
        self.zero = _part((0,) * phi)
        self.one = _part((1,) + (0,) * (phi - 1))
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


# Products, sums, primitive parts, products of parts and inverses of parts
# are memoised, each table up to _CACHE_CAP entries; past it new results are
# computed but not stored.  _INTERN is not capped: it lists only live values.
_INTERN: dict[tuple, "_Ref"] = {}  # (M, prim, k, den) -> the live value
_MUL_CACHE: dict[tuple, "CycloNum"] = {}  # (a, b) -> a * b
_ADD_CACHE: dict[tuple, "CycloNum"] = {}  # (a, b) -> a + b
_PARTS: dict[tuple, tuple] = {}  # primitive part -> its one stored copy
_PART_MUL: dict[tuple, tuple] = {}  # (M, u, v), (M, v, u) -> (g, w): u v = g w
_PART_INV: dict[tuple, tuple] = {}  # (M, u) -> (n, d, w) with u^-1 = (n/d) w
_CACHE_CAP = 1 << 20


def _part(t: tuple) -> tuple:
    """The stored copy of the primitive part t."""
    p = _PARTS.get(t)
    if p is None:
        p = t
        if len(_PARTS) < _CACHE_CAP:
            _PARTS[t] = t
    return p


def _primitive(nums) -> tuple[int, tuple]:
    """(g, w) with nums = g * w, w primitive (or zero, with g = 0)."""
    g = gcd(*nums)
    if g:
        for x in nums:
            if x:
                if x < 0:
                    g = -g
                break
        if g != 1:
            return g, _part(tuple(x // g for x in nums))
    return g, _part(tuple(nums))


class _Ref(weakref.ref):
    """A weak reference to an interned value, carrying its `_INTERN` key."""

    __slots__ = ("key",)


def _forget(ref: _Ref, intern=_INTERN) -> None:
    # a value died; a newer value of the same key may already hold the entry
    if intern.get(ref.key) is ref:
        del intern[ref.key]


def _value(M: int, prim: tuple, k: int, den: int) -> "CycloNum":
    """The value (k / den) * prim, all in canonical form: the live object of
    that key if there is one, else a new one."""
    key = (M, prim, k, den)
    ref = _INTERN.get(key)
    if ref is not None:
        obj = ref()
        if obj is not None:
            return obj
    obj = object.__new__(CycloNum)
    _set = object.__setattr__
    _set(obj, "M", M)
    _set(obj, "prim", prim)
    _set(obj, "k", k)
    _set(obj, "den", den)
    ref = _Ref(obj, _forget)
    ref.key = key
    _INTERN[key] = ref
    return obj


def _scaled(M: int, prim: tuple, n: int, d: int) -> "CycloNum":
    """(n / d) * prim for a primitive part prim, d != 0 and n = 0 only if
    prim is zero: one gcd puts the scale in lowest terms."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _value(M, prim, n, d)


def _part_product(M: int, u: tuple, v: tuple) -> tuple[int, tuple]:
    """(g, w) with u * v = g * w in Z[zeta_M], w primitive: the one
    convolution and reduction mod Phi_M for the pair of parts."""
    ctx = _context(M)
    phi = ctx.phi
    conv = [0] * (2 * phi - 1) if phi > 1 else [0]
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    conv[i + j] += ui * vj
    res = conv[:phi]
    red = ctx.red
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            row = red[k - phi]
            for i in range(phi):
                if row[i]:
                    res[i] += c * row[i]
    part = _primitive(res)
    if len(_PART_MUL) < _CACHE_CAP:
        _PART_MUL[(M, u, v)] = _PART_MUL[(M, v, u)] = part
    return part


def _part_inverse(M: int, u: tuple) -> tuple[int, int, tuple]:
    """(n, d, w) with u^-1 = (n / d) * w, w primitive, for a nonzero part u.

    u^-1 = c / N(u), where c is the product of the conjugates sigma_r(u).
    sigma_r (zeta -> zeta^r, 1 < r < M, gcd(r, M) = 1) runs over the
    Galois group of Q(zeta_M) / Q minus the identity, so the norm
    N(u) = u * c is the product of all Galois conjugates of u.  Since
    sigma_j sigma_r = sigma_jr, each sigma_j permutes the conjugates and
    fixes N(u), which is therefore rational; it is nonzero because u is.
    """
    x = _value(M, u, 1, 1)
    c = CycloNum.one(M)
    for r in range(2, M):
        if gcd(r, M) == 1:
            c = c * _substitute(x, M, r)
    norm = x * c
    # norm = norm.k / norm.den, so u^-1 = (c.k * norm.den) / (c.den * norm.k) * c.prim
    part = (c.k * norm.den, c.den * norm.k, c.prim)
    if len(_PART_INV) < _CACHE_CAP:
        _PART_INV[(M, u)] = part
    return part


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")


class Record:
    """Base of an immutable record whose fields are its `__slots__`.

    A subclass lists its fields, in order, as `__slots__`.  Every field is
    set once, by position or by keyword; == and hash compare the field
    tuples of two records of the same class, and the repr is
    Name(field=value, ...).
    """

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, "
                            f"got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated "
                                f"field {name!r}")
            values[name] = value
        if len(values) < len(names):
            missing = [name for name in names if name not in values]
            raise TypeError(f"{type(self).__name__}: missing fields {missing}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__) + ")")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as fields cannot be set
        return type(self), self._fields()


class CycloNum:
    """An element (k / den) * prim of Q(zeta_M), immutable and the only
    live object of its value, so == and hash are those of `object`.

    `prim` is the primitive part (content 1, first nonzero entry positive)
    and k / den a reduced scale with den > 0; zero is k = 0 with the zero
    tuple.  `num` = k * prim are the integer coordinates over den.
    """

    __slots__ = ("M", "prim", "k", "den", "__weakref__")

    __setattr__ = __delattr__ = _frozen

    def __new__(cls, M: int, num: tuple[int, ...], den: int = 1):
        # num / den in canonical coordinates (gcd(content, den) = 1, den > 0)
        return CycloNum.make(M, num, den)

    @property
    def num(self) -> tuple[int, ...]:
        k = self.k
        return self.prim if k == 1 else tuple(k * x for x in self.prim)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def make(M: int, nums, den: int = 1) -> "CycloNum":
        """Normalize arbitrary integer coordinates / denominator."""
        if den == 0:
            raise DivisionByZero("zero denominator")
        g, prim = _primitive(nums)
        return _scaled(M, prim, g, den)

    @staticmethod
    def from_rational(M: int, q) -> "CycloNum":
        if type(q) is not int:
            from fractions import Fraction
            q = Fraction(q)
        ctx = _context(M)
        nums = [0] * ctx.phi
        nums[0] = q.numerator
        return CycloNum.make(M, nums, q.denominator)

    @staticmethod
    def zeta(M: int, e: int = 1) -> "CycloNum":
        ctx = _context(M)
        return CycloNum.make(M, ctx.xpow(e), 1)

    @staticmethod
    def zero(M: int) -> "CycloNum":
        return _value(M, _context(M).zero, 0, 1)

    @staticmethod
    def one(M: int) -> "CycloNum":
        return _value(M, _context(M).one, 1, 1)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.k

    def is_one(self) -> bool:
        return (self.k == 1 and self.den == 1 and self.prim[0] == 1
                and not any(self.prim[1:]))

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "CycloNum"):
        if self.M != other.M:
            raise ConductorMismatch(f"conductors {self.M} and {other.M} differ")

    def __add__(self, other: "CycloNum") -> "CycloNum":
        key = (self, other)
        out = _ADD_CACHE.get(key)
        if out is not None:
            return out
        self._check(other)
        if not self.k:
            return other
        if not other.k:
            return self
        ka, kb, da, db = self.k, other.k, self.den, other.den
        if da != db:
            ka, kb, da = ka * db, kb * da, da * db
        if self.prim is other.prim:
            n = ka + kb
            out = _scaled(self.M, self.prim, n, da) if n else CycloNum.zero(self.M)
        else:
            out = CycloNum.make(
                self.M, [ka * x + kb * y for x, y in zip(self.prim, other.prim)], da)
        if len(_ADD_CACHE) < _CACHE_CAP:
            _ADD_CACHE[key] = out
        return out

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        return self + (-other)

    def __neg__(self) -> "CycloNum":
        return _value(self.M, self.prim, -self.k, self.den)

    def __mul__(self, other: "CycloNum") -> "CycloNum":
        key = (self, other)
        out = _MUL_CACHE.get(key)
        if out is not None:
            return out
        # a miss, handled in this frame: a stored pair has passed this check
        M = self.M
        if M != other.M:
            raise ConductorMismatch(f"conductors {M} and {other.M} differ")
        u, v = self.prim, other.prim
        part = _PART_MUL.get((M, u, v))
        if part is None:
            part = _part_product(M, u, v)
        g, w = part
        # the scale in lowest terms, as `_scaled` puts it (both den > 0)
        n, d = self.k * other.k * g, self.den * other.den
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        ref = _INTERN.get((M, w, n, d))
        out = ref() if ref is not None else None
        if out is None:
            out = _value(M, w, n, d)
        if len(_MUL_CACHE) < _CACHE_CAP:
            _MUL_CACHE[key] = out
        return out

    def inverse(self) -> "CycloNum":
        """((k / den) prim)^-1 = (den / k) prim^-1, with one norm per part
        (`_part_inverse`)."""
        if not self.k:
            raise DivisionByZero("division by zero in Q(zeta)")
        M, u = self.M, self.prim
        part = _PART_INV.get((M, u))
        if part is None:
            part = _part_inverse(M, u)
        n, d, w = part
        return _scaled(M, w, self.den * n, self.k * d)

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
    """Inverse of render for conductor M.

    A coefficient in render's grammar (-?digits or -?digits/digits, ASCII
    digits) is read with `int`; any other spelling goes through `_rational`,
    so it reads as `fractions.Fraction` reads it or is refused as Fraction
    refuses it.  A duplicate power is refused only when the earlier
    coefficient is nonzero.
    """
    text = text.strip()
    if text == "0":
        return CycloNum.zero(M)
    phi = _context(M).phi
    nums = [0] * phi
    dens = [1] * phi
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
        if not (0 <= e < phi):
            raise ParseError(f"power out of range in term {term!r}")
        n_s, slash, d_s = coeff_s.partition("/")
        try:
            if (coeff_s.isascii() and (n_s[1:] if n_s[:1] == "-" else n_s).isdigit()
                    and (not slash or d_s.isdigit())):
                n, d = int(n_s), int(d_s) if slash else 1
                if not d:
                    raise ZeroDivisionError(f"zero denominator in {coeff_s!r}")
            else:
                n, d = _rational(coeff_s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient in term {term!r}") from exc
        if nums[e]:
            raise ParseError(f"duplicate power {e} in {text!r}")
        nums[e], dens[e] = n, d
    den = 1
    for d in dens:
        den = den * d // gcd(den, d)
    return CycloNum.make(M, [n * (den // d) for n, d in zip(nums, dens)], den)


def _rational(s: str) -> tuple[int, int]:
    """(numerator, denominator) of s in any spelling `fractions.Fraction`
    reads.  An exponent of more than `sys.get_int_max_str_digits()` in
    magnitude is refused first, since Fraction would build 10^|exponent|:
    the interpreter's digit limit already refuses a longer digit string."""
    exp = s.replace("E", "e").partition("e")[2]
    if exp:
        limit = sys.get_int_max_str_digits()
        if limit and abs(int(exp)) > limit:
            raise ValueError(f"exponent of {s!r} exceeds {limit} in magnitude")
    from fractions import Fraction
    q = Fraction(s)
    return q.numerator, q.denominator
