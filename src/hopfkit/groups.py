"""The small finite groups used by the constructors.

Each group carries an explicit element list, multiplication, and its full
set of linear characters (lifted from the abelianization), which become
the character claims of the group algebra.
"""

from __future__ import annotations

from math import lcm

from .cyclo import CycloNum
from .errors import FieldTooSmall


class FiniteGroup:
    def __init__(self, label, elements, mul, identity, char_exponents,
                 char_modulus, abelian):
        self.label = label
        self.elements = list(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.mul = mul
        self.identity = identity
        self.abelian = abelian
        # characters given as exponent functions: chi(g) = zeta_m^e(g)
        self.char_modulus = char_modulus
        self.char_exponents = char_exponents  # list of (elem -> int mod char_modulus)

    @property
    def order(self) -> int:
        return len(self.elements)

    def inverse(self, g):
        prev, h = self.identity, g
        while h != self.identity:
            prev, h = h, self.mul(h, g)
        return prev

    def element_order(self, g) -> int:
        k, h = 1, g
        while h != self.identity:
            h = self.mul(h, g)
            k += 1
        return k

    @property
    def exponent(self) -> int:
        e = 1
        for g in self.elements:
            e = lcm(e, self.element_order(g))
        return e

    def characters(self, M: int) -> list[dict]:
        """Characters over Q(zeta_M) as sparse vectors on the element basis
        (every value is a root of unity); needs char_modulus | M."""
        if M % self.char_modulus != 0:
            raise FieldTooSmall(
                f"characters of {self.label} need conductor divisible by "
                f"{self.char_modulus}, got {M}")
        step = M // self.char_modulus
        return [{i: CycloNum.zeta(M, step * expfun(g))
                 for i, g in enumerate(self.elements)}
                for expfun in self.char_exponents]


def cyclic(n: int) -> FiniteGroup:
    elements = list(range(n))

    def mul(a, b):
        return (a + b) % n

    chars = [(lambda g, a=a: (a * g) % n) for a in range(n)]
    return FiniteGroup(f"Z/{n}", elements, mul, 0, chars, n, True)


def abelian(*factors: int) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders."""
    if len(factors) == 1:
        return cyclic(factors[0])
    from itertools import product
    elements = list(product(*[range(d) for d in factors]))
    mod = lcm(*factors)

    def mul(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, factors))

    chars = []
    for alpha in product(*[range(d) for d in factors]):
        chars.append(lambda g, alpha=alpha:
                     sum((mod // d) * a * x for a, x, d in zip(alpha, g, factors)) % mod)
    label = "Z/" + " x Z/".join(str(d) for d in factors)
    return FiniteGroup(label, elements, mul, tuple(0 for _ in factors),
                       chars, mod, True)


def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_p; order p^3, exponent p (p odd)."""
    from itertools import product
    elements = list(product(range(p), repeat=3))

    def mul(u, v):
        a, b, c = u
        x, y, z = v
        return ((a + x) % p, (b + y) % p, (c + z + a * y) % p)

    # abelianization is Z/p x Z/p on the (a, b) coordinates
    chars = []
    for al in range(p):
        for be in range(p):
            chars.append(lambda g, al=al, be=be: (al * g[0] + be * g[1]) % p)
    return FiniteGroup(f"Heis({p})", elements, mul, (0, 0, 0), chars, p, False)


def semidirect_p2_p(p: int) -> FiniteGroup:
    """Z/p^2 semidirect Z/p with the generator acting by x -> (1+p)x."""
    from itertools import product
    p2 = p * p
    u = 1 + p
    elements = list(product(range(p2), range(p)))
    upow = [pow(u, j, p2) for j in range(p)]

    def mul(a, b):
        i, j = a
        k, l = b
        return ((i + upow[j] * k) % p2, (j + l) % p)

    # abelianization is Z/p x Z/p: (i mod p, j)
    chars = []
    for al in range(p):
        for be in range(p):
            chars.append(lambda g, al=al, be=be: (al * (g[0] % p) + be * g[1]) % p)
    return FiniteGroup(f"Z/{p2} : Z/{p}", elements, mul, (0, 0), chars, p, False)
