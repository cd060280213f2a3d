"""Field and kernel arithmetic against sympy, on seeded inputs.

sympy is an independent oracle for this test only; hopfkit never imports
it.  An element of Q(zeta_M) is sum num[i] x^i / den modulo Phi_M, so
inverses are checked with sympy's polynomial inverse modulo Phi_M, and
kernel dimensions through the rank over Q of the regular representation:
a matrix of rank r over Q(zeta_M) has rank r * phi(M) once each entry is
replaced by its phi x phi multiplication matrix.
"""

import random

import sympy

from hopfkit.cyclo import CycloNum, _context, cyclotomic_polynomial
from hopfkit.linalg import dense_to_sparse, kernel, sparse_to_dense

x = sympy.Symbol("x")


def phi_poly(M):
    return sympy.Poly(sympy.cyclotomic_poly(M, x), x, domain="QQ")


def as_poly(a: CycloNum):
    return sympy.Poly(
        sum(sympy.Rational(c, a.den) * x ** i for i, c in enumerate(a.num)),
        x, domain="QQ")


def coords(poly, phi):
    """Power-basis coordinates (low to high) of a polynomial of degree < phi."""
    c = poly.all_coeffs()[::-1]
    return [sympy.Rational(v) for v in c] + [sympy.Rational(0)] * (phi - len(c))


def rnd(rng, M):
    phi = _context(M).phi
    return CycloNum.make(M, [rng.randint(-3, 3) for _ in range(phi)],
                         rng.randint(1, 5))


def test_cyclotomic_polynomial_matches_sympy():
    for M in list(range(1, 61)) + [64, 81, 100, 105, 125, 243]:
        want = phi_poly(M).all_coeffs()[::-1]
        assert cyclotomic_polynomial(M) == tuple(int(c) for c in want), M


def test_inverse_matches_sympy():
    rng = random.Random(5)
    # 1 and 2 have no nontrivial conjugate, 18 = 2 mod 4, and phi(49) = 42;
    # they come last so the earlier conductors keep their seeded elements
    for M in (3, 4, 5, 8, 9, 12, 15, 25, 27, 1, 2, 18, 49):
        P, phi = phi_poly(M), _context(M).phi
        for _ in range(6):
            a = rnd(rng, M)
            if a.is_zero():
                continue
            want = coords(sympy.invert(as_poly(a), P), phi)
            got = a.inverse()
            assert [sympy.Rational(c, got.den) for c in got.num] == want, (M, a)


def rational_rank(rows, M):
    """rank over Q of the regular representation of a matrix over Q(zeta_M)."""
    P, phi = phi_poly(M), _context(M).phi
    blocks = []
    for row in rows:
        mats = []
        for a in row:
            pa = as_poly(a)
            # column j: coordinates of a * x^j mod Phi_M
            cols = [coords((pa * sympy.Poly(x ** j, x, domain="QQ")).rem(P), phi)
                    for j in range(phi)]
            mats.append(sympy.Matrix(cols).T)
        blocks.append(mats)
    return sympy.BlockMatrix(blocks).as_explicit().rank()


def test_kernel_dimension_matches_sympy_rank():
    rng = random.Random(11)
    for M in (3, 4, 9):
        phi = _context(M).phi
        for shape in ((3, 4), (4, 4), (2, 5)):
            m, n = shape
            base = [[rnd(rng, M) for _ in range(n)] for _ in range(2)]
            # the remaining rows are combinations of two, so the rank is low
            rows = base[:]
            while len(rows) < m:
                c, d = rnd(rng, M), rnd(rng, M)
                rows.append([c * u + d * v for u, v in zip(*base)])
            space = kernel([dense_to_sparse(r) for r in rows], n, M)
            assert rational_rank(rows, M) == phi * (n - space.dim), (M, shape)
            zero = CycloNum.zero(M)
            for v in space.basis:
                for r in rows:
                    acc = zero
                    for u, w in zip(r, sparse_to_dense(v, n, M)):
                        acc = acc + u * w
                    assert acc.is_zero()
