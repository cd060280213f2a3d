"""hopfkit: exact computation with finite-dimensional Hopf algebras.

Submodules
----------
cyclo           exact arithmetic in Q(zeta_M)
linalg          exact linear algebra: subspaces, kernels, radicals, tensors
hopf            structure-constant Hopf algebras and categorical operations
invariants      integrals, antipode order, coradical filtration, censuses
groups          small finite groups used by the constructors
presentations   presented pointed Hopf algebras, built along one recursion
constructors    the standard corpus, crossed products, Drinfeld double
quasitriangular R-matrix verification, Drinfeld and ribbon elements
hopffile        the .hopf text file format
papercheck      enumeration/reproduction suites driven by the CLI
cli             command-line interface
"""

from .cyclo import CycloNum, cyclotomic_polynomial, embed


def __getattr__(name):
    # `Rational` (fractions.Fraction) is imported on first use (PEP 562), so
    # importing the package does not load `fractions`
    if name == "Rational":
        from . import cyclo
        return cyclo.Rational
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["CycloNum", "Rational", "cyclotomic_polynomial", "embed"]
__version__ = "0.1.0"
