"""Quasitriangular structures: QT axiom verification, rank and minimality,
Drinfeld element identities, exhaustive ribbon search, R-matrix
constructors for abelian group algebras and the p^3 small quantum group,
and the Drinfeld-double surjection F.

The ribbon search space {l^{-1} u : l in G(H)} is exhaustive: for any
ribbon v, Delta(u v^{-1}) = (u v^{-1}) (x) (u v^{-1}) follows from
Delta(u) = (R~ R)^{-1} (u (x) u) together with (R.4), so u v^{-1} is
group-like and every ribbon element has the tested form.
"""

from __future__ import annotations

from itertools import product

from .cyclo import CycloNum, Record
from .errors import FieldTooSmall, FixtureRejected
from .hopf import (CheckResult, FinHopf, HopfMorphism, VerificationReport,
                   _certified)
from .invariants import grouplike_census
from .linalg import (Subspace, apply_tensor_columns, compose_columns,
                     contract, coproduct_leg, functional_leg,
                     identity_columns, ideal_closure, image, outer,
                     sparse_add_into, transpose_columns, zero_free)


class RMatrixData(Record):
    __slots__ = (
        "host",     # FinHopf
        "R",        # sorted ((i, j), coeff)
        "rank",
        "K",        # Subspace, the image of f_R
        "L",        # Subspace, the image of f_R~
        "u",        # Drinfeld element (cached at construction)
        "minimal",
    )

    def r_dict(self) -> dict:
        return dict(self.R)


def _tensor_swap(X: dict) -> dict:
    return {(b, a): c for (a, b), c in X.items()}


def f_matrices(H: FinHopf, R: dict):
    """(f_R, f_R~) as sparse columns on dual-basis coordinates.

    f_R(beta_a) = sum_b R_ab e_b and f_R~(beta_b) = sum_a R_ab e_a, so
    f_R~ = (f_R)* is the transpose of f_R.
    """
    n = H.dim
    fR: list[dict] = [{} for _ in range(n)]
    for (a, b), c in R.items():
        if not c.is_zero():
            fR[a][b] = c
    return fR, transpose_columns(fR, n)


def _holds(name: str, ok: bool, where=None) -> CheckResult:
    """The verdict of a yes/no check, failing at `where`, by default (name,)."""
    return CheckResult(name, None if ok else where or (name,))


def _qt2(crows, mrows, R: dict) -> bool:
    """QT.2, (Delta (x) id)(R) = R13 R23, for the comultiplication rows `crows`.

    QT.4, (id (x) Delta)(R) = R13 R12, is this law for R21 on the
    co-opposite rows (each ((j, k), c) read as ((k, j), c)).  Reversing the
    three tensor legs maps (id (x) Delta)(R) onto (Delta^cop (x) id)(R21) and
    R13 R12 onto (R21)13 (R21)23: the two dicts compared are those of the
    direct QT.4 sweep with each key (x, y, z) renamed to (z, y, x), summed in
    the same order, so the verdict is the same.
    """
    lhs = coproduct_leg(crows, R, 0)
    rhs: dict = {}
    for (a, b), c in R.items():
        for (a2, b2), c2 in R.items():
            cc = c * c2
            for k, ck in mrows[b][b2]:
                sparse_add_into(rhs, (a, a2, k), cc * ck)
    return lhs == rhs


def verify_qt(H: FinHopf, R: dict) -> tuple[VerificationReport, RMatrixData | None]:
    """Exact QT.1-QT.5, the bialgebra-map formulation, rank and minimality.

    The `f_R_bialgebra_map` entry is QT.2 and QT.3 and QT.4 and QT.5, for
    every R.  Take f_R : H*^cop -> H, f_R(beta) = sum beta(R1) R2, with the
    structure of `dual`: (beta gamma)(h) = sum beta(h1) gamma(h2), unit eps,
    (Delta beta)(x (x) y) = beta(xy) (read swapped in H*^cop) and counit
    beta -> beta(1).  Since the beta (x) gamma (x) id separate the tensors:
    - f_R(beta gamma) = (beta (x) gamma (x) id)((Delta (x) id)(R)) and
      f_R(beta) f_R(gamma) = (beta (x) gamma (x) id)(R13 R23), so f_R is
      multiplicative iff QT.2 holds;
    - f_R(eps) = (eps (x) id)(R), so f_R is unital iff QT.3 holds;
    - Delta(f_R(beta)) = (beta (x) id (x) id)((id (x) Delta)(R)) and
      (f_R (x) f_R)(Delta^cop beta) = (beta (x) id (x) id)(R13 R12), so f_R
      is comultiplicative iff QT.4 holds;
    - eps(f_R(beta)) = beta((id (x) eps)(R)), so f_R is counital iff QT.5
      holds;
    - a bialgebra map f between Hopf algebras (H*^cop is one, H is
      verified) commutes with the antipodes, since f S and S f are both
      convolution inverses of f.
    So the entry, with its failure index ("f_R",), is the verdict of
    verify_morphism on f_R, read off the QT checks without building H*^cop.

    The entries `rank_K_equals_L`, `K_sub_hopf` and `L_sub_hopf` are
    reached only when every earlier entry passes, and then they hold:
    - f_R : H*^cop -> H is a Hopf map, as above;
    - f_R~(beta) = sum beta(R2) R1 is a Hopf map H*^op -> H.  By QT.4,
      f_R~(beta gamma) = (id (x) beta (x) gamma)(R13 R12)
      = f_R~(gamma) f_R~(beta), so it is anti-multiplicative; by QT.2,
      Delta f_R~(beta) = (id (x) id (x) beta)((Delta (x) id)(R))
      = (id (x) id (x) beta)(R13 R23) = sum f_R~(beta1) (x) f_R~(beta2),
      so it is comultiplicative;
      f_R~(eps) = (id (x) eps)(R) = 1 by QT.5 (unital) and
      eps(f_R~(beta)) = beta((eps (x) id)(R)) = beta(1) by QT.3 (counital);
      and a bialgebra map between Hopf algebras commutes with the antipodes;
    - the image of a Hopf map is a unital subalgebra with Delta(K) in
      K (x) K and S(K) in K, so K = im f_R and L = im f_R~ are Hopf
      subalgebras of H;
    - dim K is the row rank of the matrix (R_ab) and dim L its column
      rank, so the two are equal.
    So the three entries are appended as passes; qt-verify prints them.
    """
    n, M = H.dim, H.conductor
    mrows, crows = H.mrows, H.crows
    R = zero_free(R)  # a file may list zero coefficients; the checks compare dicts
    checks = []

    # QT.1: {h : Delta^cop(h) R = R Delta(h)} is a subalgebra of the verified
    # H (Delta and Delta^cop are algebra maps), so it is H as soon as it holds
    # on the generators; a failure there is located by the sweep over all h
    def qt1_failure(hs):
        for h in range(n) if hs is None else hs:
            d = dict(crows[h])
            if H.tensor_mul(_tensor_swap(d), R) != H.tensor_mul(R, d):
                return (h,)
        return None
    checks.append(CheckResult("QT.1", _certified(qt1_failure, H.generators)))

    R21 = _tensor_swap(R)
    cop = [tuple(((k, j), c) for (j, k), c in row) for row in crows]
    # QT.3 (eps (x) id)(R) = 1 and QT.5 (id (x) eps)(R) = 1
    checks += [_holds("QT.2", _qt2(crows, mrows, R)),
               _holds("QT.3", functional_leg(H.counit, R, 0) == H.unit),
               _holds("QT.4", _qt2(cop, mrows, R21)),
               _holds("QT.5", functional_leg(H.counit, R, 1) == H.unit)]

    # R^{-1} = (S (x) id)(R) and (S (x) S)(R) = R
    sR = apply_tensor_columns(H.antipode, identity_columns(n, M), R)
    unit2 = outer(H.unit, H.unit)
    checks.append(_holds("R_inverse_formula", H.tensor_mul(sR, R) == unit2
                         and H.tensor_mul(R, sR) == unit2, ("R_inverse",)))
    checks.append(_holds("S_tensor_S_fixes_R", apply_tensor_columns(
        H.antipode, H.antipode, R) == R, ("S(x)S",)))

    # f_R : H*^{cop} -> H is a bialgebra map iff QT.2-QT.5 hold (docstring)
    checks.append(_holds("f_R_bialgebra_map",
                         all(c.ok for c in checks[1:5]), ("f_R",)))
    report = VerificationReport(checks)
    if not report.ok:
        return report, None

    K, L = (image(f, n, M) for f in f_matrices(H, R))  # f_R and f_R~
    # theorems once every entry above passes (docstring)
    checks += [CheckResult(name, None)
               for name in ("rank_K_equals_L", "K_sub_hopf", "L_sub_hopf")]
    u = contract(mrows, H.antipode, identity_columns(n, M), R21)  # S(R2) R1
    rm = RMatrixData(H, tuple(sorted(R.items())), K.dim, K, L, u,
                     _generates(H, K, L))
    return VerificationReport(checks), rm


def _generates(H: FinHopf, K: Subspace, L: Subspace) -> bool:
    """Does the subalgebra generated by K and L equal H?  (H_R = KL = LK.)"""
    gens = K.basis + L.basis
    closure = ideal_closure(H.mrows, H.dim, H.conductor, gens + (H.unit,), gens)
    return closure.dim == H.dim


class DrinfeldReport(VerificationReport):
    """The checks, with u and u^{-1} as sparse vectors."""

    __slots__ = ("u", "u_inv")

    def __init__(self, checks, u: dict, u_inv: dict):
        super().__init__(checks)
        for name, value in zip(self.__slots__, (u, u_inv)):
            object.__setattr__(self, name, value)


def drinfeld_element(rm: RMatrixData) -> DrinfeldReport:
    """u = S(R2) R1 and u^{-1} = R2 S^2(R1), with the identities of u as passes.

    An RMatrixData exists only for an R that passed verify_qt, and then each
    entry is a theorem (Drinfeld, "On almost cocommutative Hopf algebras",
    1990; Montgomery, Thm 10.1.13):
    - `u_invertible`: u^{-1} = m(id (x) S^2)(R21) = R2 S^2(R1);
    - `S2_inner_by_u`: S^2(h) = u h u^{-1} for every h;
    - `eps_u_is_1`: eps(u) = eps(R1) eps(R2) = eps((eps (x) id)(R)) = 1,
      by QT.3;
    - `Delta_u_left` and `Delta_u_right`: Delta(u) = (R21 R)^{-1} (u (x) u)
      = (u (x) u) (R21 R)^{-1}, the second because conjugation by u (x) u
      is S^2 (x) S^2, which fixes R21 R since (S (x) S)(R) = R;
    - `uSu_central`: applying S to S^2(S^{-1}(h)) = u S^{-1}(h) u^{-1} gives
      S^2(h) = S(u)^{-1} h S(u), so S(u) u commutes with every h, and
      u S(u) = u (S(u) u) u^{-1} = S(u) u;
    - `u_commutes_with_grouplikes`: u g u^{-1} = S^2(g) = g for a
      group-like g, since S(g) = g^{-1}.
    """
    H = rm.host
    n, M = H.dim, H.conductor
    S2 = compose_columns(H.antipode, H.antipode)
    u_inv = contract(H.mrows, identity_columns(n, M), S2,
                     _tensor_swap(rm.r_dict()))
    checks = [CheckResult(name, None) for name in (
        "u_invertible", "S2_inner_by_u", "eps_u_is_1", "Delta_u_left",
        "Delta_u_right", "uSu_central", "u_commutes_with_grouplikes")]
    return DrinfeldReport(checks, rm.u, u_inv)


# -- ribbon ---------------------------------------------------------------------------


class RibbonCertificate(Record):
    __slots__ = (
        "ribbon_elements",       # sparse vectors
        "candidate_grouplikes",  # the l in G(H) tried (exhaustive)
        "failures",              # (candidate index, first failing axiom)
    )


def ribbon_search(rm: RMatrixData) -> RibbonCertificate:
    """Try v = l^{-1} u for every group-like l; the search is exhaustive.

    Only R.1, R.2 and R.5 are tested: for v = S(l) u with l group-like,
    R.3 and R.4 hold for every candidate.
    - R.3: eps(v) = eps(S(l)) eps(u) = eps(u) = eps((eps (x) id)(R)) = 1,
      by QT.3, since eps(S(R2) R1) = eps(R1) eps(R2).
    - R.4: Q = R21 R commutes with every Delta(h), by QT.1 applied twice:
      R21 R Delta(h) = R21 Delta^cop(h) R = Delta(h) R21 R.  Drinfeld's
      identity is Delta(u) = Q^{-1} (u (x) u) (Drinfeld 1990; Montgomery,
      Thm 10.1.13).  S(l) is group-like and Q^{-1} commutes with
      Delta(S(l)) = S(l) (x) S(l), so Delta(v) = (S(l) (x) S(l)) Q^{-1}
      (u (x) u) = Q^{-1} (v (x) v).
    So each candidate's first failing axiom is the one the full R.1-R.5
    sweep would name.
    """
    H = rm.host
    census = grouplike_census(H)
    u = rm.u
    usu = H.mul(u, H.antipode_of(u))
    ribbons = []
    fails = []
    for idx, l in enumerate(census.elements):
        li = H.antipode_of(l)  # S(l) l = eps(l) 1 = 1
        v = H.mul(li, u)
        # R.1 v^2 = u S(u)
        if H.mul(v, v) != usu:
            fails.append((idx, "R.1"))
            continue
        # R.2 S(v) = v
        if H.antipode_of(v) != v:
            fails.append((idx, "R.2"))
            continue
        # R.3 eps(v) = 1 and R.4 Delta v = (R~R)^{-1} (v (x) v) hold (docstring)
        # R.5 central
        if not H.is_central(v):
            fails.append((idx, "R.5"))
            continue
        ribbons.append(v)
    return RibbonCertificate(tuple(ribbons), census.elements, tuple(fails))


# -- constructors ----------------------------------------------------------------------


def bicharacter_rmatrices(factors: tuple[int, ...], conductor: int):
    """All verified R-matrices on k[G] for abelian G = prod Z/d_i.

    Bicharacters are enumerated by exponent matrices; R_beta is assembled
    in the primitive-idempotent basis from the character table.
    """
    from .constructors import group_algebra
    from .groups import abelian
    G = abelian(*factors)
    M = conductor
    if M % G.exponent != 0:
        raise FieldTooSmall(
            f"bicharacter values of exponent {G.exponent} need a larger conductor")
    H = group_algebra(G, M)
    n = G.order
    chars = G.characters(M)  # indexed like elements: chi_a
    inv_n = CycloNum.from_rational(M, 1) / CycloNum.from_rational(M, n)
    # idempotent E_a = (1/n) sum_g chi_a(g^{-1}) g
    idems = [{gi: inv_n * chars[a][G.index[G.inverse(g)]]
              for gi, g in enumerate(G.elements)} for a in range(n)]

    from math import gcd
    pair_orders = [[gcd(da, db) for db in factors] for da in factors]
    ranges = [range(pair_orders[a][b]) for a in range(len(factors))
              for b in range(len(factors))]
    out = []
    for exps in product(*ranges):
        emat = [[exps[a * len(factors) + b] for b in range(len(factors))]
                for a in range(len(factors))]

        def beta(av, bv) -> CycloNum:
            acc = CycloNum.one(M)
            aa = av if isinstance(av, tuple) else (av,)
            bb = bv if isinstance(bv, tuple) else (bv,)
            for s in range(len(factors)):
                for t in range(len(factors)):
                    o = pair_orders[s][t]
                    k = (emat[s][t] * aa[s] * bb[t]) % o
                    if k:
                        acc = acc * CycloNum.zeta(M, (M // o) * k)
            return acc

        R: dict = {}
        for ai, av in enumerate(G.elements):
            for bi, bv in enumerate(G.elements):
                c = beta(av, bv)
                for i, ci in idems[ai].items():
                    cci = c * ci
                    for j, cj in idems[bi].items():
                        sparse_add_into(R, (i, j), cci * cj)
        rep, rm = verify_qt(H, R)
        if rm is None:
            raise FixtureRejected(
                f"bicharacter R-matrix failed verification: {rep.failures}")
        out.append(rm)
    return H, out


def uq_standard_rmatrix(p: int, e: int = 1, conductor: int | None = None):
    """The standard R on u_q(sl2): (1/p sum q^{-2ij} g^i (x) g^j) *
    (sum_n x^n (x) y^n / [n]_{q^{-2}}!).

    The coefficients are a fixture; verify_qt is the ground truth and
    FixtureRejected reports the first failing axiom if they are wrong for
    the pinned conventions.
    """
    from .constructors import standard_constructors
    H = standard_constructors("uq_sl2", p, e, conductor=conductor)
    M = H.conductor
    q = CycloNum.zeta(M, (M // p) * (e % p))
    monos = H.monomials
    ix = {m: i for i, m in enumerate(monos)}
    one = CycloNum.one(M)

    def gpow(i):
        return ix[((0, 0), (i % p,))]

    def xpow(nn):
        return ix[((nn, 0), (0,))]

    def ypow(nn):
        return ix[((0, nn), (0,))]

    inv_p = one / CycloNum.from_rational(M, p)
    W: dict = {}
    for i in range(p):
        for j in range(p):
            W[(gpow(i), gpow(j))] = inv_p * q ** ((-2 * i * j) % p)
    qm2 = q ** (p - 2)  # q^{-2}
    theta: dict = {}
    c = one
    for nn in range(p):
        if nn:
            bracket = CycloNum.zero(M)
            for k in range(nn):
                bracket = bracket + qm2 ** k
            c = c / bracket
        theta[(xpow(nn), ypow(nn))] = c
    R = H.tensor_mul(W, theta)
    rep, rm = verify_qt(H, R)
    if rm is None:
        raise FixtureRejected(
            f"u_q R-matrix fixture rejected; first failing axiom: "
            f"{rep.failures[0].name if rep.failures else '?'}")
    return H, rm


def double_surjection_check(H: FinHopf, rm: RMatrixData):
    """F : D(H) -> H, F(beta # h) = <beta, R1> R2 h: a Hopf surjection.

    Also re-checks that the double's claimed central group-likes are
    genuinely central.
    """
    from .constructors import drinfeld_double
    from .hopf import verify_morphism
    D = drinfeld_double(H)
    n, M = H.dim, H.conductor
    one = CycloNum.one(M)
    R = rm.r_dict()
    fR, _ = f_matrices(H, R)
    f = HopfMorphism(D, H, [H.mul(fa, {b: one}) for fa in fR for b in range(n)])
    rep = verify_morphism(f)
    central_ok = all(D.is_central(v) for v in D.claims.central_grouplikes)
    return f, rep, central_ok
