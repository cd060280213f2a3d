"""The group-like census certified by its count, against the |G|^2 product
table it replaces.

`oracle_census` multiplies every pair of distinct claims, checks closure
and inverses on the table, and reads the abelian flag and the element
orders from it.  `grouplike_census` instead certifies S = G(H) by
|S| = character count of H* and reads the group from the action of a
generating set on a few separating coordinates.  Both must give the same
record on the p = 3 corpus (both censuses of each member), on D(taft) and
on a relabelled, rescaled D(taft); a field-multiplication budget pins the
work.
"""

import random
from fractions import Fraction

import pytest

from hopfkit.constructors import group_algebra
from hopfkit.cyclo import CycloNum
from hopfkit.errors import ClaimIncomplete
from hopfkit.groups import cyclic
from hopfkit.hopf import ClaimSet, FinHopf, verify_hopf
from hopfkit.invariants import (CensusResult, _abelian_invariants,
                                characters_census, grouplike_census)
from hopfkit.linalg import SparseTensor3

def oracle_abelian_invariants(orders):
    """The invariant factors through trial division of every element order
    and the conjugate of the conjugate partition."""
    size = len(orders)
    if size == 1:
        return ()
    primes = set()
    for o in orders:
        d, f = o, 2
        while d > 1:
            while d % f == 0:
                primes.add(f)
                d //= f
            f += 1
    parts_by_prime = {}
    for p in sorted(primes):
        maxj = 0
        for o in orders:
            e = 0
            while o % p == 0:
                o //= p
                e += 1
            maxj = max(maxj, e)
        logs = [0]
        for j in range(1, maxj + 1):
            cj = sum(1 for o in orders if (p ** j) % o == 0)
            lj = 0
            t = cj
            while t > 1:
                assert t % p == 0, "element-order counts are not a p-power"
                t //= p
                lj += 1
            logs.append(lj)
        m = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
        lam = []
        k = 1
        while True:
            cnt = sum(1 for e in m if e >= k)
            if cnt == 0:
                break
            lam.append(cnt)
            k += 1
        parts_by_prime[p] = sorted((p ** e for e in lam if e), reverse=True)
    width = max((len(v) for v in parts_by_prime.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for lst in parts_by_prime.values():
            if i < len(lst):
                f *= lst[i]
        factors.append(f)
    return tuple(factors)


COUNT_MESSAGE = r"verified group-likes but certificate is \d+"


def oracle_census(H):
    """The census through the full product table of the distinct claims."""
    distinct: dict = {}
    for g in H.verified_grouplikes:
        distinct.setdefault(frozenset(g.items()), g)
    seen = list(distinct)
    unit = frozenset(H.unit.items())
    assert seen and unit in distinct
    prods = {}
    for a in seen:
        for b in seen:
            p = frozenset(H.mul(distinct[a], distinct[b]).items())
            assert p in distinct, "claims not closed"
            prods[(a, b)] = p
    for a in seen:
        assert any(prods[(a, b)] == unit for b in seen), "no inverse"
    m = H.dual_cached().character_count
    assert len(seen) == m
    abelian = all(prods[(a, b)] == prods[(b, a)] for a in seen for b in seen)
    orders = []
    for a in seen:
        k, acc = 1, a
        while acc != unit:
            acc = prods[(acc, a)]
            k += 1
        orders.append(k)
    invf = _abelian_invariants(tuple(orders)) if abelian else None
    return CensusResult(tuple(distinct.values()), abelian, invf, tuple(orders))


def with_claims(H, grouplikes, label):
    return FinHopf(H.dim, H.conductor, H.mult, H.unit, H.comult, H.counit,
                   H.antipode, ClaimSet(grouplikes, H.claims.characters), label)


def relabel(H, seed):
    """H and its claims in the basis e'_{sigma(i)} = lam_i e_i."""
    n, M = H.dim, H.conductor
    sigma = list(range(n))
    random.Random(seed).shuffle(sigma)
    lam = [Fraction((-1) ** i * (1 + i % 5), 1 + (i // 5) % 4) for i in range(n)]

    def q(x):
        return CycloNum.from_rational(M, x)

    mult = {(sigma[i], sigma[j], sigma[k]): c * q(lam[i] * lam[j] / lam[k])
            for (i, j, k), c in H.mult.entries}
    comult = {(sigma[i], sigma[j], sigma[k]): c * q(lam[i] / (lam[j] * lam[k]))
              for (i, j, k), c in H.comult.entries}
    unit = {sigma[i]: c * q(1 / lam[i]) for i, c in H.unit.items()}
    counit = {sigma[i]: c * q(lam[i]) for i, c in H.counit.items()}
    S = [None] * n
    for j, col in enumerate(H.antipode):
        S[sigma[j]] = {sigma[a]: c * q(lam[j] / lam[a]) for a, c in col.items()}
    # a group-like v = sum v_i e_i has v'_{sigma(i)} = v_i / lam_i; a
    # character beta has beta'_{sigma(i)} = beta(lam_i e_i)
    grouplikes = [{sigma[i]: c * q(1 / lam[i]) for i, c in g.items()}
                  for g in H.claims.grouplikes]
    characters = [{sigma[i]: c * q(lam[i]) for i, c in b.items()}
                  for b in H.claims.characters]
    return FinHopf(n, M, SparseTensor3.from_dict((n, n, n), mult), unit,
                   SparseTensor3.from_dict((n, n, n), comult), counit, S,
                   ClaimSet(grouplikes, characters), f"{H.label}:relabelled")


def assert_matches_oracle(H):
    assert grouplike_census(H) == oracle_census(H), H.label
    assert characters_census(H) == oracle_census(H.dual_cached()), H.label


def test_corpus_censuses_match_the_table(corpus3):
    assert len(corpus3) == 17
    for H in corpus3.values():
        assert_matches_oracle(H)
    nonabelian = {label for label, H in corpus3.items()
                  if not grouplike_census(H).abelian}
    assert nonabelian == {"k[Heis(3)]", "k[Z/9 : Z/3]"}


def test_double_and_a_relabelling_match_the_table(double_taft):
    assert_matches_oracle(double_taft)
    R = relabel(double_taft, 7)
    assert verify_hopf(R).ok
    assert_matches_oracle(R)
    # the relabelling moves the claims but not the group
    for census in (grouplike_census, characters_census):
        a, b = census(double_taft), census(R)
        assert (a.orders, a.abelian, a.invariant_factors) == \
               (b.orders, b.abelian, b.invariant_factors)


def test_proper_subgroup_of_claims_fails_the_count():
    H = group_algebra(cyclic(9), 9)
    g = H.claims.grouplikes
    orders = oracle_census(H).orders
    sub = [x for k, x in enumerate(g) if orders[k] in (1, 3)]
    assert len(sub) == 3
    with pytest.raises(ClaimIncomplete, match="3 " + COUNT_MESSAGE):
        grouplike_census(with_claims(H, sub, "subgroup"))


def test_claims_not_closed_fail_the_count():
    H = group_algebra(cyclic(9), 9)
    orders = oracle_census(H).orders
    unit = H.unit
    gen = next(x for k, x in enumerate(H.claims.grouplikes) if orders[k] == 9)
    with pytest.raises(ClaimIncomplete, match="2 " + COUNT_MESSAGE):
        grouplike_census(with_claims(H, [unit, gen], "open"))


def test_duplicate_claims_are_deduped_in_claim_order():
    H = group_algebra(cyclic(9), 9)
    g = list(H.claims.grouplikes)
    order = [g[3], g[0], g[3]] + g[::-1] + [g[0]]
    H2 = with_claims(H, order, "duplicates")
    c = grouplike_census(H2)
    expected = [g[3], g[0]] + [x for x in g[::-1] if x not in (g[3], g[0])]
    assert list(c.elements) == expected
    assert c == oracle_census(H2)


def test_census_work_budget(monkeypatch):
    # k[Z/27]: 27 basis-vector group-likes; its dual k^G: 27 dense characters.
    # The |G|^2 table took 1,458 and 551,124 multiplications.
    H = group_algebra(cyclic(27), 27)
    for K in (H, H.dual_cached()):
        K.verified_grouplikes
        K.dual_cached().character_count
    # count CycloNum multiplications, as the benchmark's cyclo mode does
    n = [0]
    orig = CycloNum.__mul__

    def mul(a, b):
        n[0] += 1
        return orig(a, b)
    monkeypatch.setattr(CycloNum, "__mul__", mul)

    c = characters_census(H)
    assert c.size == 27 and c.invariant_factors == (27,)
    assert n[0] <= 5000, n[0]
    n[0] = 0
    c = grouplike_census(H)
    assert c.size == 27 and c.invariant_factors == (27,)
    assert n[0] <= 1500, n[0]


def _factor_tuples(bound, least=2):
    """Every non-increasing tuple of integers >= least with product <= bound."""
    yield ()
    for first in range(least, bound + 1):
        for rest in _factor_tuples(bound // first, first):
            yield (*rest, first)


def test_abelian_invariants_match_the_oracle():
    # Z/n1 x ... x Z/nk for every factor tuple of order <= 200: the element
    # (a_i) has order lcm(n_i / gcd(a_i, n_i))
    from itertools import product
    from math import gcd, lcm, prod
    groups = 0
    for factors in _factor_tuples(200):
        orders = tuple(lcm(*(n // gcd(a, n) for a, n in zip(elt, factors)))
                       for elt in product(*(range(n) for n in factors)))
        invf = _abelian_invariants(orders)
        assert invf == oracle_abelian_invariants(orders), factors
        assert prod(invf) == len(orders), factors
        assert all(a % b == 0 for a, b in zip(invf, invf[1:])), factors
        groups += 1
    assert groups == 898  # the trivial group included
    assert _abelian_invariants(tuple(
        lcm(*(n // gcd(a, n) for a, n in zip(elt, (36, 6))))
        for elt in product(range(36), range(6)))) == (36, 6)
