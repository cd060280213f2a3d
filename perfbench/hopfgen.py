"""Seeded `.hopf` inputs for the file-jobs workload, made without hopfkit.

Everything here works on the canonical text form with `fractions` only, so
the program under test never computes its own test inputs.

A coefficient of Q(zeta_M) is written "a0/d + a1/d*z + a2/d*z^2 ..." with
one common denominator d (the lcm of the reduced term denominators) and
zero terms omitted; "0" is zero.

Basis conventions of the format (the tensors are sparse [i, j, k, coeff]):
  mult     e_i e_j = sum_k c e_k
  comult   Delta(e_i) = sum_{j,k} c e_j (x) e_k
  antipode S(e_j) = sum_a antipode[a][j] e_a
  unit     1 = sum_k unit[k] e_k;  counit[i] = eps(e_i)
A change of basis e'_{sigma(i)} = lam_i e_i therefore maps
  mult c -> c lam_i lam_j / lam_k,  comult c -> c lam_i / (lam_j lam_k),
  antipode[a][j] -> antipode[a][j] lam_j / lam_a,
  unit[k] -> unit[k] / lam_k,  counit[i] -> counit[i] lam_i,
  grouplike claims like the unit, character claims like the counit,
and gives an isomorphic Hopf algebra, which `import` must accept.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm

# Corruption kind -> (axioms verify_hopf must name, whether it names no
# others).  Each structure map of a Hopf algebra is unique (the unit, the
# counit, and the antipode as the convolution inverse of id), so changing one
# entry of it breaks the corresponding law.  The antipode enters no other
# axiom, so an antipode corruption fails exactly the two antipode laws.
CORRUPTIONS = {
    "antipode": ({"antipode_left", "antipode_right"}, True),
    "counit": ({"counit"}, False),
    "unit": ({"unit"}, False),
}

# Scale factors of a rescaled relabelling, up to sign.
RATIOS = [Fraction(a, b) for a in range(1, 8) for b in range(1, 8)]


def parse_coeff(text: str) -> dict[int, Fraction]:
    """Powers of z -> rational coefficients."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        coeff, _, zpart = term.partition("*")
        power = 0 if not zpart else 1 if zpart == "z" else int(zpart[2:])
        out[power] = Fraction(coeff)
    return out


def render_coeff(terms: dict[int, Fraction]) -> str:
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return "0"
    den = lcm(*(c.denominator for c in terms.values()))
    parts = []
    for e in sorted(terms):
        num = terms[e].numerator * (den // terms[e].denominator)
        coeff = str(num) if den == 1 else f"{num}/{den}"
        parts.append(coeff if e == 0 else f"{coeff}*z" if e == 1 else f"{coeff}*z^{e}")
    return " + ".join(parts)


def scale(text: str, r: Fraction) -> str:
    if r == 1:
        return text
    return render_coeff({e: c * r for e, c in parse_coeff(text).items()})


def change_basis(obj: dict, sigma: list[int], lam: list[Fraction]) -> dict:
    """The same Hopf algebra in the basis e'_{sigma(i)} = lam_i e_i."""
    n = obj["dim"]
    out = dict(obj)

    def tensor(triples, factor):
        rows = [[sigma[i], sigma[j], sigma[k], scale(c, factor(i, j, k))]
                for i, j, k, c in triples]
        return sorted(rows)

    def vec(v, factor):
        new = [None] * n
        for i, c in enumerate(v):
            new[sigma[i]] = scale(c, factor(i))
        return new

    out["mult"] = tensor(obj["mult"], lambda i, j, k: lam[i] * lam[j] / lam[k])
    out["comult"] = tensor(obj["comult"], lambda i, j, k: lam[i] / (lam[j] * lam[k]))
    out["unit"] = vec(obj["unit"], lambda k: 1 / lam[k])
    out["counit"] = vec(obj["counit"], lambda i: lam[i])
    ant = [[None] * n for _ in range(n)]
    for a, row in enumerate(obj["antipode"]):
        for j, c in enumerate(row):
            ant[sigma[a]][sigma[j]] = scale(c, lam[j] / lam[a])
    out["antipode"] = ant
    claims = obj["claims"]
    out["claims"] = {
        "grouplikes": [vec(g, lambda k: 1 / lam[k]) for g in claims["grouplikes"]],
        "characters": [vec(x, lambda i: lam[i]) for x in claims["characters"]],
        # An isomorphism fixture names a second algebra in its own basis;
        # it cannot follow a change of basis of this one.
        "iso_fixtures": [],
    }
    return out


def relabel(obj: dict, rng: random.Random, rescale: bool) -> dict:
    """A seeded basis permutation, optionally with rational rescaling.

    A pure permutation keeps every field value of the input, so the
    program's multiplication cache sees the same products; rescaling by
    distinct rationals creates new values and products.  The scale factor
    of each input basis element is fixed, +-a/b for 1 <= a, b <= 7, and the
    seed only permutes the basis, so every seed gives the same field values
    and asks for the same work.  (Letting the seed deal out the factors
    made the multiplication cache misses of the import vary by 5 %.)
    """
    n = obj["dim"]
    sigma = list(range(n))
    rng.shuffle(sigma)
    lam = [Fraction(1)] * n
    if rescale:
        lam = [(-1) ** i * RATIOS[i % len(RATIOS)] for i in range(n)]
    return change_basis(obj, sigma, lam)


def corrupt(obj: dict, kind: str, rng: random.Random) -> dict:
    """Add a nonzero rational to one seeded entry of a structure map."""
    n = obj["dim"]
    out = dict(obj)
    delta = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))

    def bump(text):
        terms = parse_coeff(text)
        terms[0] = terms.get(0, Fraction(0)) + delta
        return render_coeff(terms)

    if kind == "antipode":
        a, j = rng.randrange(n), rng.randrange(n)
        out["antipode"] = [list(row) for row in obj["antipode"]]
        out["antipode"][a][j] = bump(obj["antipode"][a][j])
    else:
        i = rng.randrange(n)
        out[kind] = list(obj[kind])
        out[kind][i] = bump(obj[kind][i])
    return out


def dumps(obj: dict) -> str:
    """The layout hopfkit writes: sorted keys, one-space indent."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"
