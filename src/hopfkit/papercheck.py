"""Desk-scale reproduction suites: the eigenvalue-spectra enumeration
behind the antipode-order lemma, the dimension-27 coradical case
elimination, and the full type-table sweep over the constructor corpus.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from .cyclo import CycloNum, Record
from .errors import ScaleGateExceeded
from .invariants import fingerprint

# -- spectra enumeration ------------------------------------------------------------


class SpectraCheckResult(Record):
    __slots__ = (
        "p", "n", "omega_conductor", "total_multisets",
        "trace_zero",   # canonical multisets ((sign, exp), ...)
        "witnesses",    # (multiset, sign, m) per trace-zero multiset
        "all_conform",
    )


def spectra_lemma_check(p: int, n: int, gate: int = 200_000) -> SpectraCheckResult:
    """Enumerate all size-p eigenvalue multisets over {+-omega^i} with
    omega a primitive p^n-th root; every trace-zero multiset must be
    {eps omega^(m + j p^(n-1)) : j = 0..p-1} for a single sign eps and a
    canonical m in [0, p^(n-1)), so that T^p = eps omega^(mp) id.
    """
    pn = p ** n
    values = 2 * pn
    total = comb(values + p - 1, p)
    if total > gate:
        raise ScaleGateExceeded(
            f"{total} multisets exceed the enumeration gate {gate}")
    M = pn if pn % 2 == 1 else 2 * pn
    omega = CycloNum.zeta(M, M // pn)
    one = CycloNum.one(M)
    vals = []
    for sign in (1, -1):
        for i in range(pn):
            v = omega ** i
            vals.append(((sign, i), v if sign == 1 else -v))

    step = p ** (n - 1)
    zero = CycloNum.zero(M)
    trace_zero = []
    witnesses = []
    all_conform = True
    for combo in combinations_with_replacement(range(values), p):
        acc = zero
        for idx in combo:
            acc = acc + vals[idx][1]
        if not acc.is_zero():
            continue
        multiset = tuple(sorted(vals[idx][0] for idx in combo))
        trace_zero.append(multiset)
        conform = None
        for sign in (1, -1):
            for m in range(step):
                expected = tuple(sorted(
                    (sign, (m + j * step) % pn) for j in range(p)))
                if expected == multiset:
                    conform = (sign, m)
                    break
            if conform:
                break
        if conform is None:
            all_conform = False
            witnesses.append((multiset, 0, -1))
        else:
            witnesses.append((multiset, conform[0], conform[1]))
    return SpectraCheckResult(p, n, pn, total, tuple(trace_zero),
                              tuple(witnesses), all_conform)


# -- dimension-27 case elimination ----------------------------------------------------


class Dim27Case(Record):
    __slots__ = ("name", "grouplikes", "matrix_blocks", "h0_dim", "bound",
                 "eliminated")


def dim27_case_elimination() -> tuple[tuple[Dim27Case, ...], bool]:
    """The four coradical shapes of a hypothetical strange dim-27 Hopf
    algebra; the first-filtration bound (1 + 2 n_1) * 3 + sum n_i^2 must
    reach 27 in every case, contradicting 27 = dim H > dim H_1.
    """
    cases = [
        ("H0 = k[G] + M(3)", (3,)),
        ("H0 = k[G] + 3 M(2)", (2, 2, 2)),
        ("H0 = k[G] + 2 M(3)", (3, 3)),
        ("H0 = k[G] + 3 M(2) + M(3)", (2, 2, 2, 3)),
    ]
    out = []
    ok = True
    for name, blocks in cases:
        h0 = 3 + sum(b * b for b in blocks)
        n1 = blocks[0]
        bound = (1 + 2 * n1) * 3 + sum(b * b for b in blocks)
        eliminated = bound >= 27
        ok = ok and eliminated
        out.append(Dim27Case(name, 3, blocks, h0, bound, eliminated))
    return tuple(out), ok


# -- type table sweep ------------------------------------------------------------------


class SweepRow(Record):
    __slots__ = (
        "label",
        "fp",             # Fingerprint
        "expected_type",  # str | None
        "ok",
        "note",
    )


def _forbidden_types(p: int):
    p2 = p * p
    # (1;1), (p,p;1), (p,p;p), (p,p;p^2), (p^2;1) as invariant-factor pairs
    return [
        ("1", "1"),
        (f"{p},{p}", "1"),
        (f"{p},{p}", f"{p}"),
        (f"{p},{p}", f"{p2}"),
        (f"{p2}", "1"),
    ]


def type_table_sweep(p: int = 3, e: int = 1):
    """Fingerprint the whole corpus and check every slot of the
    classification table (expected types, absence of the forbidden types,
    pointedness flags).  The corpus is walked one family at a time by
    `sweep_corpus`, and only each member's row outlives its family."""
    from .constructors import sweep_corpus
    p2 = p * p
    expected = {
        f"taft(p={p},e={e})": (f"{p}", f"{p}", True, None),
        f"taft_tensor(p={p},e={e})": (f"{p},{p}", f"{p},{p}", True, None),
        f"ttilde(p={p},e={e},root=0)": (f"{p2}", f"{p2}", True, None),
        f"that(p={p},e={e})": (f"{p2}", f"{p2}", True, None),
        f"r(p={p},e={e})": (f"{p2}", f"{p}", True, None),
        f"uq_sl2(p={p},e={e})": (f"{p}", "1", True, None),
        f"dual(uq_sl2(p={p},e={e}))": ("1", f"{p}", False, True),
        f"dual(r(p={p},e={e}))": (f"{p}", f"{p2}", False, True),
    }
    for m in range(1, p):
        expected[f"book(p={p},e={e},m={m})"] = (f"{p}", f"{p}", True, None)

    forbidden = _forbidden_types(p)

    def row(H) -> SweepRow:
        fp = fingerprint(H)
        note_parts = []
        ok = True
        pair = (fp.g_type, fp.g_dual_type)
        if pair in forbidden or (pair[1], pair[0]) in forbidden:
            ok = False
            note_parts.append("forbidden type")
        exp = expected.get(H.label)
        exp_type = None
        if exp is not None:
            gt, gdt, pointed, dual_pointed = exp
            exp_type = f"({gt};{gdt})"
            if fp.g_type != gt or fp.g_dual_type != gdt:
                ok = False
                note_parts.append(f"type != {exp_type}")
            if fp.pointed != pointed:
                ok = False
                note_parts.append("pointedness mismatch")
            if dual_pointed is not None and fp.dual_pointed != dual_pointed:
                ok = False
                note_parts.append("dual-pointedness mismatch")
        return SweepRow(H.label, fp, exp_type, ok, "; ".join(note_parts))

    rows = sweep_corpus(row, p, e)
    return rows, all(r.ok for r in rows)
