import pytest

from hopfkit.errors import ScaleGateExceeded
from hopfkit.invariants import fingerprint
from hopfkit.papercheck import (dim27_case_elimination, spectra_lemma_check,
                                type_table_sweep)


def test_spectra_p3_n1():
    r = spectra_lemma_check(3, 1)
    assert r.total_multisets == 56
    assert len(r.trace_zero) == 2
    assert r.all_conform
    # the two multisets are {1, w, w^2} and its negative
    assert r.trace_zero == (
        ((-1, 0), (-1, 1), (-1, 2)),
        ((1, 0), (1, 1), (1, 2)),
    ) or r.trace_zero == (
        ((1, 0), (1, 1), (1, 2)),
        ((-1, 0), (-1, 1), (-1, 2)),
    )
    for ms, sign, m in r.witnesses:
        assert sign in (1, -1) and m == 0


def test_spectra_p3_n2():
    r = spectra_lemma_check(3, 2)
    assert r.total_multisets == 1140
    assert len(r.trace_zero) == 6
    assert r.all_conform
    # each witness is {eps w^m, eps w^{m+3}, eps w^{m+6}}, m in {0,1,2}
    seen = set()
    for ms, sign, m in r.witnesses:
        assert 0 <= m <= 2
        expected = tuple(sorted((sign, (m + 3 * j) % 9) for j in range(3)))
        assert ms == expected
        seen.add((sign, m))
    assert len(seen) == 6


def test_spectra_excluded_multiset():
    # {1,1,1} has trace 3 != 0: not among the trace-zero witnesses
    r = spectra_lemma_check(3, 1)
    assert ((1, 0), (1, 0), (1, 0)) not in r.trace_zero


def test_spectra_scale_gate():
    with pytest.raises(ScaleGateExceeded):
        spectra_lemma_check(3, 2, gate=10)


def test_dim27_cases():
    cases, ok = dim27_case_elimination()
    assert ok
    assert [c.h0_dim for c in cases] == [12, 15, 21, 24]
    assert [c.bound for c in cases] == [30, 27, 39, 36]
    assert all(c.bound >= 27 for c in cases)


def test_type_table_sweep(corpus3):
    rows, ok = type_table_sweep(3, 1)
    assert ok, [r for r in rows if not r.ok]
    assert len(rows) == 17
    by_label = {r.label: r for r in rows}
    assert by_label["taft_tensor(p=3,e=1)"].fp.type_pair() == "(3,3;3,3)"
    assert by_label["r(p=3,e=1)"].fp.type_pair() == "(9;3)"
    assert by_label["that(p=3,e=1)"].fp.type_pair() == "(9;9)"
    assert by_label["ttilde(p=3,e=1,root=0)"].fp.type_pair() == "(9;9)"
    assert by_label["uq_sl2(p=3,e=1)"].fp.type_pair() == "(3;1)"
    assert by_label["book(p=3,e=1,m=1)"].fp.type_pair() == "(3;3)"
    assert by_label["book(p=3,e=1,m=2)"].fp.type_pair() == "(3;3)"
    # the sweep's family walk gives the fingerprints of corpus(), in order
    assert list(by_label) == list(corpus3)
    assert [r.fp for r in rows] == [fingerprint(H) for H in corpus3.values()]


def test_spectra_p3_n3():
    r = spectra_lemma_check(3, 3)
    assert r.total_multisets == 27720
    assert len(r.trace_zero) == 18
    assert r.all_conform
    for ms, sign, m in r.witnesses:
        assert 0 <= m <= 8
        assert ms == tuple(sorted((sign, (m + 9 * j) % 27) for j in range(3)))
