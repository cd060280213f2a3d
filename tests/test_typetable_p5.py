"""The type table at p = 5, the end-to-end check of every p = 5 member.

Each row's (G(H); G(H*)) and pointedness are written from the mathematics,
not from program output.  G(k[G]) = G, and the characters of k[G] form the
dual of G/[G,G]; both nonabelian groups of order 125 have abelianisation
Z/5 x Z/5 ("na125" is the program's token for a nonabelian group of order
125).  k[G] is pointed, and k^G for nonabelian G is not: its coradical is
all of k^G, of dimension 125, but it has only 25 group-likes.  The presented
members are pointed by construction, with the types of the dimension-p^3
table: T(q) (5;5); T(q) (x) k[Z/5] (5,5;5,5); T~, T^ (25;25); r(q) (25;5);
u_q(sl2) (5;1); the book algebras h(q,m) (5;5).  The duals u_q(sl2)* (1;5)
and r(q)* (5;25) are not pointed.
"""

import pytest

from hopfkit.papercheck import type_table_sweep

PAPER_TABLE_P5 = {
    "k[Z/125]": ("125", "125", True),
    "k[Z/25 x Z/5]": ("25,5", "25,5", True),
    "k[Z/5 x Z/5 x Z/5]": ("5,5,5", "5,5,5", True),
    "k[Heis(5)]": ("na125", "5,5", True),
    "k[Z/25 : Z/5]": ("na125", "5,5", True),
    "dual(k[Heis(5)])": ("5,5", "na125", False),
    "dual(k[Z/25 : Z/5])": ("5,5", "na125", False),
    "taft(p=5,e=1)": ("5", "5", True),
    "taft_tensor(p=5,e=1)": ("5,5", "5,5", True),
    "ttilde(p=5,e=1,root=0)": ("25", "25", True),
    "that(p=5,e=1)": ("25", "25", True),
    "r(p=5,e=1)": ("25", "5", True),
    "uq_sl2(p=5,e=1)": ("5", "1", True),
    **{f"book(p=5,e=1,m={m})": ("5", "5", True) for m in range(1, 5)},
    "dual(uq_sl2(p=5,e=1))": ("1", "5", False),
    "dual(r(p=5,e=1))": ("5", "25", False),
}


@pytest.mark.slow
def test_type_table_p5():
    rows, ok = type_table_sweep(5, 1)
    assert ok, [(r.label, r.note) for r in rows if not r.ok]
    got = {r.label: (r.fp.g_type, r.fp.g_dual_type, r.fp.pointed) for r in rows}
    assert got == PAPER_TABLE_P5
