"""The type table at p = 5 and p = 7, the end-to-end check of every member.

Each row's (G(H); G(H*)) and pointedness are written from the mathematics,
not from program output, as a function of the odd prime p.  G(k[G]) = G,
and the characters of k[G] form the dual of G/[G,G]; both nonabelian
groups of order p^3 have abelianisation Z/p x Z/p ("na{p^3}" is the
program's token for a nonabelian group of order p^3).  k[G] is pointed,
and k^G for nonabelian G is not: its coradical is all of k^G, of dimension
p^3, but it has only p^2 group-likes.  The presented members are pointed
by construction, with the types of the dimension-p^3 table: T(q) (p;p);
T(q) (x) k[Z/p] (p,p;p,p); T~, T^ (p^2;p^2); r(q) (p^2;p); u_q(sl2)
(p;1); the book algebras h(q,m), m = 1..p-1, (p;p).  The duals u_q(sl2)*
(1;p) and r(q)* (p;p^2) are not pointed.  The p = 7 case takes about
150 s on a 2-vCPU machine.
"""

import pytest

from hopfkit.constructors import standard_constructors
from hopfkit.invariants import fingerprint
from hopfkit.papercheck import type_table_sweep


def paper_table(p):
    """{label: (G(H) type, G(H*) type, pointed)} in corpus order."""
    p2, p3 = p * p, p ** 3
    return {
        f"k[Z/{p3}]": (f"{p3}", f"{p3}", True),
        f"k[Z/{p2} x Z/{p}]": (f"{p2},{p}", f"{p2},{p}", True),
        f"k[Z/{p} x Z/{p} x Z/{p}]": (f"{p},{p},{p}", f"{p},{p},{p}", True),
        f"k[Heis({p})]": (f"na{p3}", f"{p},{p}", True),
        f"k[Z/{p2} : Z/{p}]": (f"na{p3}", f"{p},{p}", True),
        f"dual(k[Heis({p})])": (f"{p},{p}", f"na{p3}", False),
        f"dual(k[Z/{p2} : Z/{p}])": (f"{p},{p}", f"na{p3}", False),
        f"taft(p={p},e=1)": (f"{p}", f"{p}", True),
        f"taft_tensor(p={p},e=1)": (f"{p},{p}", f"{p},{p}", True),
        f"ttilde(p={p},e=1,root=0)": (f"{p2}", f"{p2}", True),
        f"that(p={p},e=1)": (f"{p2}", f"{p2}", True),
        f"r(p={p},e=1)": (f"{p2}", f"{p}", True),
        f"uq_sl2(p={p},e=1)": (f"{p}", "1", True),
        **{f"book(p={p},e=1,m={m})": (f"{p}", f"{p}", True)
           for m in range(1, p)},
        f"dual(uq_sl2(p={p},e=1))": ("1", f"{p}", False),
        f"dual(r(p={p},e=1))": (f"{p}", f"{p2}", False),
    }


@pytest.mark.slow
@pytest.mark.parametrize("p", [5, 7])
def test_type_table(p):
    rows, ok = type_table_sweep(p, 1)
    assert ok, [(r.label, r.note) for r in rows if not r.ok]
    got = {r.label: (r.fp.g_type, r.fp.g_dual_type, r.fp.pointed) for r in rows}
    table = paper_table(p)
    assert got == table
    # the rows come in corpus order, and a member the walk built beside
    # another one of its family (a dual with its base, taft_tensor with
    # taft) gets the fingerprint of the same member built on its own
    assert list(got) == list(table)
    by_label = {r.label: r.fp for r in rows}
    for args in (("taft_tensor", p, 1), ("dual_r", p, 1),
                 ("dual_group_algebra", p, 1, 1, 0, "heis")):
        H = standard_constructors(*args)
        assert by_label[H.label] == fingerprint(H)
