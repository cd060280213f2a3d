"""The type-table sweep walks the corpus one family at a time.

Each family is built, fingerprinted and dropped from the constructor cache
before the next one is built, and `cli.run()` turns the cyclic collector
off, so a dropped member must be freed by reference counting alone: no
member may sit in a reference cycle.
"""

import gc
import weakref

import pytest

from hopfkit import constructors, papercheck
from hopfkit.constructors import standard_constructors
from hopfkit.invariants import fingerprint
from hopfkit.papercheck import type_table_sweep


@pytest.fixture
def no_collector(monkeypatch):
    """A fresh constructor cache, with the cyclic collector off."""
    monkeypatch.setattr(constructors, "_CACHE", {})
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_sweep_frees_every_member(monkeypatch, no_collector):
    seen = []

    def recording(H):
        seen.append(weakref.ref(H))
        return fingerprint(H)
    monkeypatch.setattr(papercheck, "fingerprint", recording)
    rows, ok = type_table_sweep(3, 1)
    assert ok and len(seen) == len(rows) == 17
    assert constructors._CACHE == {}
    assert [r for r in seen if r() is not None] == []


def test_released_book_and_ttilde_are_freed(no_collector):
    refs = []
    for args, n in ((("book", 3, 1, 1), 2), (("ttilde", 3, 1), 1)):
        H = standard_constructors(*args)
        refs.append(weakref.ref(H))
        # computed fixtures are kept on the member and hold no reference to it
        assert len(H.iso_fixtures) == n
    del H
    constructors._CACHE.clear()
    assert [r for r in refs if r() is not None] == []


def test_sweep_keeps_members_cached_before_it(monkeypatch):
    # the walk drops only the entries it added
    monkeypatch.setattr(constructors, "_CACHE", {})
    taft = standard_constructors("taft", 3, 1)
    type_table_sweep(3, 1)
    assert list(constructors._CACHE.values()) == [taft]
    assert standard_constructors("taft", 3, 1) is taft

