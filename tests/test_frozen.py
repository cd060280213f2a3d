"""A FinHopf is frozen after construction, its isomorphism fixtures are
computed on first read, and only the hopf module touches its memo cache."""

import pathlib
import re
from functools import lru_cache

import pytest

import hopfkit
from hopfkit import constructors, presentations
from hopfkit.constructors import resolve_fixture_target, standard_constructors
from hopfkit.errors import NoEmbeddingFound
from hopfkit.hopf import (ClaimSet, HopfMorphism, dual, op_cop,
                          quotient_by_hopf_ideal, tensor, verify_morphism)
from hopfkit.hopffile import export_hopf, import_hopf
from hopfkit.linalg import dense_to_sparse, sparse_to_dense
from hopfkit.presentations import find_embedding


def test_assignment_raises(tmp_path, taft3, double_taft):
    path = str(tmp_path / "taft.hopf")
    export_hopf(taft3, path)
    loaded, _ = import_hopf(path)
    unit = sparse_to_dense(double_taft.unit, 81, taft3.conductor)
    gens = [dense_to_sparse([a - b for a, b in zip(
                sparse_to_dense(v, 81, taft3.conductor), unit)])
            for v in double_taft.claims.central_grouplikes]
    quotient, _ = quotient_by_hopf_ideal(double_taft, gens)
    algebras = [taft3, dual(taft3), op_cop(taft3, "op"), tensor(taft3, taft3),
                double_taft, quotient, loaded]
    for H in algebras:
        for name in ("dim", "label", "claims", "antipode", "mult"):
            before = getattr(H, name)
            with pytest.raises(AttributeError):
                setattr(H, name, before)
            with pytest.raises(AttributeError):
                delattr(H, name)
            assert getattr(H, name) is before, (H.label, name)
    with pytest.raises(AttributeError):
        taft3.claims.grouplikes = ()
    with pytest.raises(AttributeError):
        ClaimSet().characters = ()


def test_fixtures_are_built_on_first_read(monkeypatch):
    # a fresh constructor cache, so that every member is built here
    monkeypatch.setattr(constructors, "_build",
                        lru_cache(maxsize=None)(constructors._build.__wrapped__))
    built = []
    orig = presentations.build_from_presentation

    def counting(spec, *args):
        built.append(spec.label)
        return orig(spec, *args)
    monkeypatch.setattr(constructors, "build_from_presentation", counting)

    book = standard_constructors("book", 3, 1, 1)
    ttilde = standard_constructors("ttilde", 3, 1)
    assert built == ["book(p=3,e=1,m=1)", "ttilde(p=3,e=1,root=0)"]
    fixtures = book.iso_fixtures + ttilde.iso_fixtures
    assert built[2:] == ["book(p=3,e=2,m=1)", "book(p=3,e=1,m=2)",
                         "ttilde(p=3,e=1,root=1)"]
    assert book.iso_fixtures is book.iso_fixtures
    for (key, mat), source in zip(fixtures, (book, book, ttilde)):
        target = resolve_fixture_target(key)
        rep = verify_morphism(HopfMorphism(source, target, mat))
        assert rep.ok and rep.bijective, key
    # the fixture targets are the corpus members themselves
    assert resolve_fixture_target(("book", 3, 2, 1)) is \
        standard_constructors("book", 3, 2, 1)
    assert len(built) == 5


def test_only_the_hopf_module_names_the_memo_cache():
    src = pathlib.Path(hopfkit.__file__).parent
    tests = pathlib.Path(__file__).parent
    files = [p for p in src.glob("*.py") if p.name != "hopf.py"]
    files += [p for p in tests.glob("*.py") if p.name != pathlib.Path(__file__).name]
    assert len(files) > 20
    offenders = [p.name for p in files
                 if re.search(r"\b_cache\b", p.read_text(encoding="utf-8"))]
    assert offenders == []


def test_presentation_is_set_at_construction(taft3):
    assert taft3.presentation.label == taft3.label
    assert taft3.monomials == taft3.presentation.monomials()
    D = dual(taft3)
    assert D.presentation is None and D.monomials is None
    with pytest.raises(NoEmbeddingFound, match="not built from a presentation"):
        find_embedding(D, taft3)
