"""A FinHopf is frozen after construction, its isomorphism fixtures are
computed on first read, and only the hopf module touches its memo cache.
The result records, check results included, share one frozen, slotted base
with field-wise ==, hash and repr."""

import copy
import fractions
import importlib
import pathlib
import re
from functools import lru_cache

import pytest

import hopfkit
from hopfkit import constructors, presentations
from hopfkit.cyclo import CycloNum, parse
from hopfkit.constructors import resolve_fixture_target, standard_constructors
from hopfkit.errors import NoEmbeddingFound
from hopfkit.hopf import (CheckResult, ClaimSet, HopfMorphism, dual, op_cop,
                          quotient_by_hopf_ideal, tensor, verify_morphism)
from hopfkit.hopffile import export_hopf, import_hopf
from hopfkit.invariants import integrals, modular_elements
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
    # the memoised per-algebra results are shared by every later reader
    for rec, name in ((integrals(taft3), "left_integral"),
                      (modular_elements(taft3), "g")):
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, {})
        assert getattr(rec, name) is before


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


# every record, by module, with its fields in order
RECORDS = {
    ("invariants", "IntegralData"): ("left_integral", "right_integral_dual"),
    ("invariants", "ModularData"): ("alpha", "g"),
    ("invariants", "SemisimplicityReport"): (
        "semisimple", "cosemisimple", "trace_s2"),
    ("presentations", "GroupGen"): ("name", "order"),
    ("presentations", "SkewGen"): ("name", "power_exp", "power_value", "u", "v"),
    ("invariants", "CoradicalReport"): (
        "filtration_dims", "H0_dim", "blocks", "one_dim_blocks",
        "candidate_multisets"),
    ("invariants", "CensusResult"): (
        "elements", "abelian", "invariant_factors", "orders"),
    ("invariants", "Fingerprint"): (
        "dim", "g_order", "g_dual_order", "g_type", "g_dual_type",
        "antipode_order", "trace_s2", "coradical_dims", "pointed",
        "dual_pointed", "unimodular"),
    ("invariants", "PairingReport"): (
        "table", "has_nontrivial_entry", "all_entries_one"),
    ("invariants", "SplittingReport"): (
        "section_ok", "coinvariant_dim", "dims_multiply"),
    ("papercheck", "SpectraCheckResult"): (
        "p", "n", "omega_conductor", "total_multisets", "trace_zero",
        "witnesses", "all_conform"),
    ("papercheck", "Dim27Case"): (
        "name", "grouplikes", "matrix_blocks", "h0_dim", "bound", "eliminated"),
    ("papercheck", "SweepRow"): ("label", "fp", "expected_type", "ok", "note"),
    ("quasitriangular", "RMatrixData"): (
        "host", "R", "rank", "K", "L", "u", "minimal"),
    ("quasitriangular", "RibbonCertificate"): (
        "ribbon_elements", "candidate_grouplikes", "failures"),
}


@pytest.mark.parametrize("module, name", sorted(RECORDS))
def test_record_contract(module, name):
    cls = getattr(importlib.import_module(f"hopfkit.{module}"), name)
    fields = RECORDS[module, name]
    values = tuple((i, f"v{i}") for i in range(len(fields)))
    rec = cls(*values)
    assert tuple(getattr(rec, f) for f in fields) == values
    # positional and keyword construction give equal records, equal hashes
    kw = cls(**dict(zip(fields, values)))
    mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert rec == kw == mixed and hash(rec) == hash(kw) == hash(mixed)
    for i in range(len(fields)):
        other = cls(*values[:i], None, *values[i + 1:])
        assert rec != other and not rec == other, fields[i]
    assert rec != values and copy.copy(rec) == rec
    assert repr(rec) == f"{name}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for bad in (values + (0,), values[:-1]):
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: 0})
    with pytest.raises(TypeError):
        cls(*values[:-1], nonfield=0)
    # frozen and slotted: no field can be set, deleted or added
    for f in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, f, 0)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert tuple(getattr(rec, f) for f in fields) == values
    assert not hasattr(rec, "__dict__")
    # rationals are read by fractions.Fraction, imported on first use
    assert hopfkit.Rational is fractions.Fraction
    half = CycloNum.from_rational(9, fractions.Fraction(1, 2))
    assert parse(9, "1/2") is half
    assert parse(9, "1/2*z^2") is half * CycloNum.zeta(9, 2)


def test_check_result_stores_its_verdict_once():
    assert CheckResult.__slots__ == ("name", "first_failure")
    passed = CheckResult("unit", None)
    failed = CheckResult.first("counit", iter([(3,), (5,)]))
    assert passed.ok and not failed.ok and failed.first_failure == (3,)
    assert CheckResult.first("unit", ()) == passed
    assert CheckResult.first("counit", [(3,)]) == failed != passed
    # the repr is what failure messages print
    assert repr(passed) == "unit: pass"
    assert repr(failed) == "counit: FAIL at (3,)"
    assert repr(CheckResult("QT.2", ("QT.2",))) == "QT.2: FAIL at ('QT.2',)"
    # only the first failing index is read from the sweep
    read = []

    def sweep():
        for i in range(10):
            read.append(i)
            if i % 4 == 3:
                yield (i,)
    assert CheckResult.first("antipode", sweep()).first_failure == (3,)
    assert read == [0, 1, 2, 3]
    for name in ("name", "first_failure", "ok", "extra"):
        with pytest.raises(AttributeError):
            setattr(failed, name, None)
    assert repr(failed) == "counit: FAIL at (3,)"


def test_reports_and_morphisms_are_frozen(taft3, uq_rmatrix):
    from hopfkit.hopf import identity_morphism, verify_hopf
    from hopfkit.quasitriangular import drinfeld_element
    r = verify_hopf(taft3)
    assert type(r.checks) is tuple and r.ok
    with pytest.raises(AttributeError):
        r.checks.clear()
    with pytest.raises(AttributeError):
        r.checks = ()
    assert r.ok and len(r.checks) == 8
    # the cached rank stays that of the columns it was computed from
    f = identity_morphism(taft3)
    assert f.rank == 9
    with pytest.raises(AttributeError):
        f.cols = [{}] * 9
    for name in ("source", "target", "rank"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    rep = verify_morphism(f)
    assert (rep.rank, rep.injective, rep.bijective) == (9, True, True)
    for name in ("checks", "rank", "injective", "surjective"):
        with pytest.raises(AttributeError):
            setattr(rep, name, False)
    dr = drinfeld_element(uq_rmatrix[1])
    for name in ("checks", "u", "u_inv"):
        with pytest.raises(AttributeError):
            setattr(dr, name, {})


def test_structure_tensors_and_subspaces_are_frozen():
    # the tensors and the memoised radical are shared by every reader of
    # the algebra: no field, row view included, can be set or deleted
    from hopfkit.hopf import verify_hopf
    from hopfkit.linalg import SparseTensor3, Subspace
    H = standard_constructors("taft", 3)
    rows, radical = H.mrows, H.radical
    assert type(H.mult) is SparseTensor3 and type(radical) is Subspace
    for obj in (H.mult, H.comult, radical):
        before = {name: getattr(obj, name) for name in obj.__slots__}
        for name in obj.__slots__ + ("extra",):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(obj, name, ())
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(obj, name)
        assert {name: getattr(obj, name) for name in obj.__slots__} == before
        assert not hasattr(obj, "__dict__")
    assert H.mult._ij is rows and H.mult.rows_ij() is rows
    assert H.radical is radical and radical.dim == 6
    assert verify_hopf(H).ok
