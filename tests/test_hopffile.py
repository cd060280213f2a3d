import json

import pytest

from hopfkit.constructors import standard_constructors
from hopfkit.errors import ParseError, VerificationFailed
from hopfkit.hopffile import dumps, export_hopf, import_hopf, loads
from hopfkit.invariants import fingerprint


def same_structure(A, B):
    return (A.mult == B.mult and A.comult == B.comult and A.unit == B.unit
            and A.counit == B.counit and A.antipode == B.antipode
            and A.claims.grouplikes == B.claims.grouplikes
            and A.claims.characters == B.claims.characters
            and A.iso_fixtures == B.iso_fixtures
            and A.label == B.label and A.conductor == B.conductor)


def test_roundtrip_bit_exact(tmp_path, taft3):
    p = tmp_path / "taft.hopf"
    export_hopf(taft3, str(p))
    H, rmat = import_hopf(str(p))
    assert rmat is None
    assert same_structure(H, taft3)
    # a second export is byte-identical
    p2 = tmp_path / "taft2.hopf"
    export_hopf(H, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_roundtrip_with_rmatrix(tmp_path, uq_rmatrix):
    Hu, rm = uq_rmatrix
    p = tmp_path / "uq.hopf"
    export_hopf(Hu, str(p), rm.r_dict())
    H, rmat = import_hopf(str(p))
    assert rmat == rm.r_dict()
    assert same_structure(H, Hu)


def test_roundtrip_book_with_fixtures(tmp_path, book1):
    p = tmp_path / "book.hopf"
    export_hopf(book1, str(p))
    H, _ = import_hopf(str(p))
    assert same_structure(H, book1)


def test_corrupted_mult_detected(tmp_path, taft3):
    obj = json.loads(dumps(taft3))
    i, j, k, s = obj["mult"][0]
    obj["mult"][0] = [i, j, k, "2" if s != "2" else "3"]
    with pytest.raises(VerificationFailed) as exc:
        loads(json.dumps(obj))
    # names the first failing axiom
    assert "associativity" in str(exc.value) or "unit" in str(exc.value)


def test_parse_errors():
    with pytest.raises(ParseError):
        loads("not json at all {{{")
    with pytest.raises(ParseError):
        loads(json.dumps({"format_version": "bogus"}))
    with pytest.raises(ParseError):
        loads(json.dumps({"format_version": "hopf-v1", "dim": 1}))


def test_conductor_embedding(tmp_path):
    # a conductor-3 file imported at conductor 9 embeds losslessly
    H3 = standard_constructors("group_algebra", 3, group="z3", conductor=3)
    p = tmp_path / "g.hopf"
    export_hopf(H3, str(p))
    H, _ = import_hopf(str(p), conductor=9)
    assert H.conductor == 9
    assert fingerprint(H).type_pair() == fingerprint(H3).type_pair() == "(3;3)"


def test_large_conductor_is_a_parse_error(taft3, monkeypatch):
    # The gate must fire before any per-conductor table is built: the stub
    # fails the test if a context for the file's conductor is ever made.
    from hopfkit import cyclo

    def no_context(M):
        raise AssertionError(f"built a context for conductor {M}")
    monkeypatch.setattr(cyclo, "_Context", no_context)
    obj = json.loads(dumps(taft3))
    obj["conductor"] = 20011
    with pytest.raises(ParseError) as exc:
        loads(json.dumps(obj))
    assert "20011" in str(exc.value)
