import hashlib
import json

import pytest

from hopfkit.constructors import drinfeld_double, standard_constructors
from hopfkit.cyclo import CycloNum
from hopfkit.errors import ParseError, VerificationFailed
from hopfkit.hopf import embed_hopf, op_cop, quotient_by_hopf_ideal
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


# sha256 of `dumps` per constructor, recorded when the antipode, the morphisms
# and the fixtures were first held as sparse columns: the .hopf bytes (dense
# rows) must not change with the in-memory representation.
EXPORT_SHA256 = {
    'k[Z/27]':
        "f1783e0279b2048757a2419406ed729375a822dba491018444e74706158a4b51",
    'k[Z/9 x Z/3]':
        "cb51c9759884492bc06399ba1eebeea98ad3848d558d5a70dc7cd77d06611c61",
    'k[Z/3 x Z/3 x Z/3]':
        "77a2f3f688e3e05a5548030034313281e88db5ce61995baa78b9aafb83a55626",
    'k[Heis(3)]':
        "822b9d6057354b36bda4aa28f018db1dc3a6f35c6654c042d779e81cb38850ca",
    'k[Z/9 : Z/3]':
        "9608e8b3d25ae05e8989c371068434dd02fb9ffdb1a1286f2b01baae6518178e",
    'dual(k[Heis(3)])':
        "0f0410af4a22194fa43409076ba8b707db23ecc92e8d3bb82dbf3daf63cd49a4",
    'dual(k[Z/9 : Z/3])':
        "26f0bd315554fa68c5337e490d873d64f2a4998d6c351d1f75b9736b869377ce",
    'taft(p=3,e=1)':
        "edf2c630b2e62375a452b1c4398298baed01107b3be2f6160d764d97349a97c4",
    'taft_tensor(p=3,e=1)':
        "904c735396679074d7ab1360c1bf4ceb8b3aec346cdf1b551033061c1dde5096",
    'ttilde(p=3,e=1,root=0)':
        "39178a190c6d7c42f02d476ceda88e3cc27f8a4244227ad39368a99266a725dd",
    'that(p=3,e=1)':
        "1db42183b80865520d10e0243938b077fad25f17ed3a889aa1bd6516c303e5bd",
    'r(p=3,e=1)':
        "24b05bd9d6a75f81e1ac86055fb411c9ba434a9300b84a519ae228b59d240285",
    'uq_sl2(p=3,e=1)':
        "2b50f2f2eb5c4aecc8bb458641f3f1bae72fed50e4409eeb09bdf2db530df58c",
    'book(p=3,e=1,m=1)':
        "63d1e4c7225ee09af236aa57fc9a957c270f69f10aa24053279f07d4ea6428a3",
    'book(p=3,e=1,m=2)':
        "3311da3c88c384e02272ffd2eb7e89d8e73f9b46b7c09b33342b79ad8b20f989",
    'dual(uq_sl2(p=3,e=1))':
        "85b9134af458a40d255018b2be11eca9b418f90829dd065eda50c8e9b1bbe193",
    'dual(r(p=3,e=1))':
        "4c573ef711effab3c407da5a8a2c7cee80651d731314388d4f895f9148e64afd",
    'dual(book)':
        "2e6aaead07fec691cf80910e224285430939d5ba6f308e6b2b5c66ff7cab3a21",
    'op(book)':
        "79a54c34f3fb7cd26629bfc9ae4aa80239958da22c4b6f6536b8d6305fc531f1",
    'cop(book)':
        "88a39f74769f13065903faec2cd4596591aae032d3797d86dd56b3878e544874",
    'D(taft)':
        "7b8d251b0f350bbb411ccc5231a75cd6d2880c78e9194ec80f8e672a36033c99",
    'quotient':
        "42d73c3b2d89245ac62d51383342efb338c55a5105a71b2ef536bcbe98c15ecb",
    'embed(book,18)':
        "89316b86c892a9fa085f6d1e32bb7cbb1add3630b5e78a8fd210cbd1e2d2b241",
    'D(dual(taft))':
        "15f2aa7b6aa577683241622900a103d810b3b099c0ae5d11538f209d16c3a347",
    'D(k[Z/9])':
        "3a2ca9ba257fd3b2cd1546307f86cfa699deacc4f323032e58b198514c18e151",
    'that(p=5,e=1)':
        "98b9a5428950a9f330175335740c864f889e4b31d06c610a7692ff5f2f7b8c44",
}


def _export_subject(name, corpus3, book1, double_taft):
    if name in corpus3:
        return corpus3[name]
    if name == "dual(book)":
        return book1.dual_cached()
    if name in ("op(book)", "cop(book)"):
        return op_cop(book1, name[:-len("(book)")])
    if name == "D(taft)":
        return double_taft
    if name == "D(dual(taft))":
        return drinfeld_double(corpus3["taft(p=3,e=1)"].dual_cached())
    if name == "D(k[Z/9])":
        return drinfeld_double(
            standard_constructors("group_algebra", 3, group="z9"))
    if name == "that(p=5,e=1)":
        return standard_constructors("that", 5, 1)
    if name == "embed(book,18)":
        return embed_hopf(book1, 18)
    # k[Z/9 x Z/3] modulo g^3 - 1 for the generator g of Z/9
    G = standard_constructors("group_algebra", 3, group="z9xz3")
    one = CycloNum.one(G.conductor)
    Q, _ = quotient_by_hopf_ideal(G, [{9: one, 0: -one}])
    return Q


@pytest.mark.parametrize("name", list(EXPORT_SHA256))
def test_export_bytes_are_pinned(name, corpus3, book1, double_taft):
    H = _export_subject(name, corpus3, book1, double_taft)
    digest = hashlib.sha256(dumps(H).encode("utf-8")).hexdigest()
    assert digest == EXPORT_SHA256[name]


def test_large_dim_is_a_parse_error(taft3, monkeypatch):
    # The gate must fire before any coefficient is parsed: the dense antipode
    # of the file alone is dim^2 values.  The antipode has as many rows as
    # the dim claims, so only the gate stops the parse.
    from hopfkit import hopffile

    def no_parse(M, s):
        raise AssertionError("parsed a coefficient")
    monkeypatch.setattr(hopffile, "cparse", no_parse)
    obj = json.loads(dumps(taft3))
    obj["dim"] = 4097
    obj["antipode"] = [[]] * 4097
    with pytest.raises(ParseError) as exc:
        hopffile.from_obj(obj)
    assert str(exc.value) == "dim 4097 exceeds 4096"


def _coefficient_strings(obj):
    """Every coefficient string of a .hopf object, with repeats."""
    def flat(rows):
        return [s for row in rows for s in row]
    claims = obj["claims"]
    return [*(t[3] for t in obj["mult"]), *(t[3] for t in obj["comult"]),
            *obj["unit"], *obj["counit"], *flat(obj["antipode"]),
            *flat(claims["grouplikes"]), *flat(claims["characters"]),
            *(s for _, rows in claims["iso_fixtures"] for s in flat(rows)),
            *(t[2] for t in obj.get("rmatrix", ()))]


def test_import_parses_each_distinct_coefficient_once(double_taft, monkeypatch):
    from hopfkit import hopffile
    text = dumps(double_taft)
    strings = _coefficient_strings(json.loads(text))
    parse = hopffile.cparse
    calls = []

    def counting(M, s):
        calls.append(s)
        return parse(M, s)
    monkeypatch.setattr(hopffile, "cparse", counting)
    H, _ = loads(text)
    assert same_structure(H, double_taft)
    assert len(strings) > 10 * len(set(strings))
    assert sorted(calls) == sorted(set(strings))


def test_export_renders_each_distinct_coefficient_once(double_taft, monkeypatch):
    from hopfkit import hopffile
    text = dumps(double_taft)
    render = hopffile.render
    calls = []

    def counting(c):
        calls.append(c)
        return render(c)
    monkeypatch.setattr(hopffile, "render", counting)
    assert dumps(double_taft) == text
    assert len(calls) == len(set(calls))
    assert sorted(map(render, calls)) == sorted(
        set(_coefficient_strings(json.loads(text))))


def test_list_coefficient_is_a_parse_error(taft3):
    # the type check comes before the lookup of the string's parsed value,
    # so an unhashable coefficient is named as such
    obj = json.loads(dumps(taft3))
    i, j, k, s = obj["mult"][0]
    edits = (lambda o: o["mult"].__setitem__(0, [i, j, k, [s]]),
             lambda o: o["unit"].__setitem__(0, [o["unit"][0]]))
    for edit in edits:
        bad = json.loads(dumps(taft3))
        edit(bad)
        with pytest.raises(ParseError) as exc:
            loads(json.dumps(bad))
        assert str(exc.value) == "coefficient of type list, expected a string"
