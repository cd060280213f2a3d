import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.constructors import drinfeld_double, standard_constructors
from hopfkit.cyclo import CycloNum
from hopfkit.errors import ParseError, VerificationFailed
from hopfkit.hopf import ClaimSet, FinHopf, embed_hopf, op_cop, quotient_by_hopf_ideal
from hopfkit.hopffile import dumps, export_hopf, import_hopf, loads
from hopfkit.invariants import fingerprint
from hopfkit.linalg import outer
from hopffile_oracle import json_dumps


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


def test_export_writes_as_open_does_and_cleans_up(tmp_path, taft3, monkeypatch):
    # the written file gets the mode open(path, "w") gives its files: 0666
    # less the umask
    probe = tmp_path / "probe"
    probe.write_text("")
    mode = probe.stat().st_mode
    probe.unlink()
    p = tmp_path / "taft.hopf"
    export_hopf(taft3, str(p))
    assert p.stat().st_mode == mode
    assert p.read_bytes() == dumps(taft3).encode("utf-8")
    assert os.listdir(tmp_path) == ["taft.hopf"]

    # a failed rename removes the temp file and leaves the target as it was
    def refuse(src, dst):
        assert os.path.dirname(src) == str(tmp_path)
        assert src.endswith(".hopf.tmp") and os.path.exists(src)
        raise OSError("rename refused")
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        export_hopf(standard_constructors("uq_sl2", 3, 1), str(p))
    assert os.listdir(tmp_path) == ["taft.hopf"]
    assert p.read_bytes() == dumps(taft3).encode("utf-8")


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


def test_import_builds_no_dual(double_taft, monkeypatch):
    # verify_hopf reads only H, so neither a verified import nor a failing
    # one builds H*
    from hopfkit import hopf
    dual = hopf.dual
    calls = []

    def counting(H):
        calls.append(H.label)
        return dual(H)
    monkeypatch.setattr(hopf, "dual", counting)
    text = dumps(double_taft)
    H, _ = loads(text)
    assert same_structure(H, double_taft)
    obj = json.loads(text)
    obj["comult"][5][3] = "2"
    with pytest.raises(VerificationFailed) as exc:
        loads(json.dumps(obj))
    assert "coassociativity at (1,)" in str(exc.value)
    assert calls == []


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


# -- the writer against the standard JSON encoder ------------------------------


def test_writer_matches_json_dumps(corpus3, book1, taft3, double_taft):
    from test_quasitriangular import _canonical_double_r
    subjects = [(H, None) for H in corpus3.values()]
    subjects += [(H.dual_cached(), None) for H in corpus3.values()]
    subjects += [(book1, None), (standard_constructors("that", 5, 1), None),
                 (double_taft, _canonical_double_r(taft3, double_taft))]
    assert book1.iso_fixtures
    for H, rmatrix in subjects:
        assert dumps(H, rmatrix) == json_dumps(H, rmatrix), H.label


@settings(max_examples=60, deadline=None, derandomize=True)
@given(label=st.text() | st.text('"\\/\x00\x01\x1f\x7f\u00e9\u2028\ud800\U0001f600'),
       keep=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       rmatrix=st.sampled_from([None, "empty", "unit"]))
def test_writer_matches_json_dumps_on_labels_and_claims(book1, label, keep, rmatrix):
    # any label text (quotes, backslashes, control characters, non-ASCII,
    # lone surrogates) and empty claim lists
    H = book1
    fixtures = H.iso_fixtures if keep[2] else ()
    K = FinHopf(H.dim, H.conductor, H.mult, H.unit, H.comult, H.counit,
                H.antipode,
                ClaimSet(H.claims.grouplikes if keep[0] else (),
                         H.claims.characters if keep[1] else ()),
                label, fixtures=lambda: fixtures)
    rmat = {"empty": {}, "unit": outer(H.unit, H.unit)}.get(rmatrix)
    assert dumps(K, rmat) == json_dumps(K, rmat)


# -- the streamed writer and the released parse --------------------------------


def _exported(H, path, rmatrix=None):
    export_hopf(H, str(path), rmatrix)
    return path.read_bytes().decode("utf-8")


def test_writer_edges_match_json_dumps(tmp_path, taft3, book1, uq_rmatrix,
                                       monkeypatch):
    # tables of exactly one block and of one block plus one row, the
    # one-dimensional algebra, empty claim lists, fixtures and an R-matrix;
    # the exported file holds exactly the bytes of `dumps`
    from hopfkit import hopffile
    from hopfkit.hopf import trivial_hopf
    Hu, rm = uq_rmatrix
    bare = FinHopf(taft3.dim, taft3.conductor, taft3.mult, taft3.unit,
                   taft3.comult, taft3.counit, taft3.antipode, ClaimSet(), "")
    assert book1.iso_fixtures and rm.r_dict()
    subjects = [(taft3, None), (trivial_hopf(3), None), (bare, None),
                (book1, None), (Hu, rm.r_dict())]
    for H, rmatrix in subjects:
        want = json_dumps(H, rmatrix)
        assert dumps(H, rmatrix) == want, H.label
        assert _exported(H, tmp_path / "h.hopf", rmatrix) == want, H.label
    for H, rmatrix in ((taft3, None), (Hu, rm.r_dict())):
        want = json_dumps(H, rmatrix)
        for rows in (len(H.mult), len(H.comult), len(rmatrix or ())):
            for block in (rows, rows - 1):
                monkeypatch.setattr(hopffile, "_BLOCK", max(block, 1))
                assert dumps(H, rmatrix) == want
                assert _exported(H, tmp_path / "h.hopf", rmatrix) == want


@pytest.mark.parametrize("name", ["that(p=5)", "taft(p=3) x that(p=3)"])
def test_export_peak_memory_is_below_half_the_file(tmp_path, taft3, name):
    # a whole-file object and text held about 4.9 times the file's size
    import tracemalloc

    from hopfkit.hopf import tensor
    H = (standard_constructors("that", 5, 1) if name == "that(p=5)" else
         tensor(taft3, standard_constructors("that", 3, 1)))
    path = tmp_path / "h.hopf"
    export_hopf(H, str(path))  # builds what H memoises on first read
    tracemalloc.start()
    try:
        export_hopf(H, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == dumps(H).encode("utf-8")
    assert peak < path.stat().st_size / 2


def test_failed_write_mid_stream_removes_the_temp_file(tmp_path, capsys,
                                                      monkeypatch):
    import errno

    from hopfkit.cli import main
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "t.hopf"
    target.write_bytes(b"the old file")
    fdopen = os.fdopen

    def failing(fd, *args, **kwargs):
        fh = fdopen(fd, *args, **kwargs)
        write, pieces = fh.write, []

        def write_one_block(s):
            # the first pieces up to the antipode's first row, then a full disk
            if len(pieces) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            pieces.append(s)
            return write(s)
        fh.write = write_one_block
        return fh
    monkeypatch.setattr(os, "fdopen", failing)
    assert main(["construct", "taft", "--out", "t.hopf"]) == 2
    assert capsys.readouterr().err == (
        "error: [Errno 28] No space left on device: 't.hopf'\n")
    assert os.listdir(tmp_path) == ["t.hopf"]
    assert target.read_bytes() == b"the old file"


class _Tracked(list):
    """A parsed list that can be weakly referenced."""


def _tracking_parse(monkeypatch):
    """Make each parse of a .hopf file return lists that are weakly
    referenced, one list of references per parse.  The dense rows stay
    plain lists, since the reader refuses any other type there."""
    import weakref

    from hopfkit import hopffile
    parse, refs = hopffile._json, []

    def tracked(text):
        obj, mine = parse(text), []
        refs.append(mine)

        def track(v):
            t = _Tracked(v)
            mine.append(weakref.ref(t))
            return t
        for key in ("mult", "comult", "rmatrix"):
            if key in obj:
                obj[key] = track(map(track, obj[key]))
        obj["antipode"] = track(obj["antipode"])
        claims = obj["claims"]
        for key in ("grouplikes", "characters"):
            claims[key] = track(claims[key])
        claims["iso_fixtures"] = track(map(track, claims["iso_fixtures"]))
        return obj
    monkeypatch.setattr(hopffile, "_json", tracked)
    return refs


def _alive(refs):
    return sum(r() is not None for r in refs)


def test_import_frees_the_parsed_file_before_verifying(tmp_path, book1,
                                                       uq_rmatrix, monkeypatch):
    from hopfkit import hopffile
    Hu, rm = uq_rmatrix
    refs = _tracking_parse(monkeypatch)
    alive = []
    verify = hopffile.verify_hopf

    def checking(H):
        alive.append(_alive(refs[-1]))
        return verify(H)
    monkeypatch.setattr(hopffile, "verify_hopf", checking)
    for H, rmatrix in ((book1, None), (Hu, rm.r_dict())):
        path = tmp_path / "h.hopf"
        export_hopf(H, str(path), rmatrix)
        K, rmat = import_hopf(str(path))
        assert same_structure(K, H) and rmat == rmatrix
        assert len(refs[-1]) > 100
        K, rmat = loads(path.read_text(encoding="utf-8"))
        assert same_structure(K, H) and rmat == rmatrix
    assert alive == [0, 0, 0, 0]


def test_tensor_frees_each_parsed_file_before_verifying_it(tmp_path, taft3,
                                                           capsys, monkeypatch):
    # the second file is parsed before the first is verified (the dimension
    # gate reads both), and freed before it is verified itself
    from hopfkit import cli, hopffile
    f = tmp_path / "t.hopf"
    export_hopf(taft3, str(f))
    refs = _tracking_parse(monkeypatch)
    alive = []
    verify, tensor = hopffile.verify_hopf, cli.tensor

    def checking(H):
        alive.append(tuple(map(_alive, refs)))
        return verify(H)

    def product(H, K):
        alive.append(tuple(map(_alive, refs)))
        return tensor(H, K)
    monkeypatch.setattr(hopffile, "verify_hopf", checking)
    monkeypatch.setattr(cli, "tensor", product)
    assert cli.main(["tensor", str(f), str(f)]) == 0
    assert "dim=81" in capsys.readouterr().out
    assert alive == [(0, len(refs[1])), (0, 0), (0, 0)] and refs[1]
