import json

import pytest

from hopfkit.cli import main, make_parser


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_construct_and_report(tmp_path, capsys):
    f = str(tmp_path / "taft.hopf")
    code, out = run(["construct", "taft", "--p", "3", "--q", "1", "--out", f], capsys)
    assert code == 0
    assert "dim=9" in out and "ordS=6" in out
    code, out = run(["report", f, "--coradical"], capsys)
    assert code == 0
    assert "corad=[3,6,9]" in out
    code, out = run(["report", f, "--integrals"], capsys)
    assert code == 0
    assert "epsLambda=0" in out and "radford_s4=pass" in out
    code, out = run(["report", f, "--census"], capsys)
    assert code == 0
    assert "G=3 type=(3) certified=yes" in out
    code, out = run(["construct", "uq_sl2", "--p", "3", "--q", "1"], capsys)
    assert code == 0 and "type=(3;1)" in out
    fr = str(tmp_path / "r.hopf")
    code, out = run(["construct", "r", "--out", fr], capsys)
    assert code == 0 and "type=(9;3)" in out


def test_construct_that_p5_fingerprint(capsys):
    # G = Z/p^2 and the characters g -> omega, x -> 0: type (25;25).
    # S^2(x) = q x: ord S = 2p = 10.  Tr S^2 = 0: not semisimple.
    # H_n = span{x^i g^j : i <= n}: corad = [25, 50, 75, 100, 125].
    # J(H) = (x) has dimension 100: pointed and dual pointed.
    # Lambda g = q Lambda: not unimodular.
    code, out = run(["construct", "that", "--p", "5", "--q", "1"], capsys)
    assert code == 0
    assert out.splitlines()[1] == (
        "dim=125 type=(25;25) ordS=10 TrS2=0 corad=[25,50,75,100,125] "
        "pointed=yes dualpointed=yes unimodular=no")


def test_construct_bad_params(capsys):
    code, _ = run(["construct", "uq_sl2", "--p", "4"], capsys)
    assert code == 2
    code, _ = run(["construct", "group_algebra", "--group", "nope"], capsys)
    assert code == 2


def test_report_deterministic(tmp_path, capsys):
    f = str(tmp_path / "uq.hopf")
    run(["construct", "uq_sl2", "--out", f], capsys)
    code1, out1 = run(["report", f, "--all"], capsys)
    code2, out2 = run(["report", f, "--all"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_qt_pipeline(tmp_path, capsys):
    f = str(tmp_path / "uq.hopf")
    code, _ = run(["construct", "uq_sl2", "--rmatrix", "uq_standard",
                   "--out", f], capsys)
    assert code == 0
    code, out = run(["qt-verify", f], capsys)
    assert code == 0
    for axiom in ("QT.1", "QT.2", "QT.3", "QT.4", "QT.5"):
        assert f"{axiom}=pass" in out
    assert "minimal=yes" in out
    code, out = run(["ribbon", f], capsys)
    assert code == 0
    assert "ribbon_count=1" in out
    code, out = run(["report", f, "--qt", f], capsys)
    assert code == 0
    assert "ribbon_count=1" in out and "drinfeld_identities=clean" in out


def _uq_with_rmatrix(tmp_path, capsys):
    f = str(tmp_path / "uq.hopf")
    code, _ = run(["construct", "uq_sl2", "--rmatrix", "uq_standard",
                   "--out", f], capsys)
    assert code == 0
    return f


def test_rmatrix_zero_coefficients_change_no_verdict(tmp_path, capsys):
    f = _uq_with_rmatrix(tmp_path, capsys)
    obj = json.loads(open(f, encoding="utf-8").read())
    listed = {(i, j) for i, j, _ in obj["rmatrix"]}
    absent = [(i, j) for i in range(obj["dim"]) for j in range(obj["dim"])
              if (i, j) not in listed][:3]
    obj["rmatrix"] += [[i, j, "0"] for i, j in absent]
    fz = str(tmp_path / "uq_zeros.hopf")
    with open(fz, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    for argv in (["qt-verify", "{}"], ["ribbon", "{}"], ["report", "{}", "--qt", "{}"]):
        plain = run([a.format(f) for a in argv], capsys)
        assert plain[0] == 0, argv
        assert run([a.format(fz) for a in argv], capsys) == plain, argv


def test_rmatrix_file_of_another_dimension_exit_2(tmp_path, capsys):
    fuq = _uq_with_rmatrix(tmp_path, capsys)
    ftaft, fz3 = str(tmp_path / "taft.hopf"), str(tmp_path / "z3.hopf")
    assert run(["construct", "taft", "--out", ftaft], capsys)[0] == 0
    assert run(["construct", "group_algebra", "--group", "z3", "--rmatrix",
                "bicharacter:1", "--out", fz3], capsys)[0] == 0
    for argv, dims in ((["qt-verify", ftaft, fuq], (27, 9)),
                       (["ribbon", ftaft, fuq], (27, 9)),
                       (["report", ftaft, "--qt", fuq], (27, 9)),
                       (["qt-verify", fuq, fz3], (3, 27))):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "internal" not in err, argv
        assert f"has dim {dims[0]}, but the host has dim {dims[1]}" in err, argv


def test_dual_tensor_double(tmp_path, capsys):
    f = str(tmp_path / "t.hopf")
    f2 = str(tmp_path / "d.hopf")
    run(["construct", "taft", "--out", f], capsys)
    code, out = run(["dual", f, "--out", f2], capsys)
    assert code == 0 and "dim=9" in out
    code, out = run(["tensor", f, f2, "--out", str(tmp_path / "tt.hopf")], capsys)
    assert code == 0 and "dim=81" in out
    code, out = run(["double", f, "--out", str(tmp_path / "dt.hopf")], capsys)
    assert code == 0 and "dim=81" in out and "semisimple=no" in out


def test_double_gate_is_fixed(tmp_path, capsys):
    # D(u_q(sl2)) would have dimension 729; the gate is not a user option
    f = str(tmp_path / "uq.hopf")
    run(["construct", "uq_sl2", "--out", f], capsys)
    code = main(["double", f])
    cap = capsys.readouterr()
    assert code == 1 and cap.out == ""
    assert cap.err == ("verification error: dim 27 exceeds the double's "
                       "dimension gate 9\n")
    with pytest.raises(SystemExit) as exc:
        main(["double", f, "--max-dim", "27"])
    assert exc.value.code == 2 and "--max-dim" in capsys.readouterr().err


def test_tensor_above_file_limit_exit_2(tmp_path, capsys, double_taft,
                                       monkeypatch):
    from hopfkit import hopffile
    from hopfkit.hopffile import export_hopf
    f = str(tmp_path / "dt.hopf")
    export_hopf(double_taft, f)
    # the gate reads the dims before either file is verified
    verified = []
    monkeypatch.setattr(hopffile, "verify_hopf", verified.append)
    code = main(["tensor", f, f, "--out", str(tmp_path / "big.hopf")])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err == ("error: tensor product dim 81 x 81 exceeds "
                       "the .hopf file limit 4096\n")
    assert not (tmp_path / "big.hopf").exists()
    assert verified == []


def test_quotient_command(tmp_path, capsys):
    f = str(tmp_path / "z9.hopf")
    run(["construct", "group_algebra", "--group", "z9xz3", "--out", f], capsys)
    # kill the first factor's cube: generator g^3 (x) 1 - 1 (x) 1
    gens = [["0"] * 27]
    gens[0][9] = "1"   # (3,0) in the (9,3) mixed-radix ordering
    gens[0][0] = "-1"
    gf = str(tmp_path / "gens.json")
    with open(gf, "w", encoding="utf-8") as fh:
        json.dump(gens, fh)
    code, out = run(["quotient", f, gf, "--out", str(tmp_path / "q.hopf")], capsys)
    assert code == 0
    assert "dim=9" in out
    # a generator of the wrong length is a parse error, whatever its entries
    for row in (gens[0][:26], gens[0] + ["1"], ["1"] + ["0"] * 27):
        with open(gf, "w", encoding="utf-8") as fh:
            json.dump([row], fh)
        assert main(["quotient", f, gf]) == 2
        assert "each generator needs 27 coefficients" in capsys.readouterr().err
    # anything but a list of lists of strings is a named parse error
    for raw in ([1, 2], 7, [[1] * 27], {"a": 1}, "a", [gens[0], "1"]):
        with open(gf, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        assert main(["quotient", f, gf]) == 2
        assert capsys.readouterr().err == (
            "error: bad generator file: expected a list of generators, "
            "each a list of coefficient strings\n")


def test_papercheck_commands(capsys):
    code, out = run(["papercheck", "spectra", "--p", "3", "--n", "1"], capsys)
    assert code == 0
    assert "trace_zero=2" in out and "all_conform=yes" in out
    code, out = run(["papercheck", "dim27"], capsys)
    assert code == 0
    assert "bound=30" in out and "bound=27" in out
    assert "bound=39" in out and "bound=36" in out
    assert "all_eliminated=yes" in out


def test_papercheck_spectra_rejects_bad_parameters(capsys):
    # p must be an odd prime (the check `construct` uses) and n at least 1
    for args, msg in ((["--p", "0"], "p must be an odd prime, got 0"),
                      (["--p", "1"], "p must be an odd prime, got 1"),
                      (["--p", "2"], "p must be an odd prime, got 2"),
                      (["--p", "9"], "p must be an odd prime, got 9"),
                      (["--n", "0"], "n must be at least 1, got 0"),
                      (["--n", "-1"], "n must be at least 1, got -1")):
        assert main(["papercheck", "spectra", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {msg}\n"


def test_import_corrupted_exit_code(tmp_path, capsys):
    f = str(tmp_path / "t.hopf")
    run(["construct", "taft", "--out", f], capsys)
    obj = json.loads(open(f, encoding="utf-8").read())
    i, j, k, s = obj["mult"][0]
    obj["mult"][0] = [i, j, k, "2" if s != "2" else "3"]
    bad = str(tmp_path / "bad.hopf")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    code = main(["import", bad])
    assert code == 1
    # parse garbage: exit 2
    garbage = str(tmp_path / "garbage.hopf")
    with open(garbage, "w", encoding="utf-8") as fh:
        fh.write("{]")
    code = main(["import", garbage])
    assert code == 2


def _bumped(text, M):
    from hopfkit.cyclo import CycloNum, parse, render
    return render(parse(M, text) + CycloNum.one(M))


def _corrupted_file(obj, kind, rng):
    """The .hopf object `obj` with one seeded entry of `kind` increased by 1."""
    import copy
    obj = copy.deepcopy(obj)
    n, M = obj["dim"], obj["conductor"]
    if kind == "antipode":
        row = obj["antipode"][rng.randrange(n)]
        j = rng.randrange(n)
        row[j] = _bumped(row[j], M)
    elif kind in ("unit", "counit"):
        i = rng.randrange(n)
        obj[kind][i] = _bumped(obj[kind][i], M)
    else:
        entry = obj[kind][rng.randrange(len(obj[kind]))]
        entry[3] = _bumped(entry[3], M)
    return obj


# `hopfkit import` of taft's .hopf with one entry of one structure map
# increased by 1 (`_corrupted_file` with random.Random(seed)): every line
# names each failing law with its first failing index in sweep order
_FAILS = "verification error: imported algebra fails axioms: "
IMPORT_FAILURES = {
    ("unit", 1): "unit at (0,), comult_algebra_map at ('unit',), "
                 "counit_algebra_map at ('unit',), antipode_left at (0,), "
                 "antipode_right at (0,)",
    ("unit", 3): "unit at (0,), comult_algebra_map at ('unit',), "
                 "antipode_left at (0,), antipode_right at (0,)",
    ("counit", 1): "counit at (2,), counit_algebra_map at (1, 1), "
                   "antipode_left at (2,), antipode_right at (2,)",
    ("counit", 2): "counit at (0,), counit_algebra_map at ('unit',), "
                   "antipode_left at (0,), antipode_right at (0,)",
    ("mult", 1): "associativity at (0, 0, 8), unit at (8,), "
                 "comult_algebra_map at (0, 8)",
    ("mult", 2): "associativity at (0, 0, 3), unit at (3,), "
                 "comult_algebra_map at (0, 6), antipode_right at (5,)",
    ("mult", 3): "associativity at (1, 1, 6), comult_algebra_map at (1, 6), "
                 "antipode_left at (6,)",
    ("comult", 1): "coassociativity at (3,), counit at (3,), "
                   "comult_algebra_map at (1, 3), antipode_left at (3,), "
                   "antipode_right at (3,)",
    ("comult", 2): "coassociativity at (3,), counit at (1,), "
                   "comult_algebra_map at (1, 1), antipode_left at (1,), "
                   "antipode_right at (1,)",
    ("antipode", 1): "antipode_left at (1,), antipode_right at (1,)",
    ("antipode", 3): "antipode_left at (8,), antipode_right at (8,)",
}

# `hopfkit qt-verify` of the u_q(sl2) R-matrix with the entry at (i, j)
# increased by 1, and of the R-matrix itself (None)
QT_VERIFY_STDOUT = {
    (10, 5): "QT.1=FAIL\nQT.2=FAIL\nQT.3=pass\nQT.4=FAIL\nQT.5=pass\n"
             "R_inverse_formula=FAIL\nS_tensor_S_fixes_R=pass\n"
             "f_R_bialgebra_map=FAIL\n",
    (9, 3): "QT.1=FAIL\nQT.2=FAIL\nQT.3=pass\nQT.4=FAIL\nQT.5=pass\n"
            "R_inverse_formula=FAIL\nS_tensor_S_fixes_R=FAIL\n"
            "f_R_bialgebra_map=FAIL\n",
    (0, 0): "QT.1=FAIL\nQT.2=FAIL\nQT.3=FAIL\nQT.4=FAIL\nQT.5=FAIL\n"
            "R_inverse_formula=FAIL\nS_tensor_S_fixes_R=pass\n"
            "f_R_bialgebra_map=FAIL\n",
    None: "QT.1=pass\nQT.2=pass\nQT.3=pass\nQT.4=pass\nQT.5=pass\n"
          "R_inverse_formula=pass\nS_tensor_S_fixes_R=pass\n"
          "f_R_bialgebra_map=pass\nrank_K_equals_L=pass\nK_sub_hopf=pass\n"
          "L_sub_hopf=pass\nrank=9\nminimal=yes\n",
}


def test_failure_reports_are_pinned(tmp_path, capsys):
    import random
    f = str(tmp_path / "taft.hopf")
    assert run(["construct", "taft", "--out", f], capsys)[0] == 0
    taft = json.loads(open(f, encoding="utf-8").read())
    bad = str(tmp_path / "bad.hopf")
    for (kind, seed), laws in IMPORT_FAILURES.items():
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(_corrupted_file(taft, kind, random.Random(seed)), fh)
        code = main(["import", bad])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            1, "", _FAILS + laws + "\n"), (kind, seed)
    # D(taft) with a comult coefficient set to 2: the counit law holds, so
    # coassociativity fails on X(H*) first and is then swept in full
    d = str(tmp_path / "d.hopf")
    assert run(["double", f, "--out", d], capsys)[0] == 0
    obj = json.loads(open(d, encoding="utf-8").read())
    obj["comult"][5][3] = "2"
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    code = main(["import", bad])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", _FAILS + (
        "coassociativity at (1,), comult_algebra_map at (1, 1), "
        "antipode_left at (1,), antipode_right at (1,)\n"))
    uq = _uq_with_rmatrix(tmp_path, capsys)
    for key, stdout in QT_VERIFY_STDOUT.items():
        obj = json.loads(open(uq, encoding="utf-8").read())
        for entry in obj["rmatrix"]:
            if (entry[0], entry[1]) == key:
                entry[2] = _bumped(entry[2], obj["conductor"])
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code = main(["qt-verify", bad])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            1 if key else 0, stdout, ""), key


def test_export_canonicalizes(tmp_path, capsys):
    f = str(tmp_path / "t.hopf")
    run(["construct", "taft", "--out", f], capsys)
    out2 = str(tmp_path / "t2.hopf")
    code, _ = run(["export", f, "--out", out2], capsys)
    assert code == 0
    assert open(f, "rb").read() == open(out2, "rb").read()


def test_golden_report_taft(tmp_path):
    # byte-identical across processes, locked against the committed golden
    import pathlib
    import subprocess
    import sys
    f = str(tmp_path / "taft.hopf")
    subprocess.run([sys.executable, "-m", "hopfkit.cli", "construct", "taft",
                    "--out", f], check=True, capture_output=True)
    r1 = subprocess.run([sys.executable, "-m", "hopfkit.cli", "report", f,
                         "--all"], check=True, capture_output=True)
    r2 = subprocess.run([sys.executable, "-m", "hopfkit.cli", "report", f,
                         "--all"], check=True, capture_output=True)
    assert r1.stdout == r2.stdout
    golden = pathlib.Path(__file__).parent / "golden" / "taft_report_all.txt"
    assert r1.stdout == golden.read_bytes()


def test_golden_papercheck_dim27():
    import pathlib
    import subprocess
    import sys
    r = subprocess.run([sys.executable, "-m", "hopfkit.cli", "papercheck",
                        "dim27"], check=True, capture_output=True)
    golden = pathlib.Path(__file__).parent / "golden" / "papercheck_dim27.txt"
    assert r.stdout == golden.read_bytes()


def test_bicharacter_rmatrix_cli(tmp_path, capsys):
    f = str(tmp_path / "z3.hopf")
    code, _ = run(["construct", "group_algebra", "--group", "z3",
                   "--rmatrix", "bicharacter:1", "--out", f], capsys)
    assert code == 0
    code, out = run(["qt-verify", f], capsys)
    assert code == 0
    assert "QT.1=pass" in out


def test_op_cop_cli(tmp_path, capsys):
    f = str(tmp_path / "t.hopf")
    run(["construct", "taft", "--out", f], capsys)
    code, out = run(["op", f, "--out", str(tmp_path / "op.hopf")], capsys)
    assert code == 0 and "ordS=6" in out
    code, out = run(["cop", f], capsys)
    assert code == 0 and "dim=9" in out


# -- hostile input: usage and parse errors exit 2 without a traceback ----------


def _cli_proc(*args):
    import subprocess
    import sys
    r = subprocess.run([sys.executable, "-m", "hopfkit.cli", *args],
                       capture_output=True, text=True)
    return r.returncode, r.stderr


def _edited_taft(tmp_path, capsys, edit):
    f = str(tmp_path / "t.hopf")
    run(["construct", "taft", "--out", f], capsys)
    obj = json.loads(open(f, encoding="utf-8").read())
    edit(obj)
    bad = str(tmp_path / "bad.hopf")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return bad


def test_import_missing_file_exit_2(tmp_path):
    code, err = _cli_proc("import", str(tmp_path / "missing.hopf"))
    assert code == 2 and "Traceback" not in err and "error:" in err


def test_conductor_below_one_exit_2():
    code, err = _cli_proc("--conductor", "0", "construct", "taft")
    assert code == 2 and "Traceback" not in err and "--conductor" in err


def test_conductor_above_gate_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        make_parser().parse_args(["--conductor", "20011", "construct", "taft"])
    assert exc.value.code == 2 and "--conductor" in capsys.readouterr().err


def test_bicharacter_index_not_an_integer_exit_2():
    code, err = _cli_proc("construct", "group_algebra", "--group", "z3",
                          "--rmatrix", "bicharacter:abc")
    assert code == 2 and "Traceback" not in err and "bicharacter" in err


def test_import_short_antipode_exit_2(tmp_path, capsys):
    bad = _edited_taft(tmp_path, capsys, lambda obj: obj["antipode"].pop())
    code, err = _cli_proc("import", bad)
    assert code == 2 and "Traceback" not in err and "antipode" in err


def test_import_float_tensor_index_exit_2(tmp_path, capsys):
    def edit(obj):
        obj["mult"][0][0] = float(obj["mult"][0][0])
    code, err = _cli_proc("import", _edited_taft(tmp_path, capsys, edit))
    assert code == 2 and "Traceback" not in err and "index" in err


def test_import_out_of_range_rmatrix_index_exit_2(tmp_path, capsys):
    f = str(tmp_path / "z3.hopf")
    code, _ = run(["construct", "group_algebra", "--group", "z3",
                   "--rmatrix", "bicharacter:1", "--out", f], capsys)
    assert code == 0
    obj = json.loads(open(f, encoding="utf-8").read())
    obj["rmatrix"][0][1] = obj["dim"]
    bad = str(tmp_path / "bad.hopf")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    for cmd in ("import", "qt-verify"):
        code, err = _cli_proc(cmd, bad)
        assert code == 2 and "Traceback" not in err and "index" in err, cmd


def test_import_claims_not_an_object_exit_2(tmp_path, capsys):
    def edit(obj):
        obj["claims"] = []
    code, err = _cli_proc("import", _edited_taft(tmp_path, capsys, edit))
    assert code == 2 and "Traceback" not in err and "claims" in err


def test_import_string_vector_exit_2(tmp_path, capsys):
    # "100000000" has one character per entry, as taft's unit has one entry
    # per basis element; it is still not a list of coefficients
    def edit(obj):
        obj["unit"] = "".join(obj["unit"])
    code, err = _cli_proc("import", _edited_taft(tmp_path, capsys, edit))
    assert code == 2 and "Traceback" not in err and "vector" in err


def test_import_non_integer_dim_or_conductor_exit_2(tmp_path, capsys):
    for key, value in (("dim", 9.5), ("conductor", "9")):
        def edit(obj):
            obj[key] = value
        code, err = _cli_proc("import", _edited_taft(tmp_path, capsys, edit))
        assert code == 2 and "Traceback" not in err and "integers" in err, key


def test_cli_import_leaves_the_analysis_modules_unloaded():
    # `import` and the other file commands load only what they use; the
    # analysis modules are imported inside the commands that need them
    import os
    import subprocess
    import sys
    import hopfkit
    code = ("import sys\nbefore = set(sys.modules)\nimport hopfkit.cli\n"
            "print(*sys.modules, sep='\\n')\nprint('--', *before, sep='\\n')\n")
    # without `site`, whose .pth files may import anything; hopfkit is
    # found where this process found it
    src = os.path.dirname(os.path.dirname(hopfkit.__file__))
    r = subprocess.run([sys.executable, "-S", "-c", code],
                       capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": src})
    after, before = (set(part.split()) for part in r.stdout.split("--"))
    loaded = after - before
    assert "hopfkit.hopffile" in loaded
    for name in ("invariants", "constructors", "quasitriangular", "papercheck"):
        assert f"hopfkit.{name}" not in loaded, name
    # nor the standard-library modules only some commands need
    for name in ("tempfile", "typing", "dataclasses", "fractions", "decimal",
                 "json", "random"):
        assert name not in loaded, name


def test_typetable_process_loads_no_unused_standard_library():
    # the type table reads no file and no rational: its process loads
    # neither `json` nor `fractions`, and no module pulls in `dataclasses`
    # (nor the `inspect` it imports); `hopffile` stays loaded, since the
    # benchmark's tracer reads its bindings from sys.modules
    import os
    import subprocess
    import sys
    import tempfile
    import hopfkit
    code = ("import io, sys\nfrom contextlib import redirect_stdout\n"
            "import hopfkit.cli as cli\n"
            "with redirect_stdout(io.StringIO()) as out:\n"
            "    rc = cli.main(['papercheck', 'typetable', '--p', '3'])\n"
            "assert rc == 0 and 'typetable=pass' in out.getvalue()\n"
            "print(*sys.modules, sep='\\n')\n")
    src = os.path.dirname(os.path.dirname(hopfkit.__file__))
    r = subprocess.run([sys.executable, "-S", "-c", code],
                       capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": src})
    loaded = set(r.stdout.split())
    assert "hopfkit.hopffile" in loaded
    for name in ("dataclasses", "inspect", "fractions", "decimal", "json"):
        assert name not in loaded, name
    # a job that writes a file opens its temp file without `tempfile`, and
    # so without the `random` that `tempfile` loads
    code = ("import io, sys\nfrom contextlib import redirect_stdout\n"
            "import hopfkit.cli as cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['construct', 'taft', '--out', sys.argv[1]])\n"
            "assert rc == 0\n"
            "print(*sys.modules, sep='\\n')\n")
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "taft.hopf")
        r = subprocess.run([sys.executable, "-S", "-c", code, out],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src})
        assert os.listdir(d) == ["taft.hopf"]
    loaded = set(r.stdout.split())
    assert "json" in loaded
    for name in ("tempfile", "random"):
        assert name not in loaded, name


def test_file_jobs_load_no_fractions(tmp_path, double_taft, taft3):
    # `cyclo.parse` reads render's grammar with int, so importing a
    # rescaled D(taft) (coefficients such as 2/7) and doubling taft load
    # neither `fractions` nor the `decimal` it imports
    import os
    import random
    import subprocess
    import sys
    import hopfkit
    from hopfkit.hopffile import export_hopf
    from test_generator_certificate import relabel
    rescaled, taft = str(tmp_path / "rescaled.hopf"), str(tmp_path / "taft.hopf")
    export_hopf(relabel(double_taft, random.Random(2), True), rescaled)
    export_hopf(taft3, taft)
    code = ("import io, sys\nfrom contextlib import redirect_stdout\n"
            "import hopfkit.cli as cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(sys.argv[1:])\n"
            "assert rc == 0\n"
            "print(*sys.modules, sep='\\n')\n")
    src = os.path.dirname(os.path.dirname(hopfkit.__file__))
    for argv in (["import", rescaled], ["double", taft]):
        r = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src})
        loaded = set(r.stdout.split())
        assert "json" in loaded, argv
        for name in ("fractions", "decimal"):
            assert name not in loaded, (argv, name)


def test_internal_error_exit_2_without_traceback():
    # no exception escapes main as a traceback, whatever a command raises
    import subprocess
    import sys
    stub = ("import sys, hopfkit.cli as cli\n"
            "def boom(args):\n"
            "    raise RuntimeError('stub failure')\n"
            "cli.cmd_construct = boom\n"
            "sys.exit(cli.main(['construct', 'taft']))\n")
    r = subprocess.run([sys.executable, "-c", stub],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr == "error: internal RuntimeError: stub failure\n"


def test_export_conductor_embeds_fixtures(tmp_path, capsys):
    # the fixture matrices are embedded with the rest of the algebra, so
    # both book isomorphisms still verify at the new conductor
    from hopfkit.constructors import resolve_fixture_target
    from hopfkit.hopf import HopfMorphism, verify_morphism
    from hopfkit.hopffile import import_hopf
    f = str(tmp_path / "book.hopf")
    f18 = str(tmp_path / "b18.hopf")
    assert run(["construct", "book", "--m", "1", "--out", f], capsys)[0] == 0
    assert run(["--conductor", "18", "export", f, "--out", f18], capsys)[0] == 0
    H, _ = import_hopf(f18)
    assert H.conductor == 18 and len(H.iso_fixtures) == 2
    for key, mat in H.iso_fixtures:
        target = resolve_fixture_target(key, conductor=18)
        rep = verify_morphism(HopfMorphism(H, target, mat))
        assert rep.ok and rep.bijective, key


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_write_failure_exit_2(unbuffered):
    # a write error surfaces when the output is written, or, for buffered
    # stdout, only at run()'s flush: either way the error mapping holds
    import os
    import subprocess
    import sys
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        r = subprocess.run([sys.executable, "-m", "hopfkit.cli", "construct",
                            "taft"], stdout=full, stderr=subprocess.PIPE,
                           text=True, env=env)
    assert r.returncode == 2
    assert r.stderr == "error: [Errno 28] No space left on device\n"


def test_cli_work_leaves_no_field_values_in_cycles(double_taft):
    # run() turns the cyclic collector off: the work of a CLI process must
    # not strand field values in reference cycles, and what cycles it makes
    # must stay few
    import gc
    import random
    from fractions import Fraction
    from hopfkit.cyclo import CycloNum
    from hopfkit.hopffile import dumps, loads
    from hopfkit.papercheck import type_table_sweep
    from test_generator_certificate import relabel
    rescaled = dumps(relabel(double_taft, random.Random(2), True))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert type_table_sweep(3, 1)[1]
        loads(rescaled)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not any(type(o) in (CycloNum, Fraction) for o in garbage)
    assert len(garbage) < 2000, len(garbage)


def test_reports_do_not_depend_on_field_value_hashes(tmp_path, capsys,
                                                   double_taft):
    # field values hash by identity, so every set of them iterates in an
    # order that depends on where they were allocated; under a deterministic
    # content hash instead, no report, exit code or written file may change
    import pathlib
    import random
    import subprocess
    import sys
    from hopfkit.hopffile import export_hopf
    from test_generator_certificate import corrupt, relabel
    script = ("import sys\n"
              "from hopfkit import cli, cyclo\n"
              "if sys.argv[1] == 'rehash':\n"
              "    cyclo.CycloNum.__hash__ = lambda a: hash(\n"
              "        (a.M, a.prim, a.k, a.den, 0x9E3779B9))\n"
              "    one = cyclo.CycloNum.one(3)\n"
              "    assert hash(one) != object.__hash__(one)\n"
              "sys.exit(cli.main(sys.argv[2:]))\n")
    taft, uq = str(tmp_path / "taft.hopf"), _uq_with_rmatrix(tmp_path, capsys)
    assert main(["construct", "taft", "--out", taft]) == 0
    rescaled, broken = str(tmp_path / "rescaled.hopf"), str(tmp_path / "broken.hopf")
    export_hopf(relabel(double_taft, random.Random(2), True), rescaled)
    export_hopf(corrupt(double_taft, "comult", random.Random(3)), broken)
    that, dtaft = str(tmp_path / "that.hopf"), str(tmp_path / "dtaft.hopf")
    jobs = (["papercheck", "typetable", "--p", "3"],
            ["construct", "that", "--p", "5", "--out", that],
            ["double", taft, "--out", dtaft],
            ["import", rescaled], ["import", broken],
            ["qt-verify", uq], ["ribbon", uq])
    outputs = {}
    for mode in ("plain", "rehash"):
        for f in (that, dtaft):
            pathlib.Path(f).unlink(missing_ok=True)
        for args in jobs:
            r = subprocess.run([sys.executable, "-c", script, mode, *args],
                               capture_output=True)
            outputs.setdefault(mode, []).append((r.returncode, r.stdout, r.stderr))
        for f in (that, dtaft):
            with open(f, "rb") as fh:
                outputs[mode].append(fh.read())
    assert outputs["plain"] == outputs["rehash"]
    codes = [out[0] for out in outputs["plain"][:len(jobs)]]
    assert codes == [0, 0, 0, 0, 1, 0, 0], outputs["plain"]
    assert b"typetable=pass" in outputs["plain"][0][1]
