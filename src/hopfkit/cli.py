"""Command-line driver.

Exit codes: 0 = all checks pass, 1 = a mathematical verification failed,
2 = usage or parse error.  All output is deterministic: fixed-order
key=value lines, no timestamps, so reports are golden-file testable.

The analysis modules (invariants, constructors, quasitriangular,
papercheck) are imported inside the commands that use them, and so are the
standard-library modules that only some commands run (`random` here, `json`
in `hopffile`, `fractions` in `cyclo` for a rational not written in
`render`'s grammar), so that a process loads only what its command runs.
`hopffile` itself stays a module-level import: the benchmark's tracer reads
its bindings from `sys.modules` after importing this module.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .cyclo import MAX_CONDUCTOR, CycloNum, render
from .errors import BadParameter, HopfkitError, ParseError
from .hopf import FinHopf, dual, op_cop, tensor
from .hopffile import (MAX_DIM, export_hopf, from_obj, import_hopf, read_obj,
                       read_text)
from .linalg import dense_to_sparse, outer, sparse_columns, sparse_to_dense

CONSTRUCTOR_NAMES = (
    "group_algebra", "dual_group_algebra", "taft", "taft_tensor", "ttilde",
    "that", "r", "uq_sl2", "book", "dual_uq_sl2", "dual_r",
)


def _written(H: FinHopf, args, rmat: dict | None = None) -> int:
    """Write H, with the R-matrix block `rmat`, to `--out` when it is given."""
    if args.out:
        export_hopf(H, args.out, rmat)
        print(f"wrote {args.out}")
    return 0


def cmd_construct(args) -> int:
    from .constructors import standard_constructors
    from .invariants import fingerprint
    H = standard_constructors(
        args.name, p=args.p, e=args.q, m=args.m, root=args.root,
        group=args.group, conductor=args.conductor)
    rmat = _make_rmatrix(H, args) if args.rmatrix else None
    print(f"label={H.label}")
    print(fingerprint(H).line())
    return _written(H, args, rmat)


def _make_rmatrix(H: FinHopf, args) -> dict:
    from .quasitriangular import (bicharacter_rmatrices, uq_standard_rmatrix,
                                  verify_qt)
    kind = args.rmatrix
    if kind == "trivial":
        # 1 (x) 1 satisfies QT.1 exactly when Delta^cop = Delta
        rmat = outer(H.unit, H.unit)
        if verify_qt(H, rmat)[1] is None:
            raise BadParameter("--rmatrix trivial requires a cocommutative host")
        return rmat
    if kind == "uq_standard":
        if args.name != "uq_sl2":
            raise BadParameter("--rmatrix uq_standard requires the uq_sl2 host")
        _, rm = uq_standard_rmatrix(args.p, args.q, conductor=args.conductor)
        return rm.r_dict()
    if kind.startswith("bicharacter:"):
        if args.name != "group_algebra" or args.group not in ("z3", "z3xz3"):
            raise BadParameter(
                "--rmatrix bicharacter:<k> works with abelian group hosts "
                "z3 or z3xz3")
        try:
            idx = int(kind.split(":", 1)[1])
        except ValueError:
            raise BadParameter(
                f"bicharacter index must be an integer, got {kind!r}") from None
        factors = (args.p,) if args.group == "z3" else (args.p, args.p)
        _, rms = bicharacter_rmatrices(factors, H.conductor)
        if not 0 <= idx < len(rms):
            raise BadParameter(f"bicharacter index out of range 0..{len(rms) - 1}")
        return rms[idx].r_dict()
    raise BadParameter(f"unknown rmatrix kind {kind!r}")


def _report_lines(H: FinHopf, which: str, seed: int, rmat: dict | None):
    from .invariants import (characters_census, coradical_filtration,
                             fingerprint, grouplike_census, integrals,
                             is_unimodular, pairing_table, radford_s4_check,
                             semisimplicity, trace_formula_check)
    lines = [f"label={H.label}", f"dim={H.dim}", f"conductor={H.conductor}"]
    if which == "all":
        lines.append("fingerprint: " + fingerprint(H).line())
    if which in ("all", "integrals"):
        eps_lam = H.counit_of(integrals(H).left_integral)
        ss = semisimplicity(H)
        lines.append(f"epsLambda={render(eps_lam)}")
        lines.append(f"TrS2={render(ss.trace_s2)}")
        lines.append(f"semisimple={'yes' if ss.semisimple else 'no'}")
        lines.append(f"cosemisimple={'yes' if ss.cosemisimple else 'no'}")
        lines.append(f"unimodular={'yes' if is_unimodular(H) else 'no'}")
        lines.append(f"radford_s4={'pass' if radford_s4_check(H) else 'FAIL'}")
        import random  # only this section draws random matrices
        rng = random.Random(seed)
        trials = 20
        ok = True
        for _ in range(trials):
            f = sparse_columns(
                [[CycloNum.from_rational(H.conductor, rng.randint(-3, 3))
                  for _ in range(H.dim)] for _ in range(H.dim)])
            a, b, c = trace_formula_check(H, f)
            if not (a == b == c):
                ok = False
                break
        lines.append(
            f"trace_formula={'pass' if ok else 'FAIL'} seed={seed} trials={trials}")
    if which in ("all", "census"):
        c = grouplike_census(H)
        cd = characters_census(H)
        lines.append(f"G={c.size} type=({c.type_string()}) certified=yes")
        lines.append(f"Gdual={cd.size} type=({cd.type_string()}) certified=yes")
        pr = pairing_table(H)
        lines.append(
            f"pairing_nontrivial={'yes' if pr.has_nontrivial_entry else 'no'}")
        lines.append(f"pairing_all_one={'yes' if pr.all_entries_one else 'no'}")
    if which in ("all", "coradical"):
        rep = coradical_filtration(H)
        lines.append("corad=[" + ",".join(str(d) for d in rep.filtration_dims) + "]")
        lines.append(f"H0={rep.H0_dim} blocks={rep.blocks} "
                     f"one_dim_blocks={rep.one_dim_blocks}")
        cands = " ".join("(" + ",".join(str(x) for x in c) + ")"
                         for c in rep.candidate_multisets) or "-"
        lines.append(f"block_candidates={cands}")
    if which == "qt":
        from .quasitriangular import ribbon_search, verify_qt
        if rmat is None:
            raise ParseError("no R-matrix block available for --qt")
        rep, rm = verify_qt(H, rmat)
        for c in rep.checks[:5]:
            lines.append(f"{c.name}={'pass' if c.ok else 'FAIL'}")
        if rm is None:
            lines.append("qt=FAIL")
            return lines, False
        lines.append(f"rank={rm.rank}")
        lines.append(f"minimal={'yes' if rm.minimal else 'no'}")
        # theorems once verify_qt has passed (`drinfeld_element` docstring)
        lines.append("drinfeld_identities=clean")
        rc = ribbon_search(rm)
        lines.append(f"ribbon_count={len(rc.ribbon_elements)}")
    return lines, True


def cmd_report(args) -> int:
    H, rmat = import_hopf(args.file, conductor=args.conductor)
    if args.qt:
        rfile = _rmatrix_file(H, args.qt)
        if rfile is not None:
            rmat = rfile
    which = next((flag for flag in ("qt", "integrals", "coradical", "census")
                  if getattr(args, flag)), "all")
    lines, ok = _report_lines(H, which, args.seed, rmat)
    for ln in lines:
        print(ln)
    return 0 if ok else 1


def cmd_unary(args) -> int:
    from .invariants import fingerprint
    H, _ = import_hopf(args.file, conductor=args.conductor)
    K = dual(H) if args.cmd == "dual" else op_cop(H, args.cmd)
    print(f"label={K.label}")
    print(fingerprint(K).line())
    return _written(K, args)


def cmd_tensor(args) -> int:
    # the size gate reads the files' dims before either is verified
    objs = [read_obj(args.file1), read_obj(args.file2)]
    dims = [obj.get("dim") if type(obj) is dict else None for obj in objs]
    if (all(type(d) is int and 0 < d <= MAX_DIM for d in dims)
            and dims[0] * dims[1] > MAX_DIM):
        raise BadParameter(f"tensor product dim {dims[0]} x {dims[1]} exceeds "
                           f"the .hopf file limit {MAX_DIM}")
    # from_obj empties each parsed file before it verifies the algebra
    H, _ = from_obj(objs[0], conductor=args.conductor)
    K, _ = from_obj(objs[1], conductor=H.conductor)
    T = tensor(H, K)
    print(f"label={T.label}")
    print(f"dim={T.dim}")
    return _written(T, args)


def cmd_double(args) -> int:
    from .constructors import drinfeld_double
    from .invariants import semisimplicity
    H, _ = import_hopf(args.file, conductor=args.conductor)
    D = drinfeld_double(H)
    print(f"label={D.label}")
    print(f"dim={D.dim}")
    ss = semisimplicity(D)
    print(f"semisimple={'yes' if ss.semisimple else 'no'}")
    return _written(D, args)


def cmd_quotient(args) -> int:
    import json
    from .hopf import quotient_by_hopf_ideal
    from .cyclo import parse as cparse
    H, _ = import_hopf(args.file, conductor=args.conductor)
    try:
        gens_raw = json.loads(read_text(args.generators))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad generator file: {exc}") from exc
    if not (type(gens_raw) is list and all(
            type(row) is list and all(type(s) is str for s in row)
            for row in gens_raw)):
        raise ParseError("bad generator file: expected a list of generators, "
                         "each a list of coefficient strings")
    gens = [[cparse(H.conductor, s) for s in row] for row in gens_raw]
    if any(len(g) != H.dim for g in gens):
        raise ParseError(
            f"bad generator file: each generator needs {H.dim} coefficients")
    Q, _ = quotient_by_hopf_ideal(H, [dense_to_sparse(g) for g in gens])
    print(f"label={Q.label}")
    print(f"dim={Q.dim}")
    return _written(Q, args)


def _rmatrix_file(H: FinHopf, path: str) -> dict | None:
    """The R-matrix block of the .hopf file at `path`, for the host H."""
    K, rmat = import_hopf(path, conductor=H.conductor)
    if rmat is not None and K.dim != H.dim:
        raise ParseError(f"R-matrix file {path} has dim {K.dim}, "
                         f"but the host has dim {H.dim}")
    return rmat


def _host_and_rmatrix(args):
    H, rmat = import_hopf(args.host, conductor=args.conductor)
    if args.rfile:
        rmat = _rmatrix_file(H, args.rfile)
    if rmat is None:
        raise ParseError("no R-matrix block in the given files")
    return H, rmat


def cmd_qt_verify(args) -> int:
    from .quasitriangular import verify_qt
    H, rmat = _host_and_rmatrix(args)
    rep, rm = verify_qt(H, rmat)
    for c in rep.checks:
        print(f"{c.name}={'pass' if c.ok else 'FAIL'}")
    if rm is None:
        return 1
    print(f"rank={rm.rank}")
    print(f"minimal={'yes' if rm.minimal else 'no'}")
    return 0


def cmd_ribbon(args) -> int:
    from .quasitriangular import ribbon_search, verify_qt
    H, rmat = _host_and_rmatrix(args)
    rep, rm = verify_qt(H, rmat)
    if rm is None:
        print("qt=FAIL")
        return 1
    rc = ribbon_search(rm)
    print(f"ribbon_count={len(rc.ribbon_elements)}")
    for v in rc.ribbon_elements:
        dense = sparse_to_dense(v, H.dim, H.conductor)
        print("ribbon=[" + ", ".join(render(c) for c in dense) + "]")
    return 0


def cmd_spectra(args) -> int:
    from .constructors import _check_odd_prime
    from .papercheck import spectra_lemma_check
    _check_odd_prime(args.p)
    if args.n < 1:
        raise BadParameter(f"n must be at least 1, got {args.n}")
    r = spectra_lemma_check(args.p, args.n)
    print(f"p={r.p} n={r.n} omega_conductor={r.omega_conductor}")
    print(f"multisets_scanned={r.total_multisets}")
    print(f"trace_zero={len(r.trace_zero)}")
    for ms, sign, m in r.witnesses:
        body = " ".join(f"{'+' if s > 0 else '-'}w^{i}" for s, i in ms)
        print(f"witness: {{{body}}} sign={'+' if sign > 0 else '-'} m={m}")
    print(f"all_conform={'yes' if r.all_conform else 'no'}")
    return 0 if r.all_conform else 1


def cmd_dim27(args) -> int:
    from .papercheck import dim27_case_elimination
    cases, ok = dim27_case_elimination()
    for c in cases:
        print(f"case: {c.name} dimH0={c.h0_dim} bound={c.bound} "
              f"eliminated={'yes' if c.eliminated else 'no'}")
    print(f"all_eliminated={'yes' if ok else 'no'}")
    return 0 if ok else 1


def cmd_typetable(args) -> int:
    from .papercheck import type_table_sweep
    rows, ok = type_table_sweep(args.p, args.e)
    for row in rows:
        status = "ok " if row.ok else "BAD"
        print(f"{status} {row.label}: {row.fp.line()}"
              + (f" [{row.note}]" if row.note else ""))
    print(f"typetable={'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_export(args) -> int:
    H, rmat = import_hopf(args.file, conductor=args.conductor)
    return _written(H, args, rmat)


def cmd_import(args) -> int:
    H, rmat = import_hopf(args.file, conductor=args.conductor)
    print(f"label={H.label}")
    print(f"dim={H.dim}")
    print(f"conductor={H.conductor}")
    print("verify=pass")
    print(f"rmatrix={'yes' if rmat is not None else 'no'}")
    return 0


def _conductor(text: str) -> int:
    v = int(text)
    if not 1 <= v <= MAX_CONDUCTOR:
        raise argparse.ArgumentTypeError(
            f"must be in 1..{MAX_CONDUCTOR}, got {v}")
    return v


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfkit",
        description="Exact construction, verification and classification of "
                    "finite-dimensional Hopf algebras over cyclotomic fields.")
    ap.add_argument("--conductor", type=_conductor, default=None,
                    help="cyclotomic conductor override")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized trace-formula matrices")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a named algebra")
    c.add_argument("name", choices=CONSTRUCTOR_NAMES)
    c.add_argument("--p", type=int, default=3)
    c.add_argument("--q", type=int, default=1, help="q exponent: q = zeta_p^q")
    c.add_argument("--m", type=int, default=1, help="book algebra parameter")
    c.add_argument("--root", type=int, default=0, help="ttilde p-th root choice")
    c.add_argument("--group", default=None,
                   help="group token: z27 z9xz3 z3xz3xz3 heis z9sz3 (or z3/z3xz3 for R-hosts)")
    c.add_argument("--rmatrix", default=None,
                   help="attach an R-matrix block: trivial | uq_standard | bicharacter:<k>")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_construct)

    r = sub.add_parser("report", help="invariant report for a .hopf file")
    r.add_argument("file")
    r.add_argument("--all", action="store_true")
    r.add_argument("--integrals", action="store_true")
    r.add_argument("--coradical", action="store_true")
    r.add_argument("--census", action="store_true")
    r.add_argument("--qt", default=None, metavar="RFILE")
    r.set_defaults(func=cmd_report)

    for op in ("dual", "op", "cop"):
        d = sub.add_parser(op, help=f"{op} of a .hopf file")
        d.add_argument("file")
        d.add_argument("--out", default=None)
        d.set_defaults(func=cmd_unary)

    t = sub.add_parser("tensor", help="tensor product of two .hopf files")
    t.add_argument("file1")
    t.add_argument("file2")
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_tensor)

    d = sub.add_parser("double", help="Drinfeld double of a .hopf file")
    d.add_argument("file")
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_double)

    q = sub.add_parser("quotient", help="quotient by a Hopf ideal")
    q.add_argument("file")
    q.add_argument("generators", help="JSON file: list of coefficient-string vectors")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_quotient)

    qv = sub.add_parser("qt-verify", help="verify a quasitriangular structure")
    qv.add_argument("host")
    qv.add_argument("rfile", nargs="?", default=None)
    qv.set_defaults(func=cmd_qt_verify)

    rb = sub.add_parser("ribbon", help="exhaustive ribbon element search")
    rb.add_argument("host")
    rb.add_argument("rfile", nargs="?", default=None)
    rb.set_defaults(func=cmd_ribbon)

    pc = sub.add_parser("papercheck", help="reproduction suites")
    pcs = pc.add_subparsers(dest="suite", required=True)
    s = pcs.add_parser("spectra")
    s.add_argument("--p", type=int, default=3)
    s.add_argument("--n", type=int, default=1)
    s.set_defaults(func=cmd_spectra)
    s2 = pcs.add_parser("dim27")
    s2.set_defaults(func=cmd_dim27)
    s3 = pcs.add_parser("typetable")
    s3.add_argument("--p", type=int, default=3)
    s3.add_argument("--e", type=int, default=1)
    s3.set_defaults(func=cmd_typetable)

    e = sub.add_parser("export", help="re-export a .hopf file canonically")
    e.add_argument("file")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export)

    i = sub.add_parser("import", help="import and verify a .hopf file")
    i.add_argument("file")
    i.set_defaults(func=cmd_import)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (BadParameter, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HopfkitError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point: `python -m hopfkit.cli` and the `hopfkit`
    console script.  It runs `main` with the cyclic collector off, flushes
    stdout and stderr under main's error mapping, and ends the process with
    `os._exit`, skipping interpreter teardown.

    The collector is off because a CLI process makes no cycles worth
    reclaiming: field values and structure tensors are acyclic, and what
    cycles there are (argparse, closures) die with the process.  Nothing is
    left to close at the exit: `export_hopf` closes its file inside `with`
    before `os.replace`, and the flushes below write what stdout and stderr
    still buffer.  `main` itself disables nothing, so tests and tracers can
    call it in-process.
    """
    gc.disable()
    try:
        rc = main()
    except SystemExit as exc:  # argparse: --help, or a usage error
        rc = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        rc = 2
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
    os._exit(rc)


if __name__ == "__main__":
    run()
