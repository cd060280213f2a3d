"""The .hopf file format: UTF-8 JSON text with canonical coefficient
rendering, sorted sparse triples, and whole-file atomic writes.

import(export(H)) reproduces H bit-exactly; import runs verify_hopf before
returning, as a file is one of the sources of an algebra.  A file repeats few
distinct coefficients many times, so an import parses each distinct
coefficient string once and an export renders each distinct value once.

File I/O costs about what H itself holds.  The writer builds no whole-file
object or text: it emits json.dumps(obj, indent=1, sort_keys=True)'s bytes
for the file's JSON value obj section by section, in sorted key order,
straight from H, the triples of mult, comult and rmatrix in blocks of
`_BLOCK` rows and the dense antipode and fixture matrices one row at a time
from their transposed sparse columns.  Each piece is one chain of C-level
joins over the file's cache of encoded scalars.  `dumps` is the same writer
into a string.  The reader frees the file text once it is parsed, and the
parsed JSON once H is built, before verify_hopf runs.  `json` is imported
by the reader and the writer, not by this module, so a process that reads
and writes no file does not load it.
"""

from __future__ import annotations

import os
from itertools import chain
from operator import itemgetter

from .cyclo import CycloNum, parse as cparse, render
from .errors import BadParameter, ParseError, VerificationFailed
from .hopf import ClaimSet, FinHopf, embed_hopf, verify_hopf
from .linalg import (SparseTensor3, dense_to_sparse, sparse_columns,
                     transpose_columns)

FORMAT_VERSION = "hopf-v1"
# The file holds the antipode and each fixture as dense n x n matrices.
MAX_DIM = 4096
# Rows of a triple table (mult, comult, rmatrix) rendered as one piece.
_BLOCK = 512


class _Texts(dict):
    """JSON text of each str, int and field value met, encoded once (by C
    functions; a field value through its canonical rendering)."""

    def __init__(self):
        from json.encoder import encode_basestring_ascii
        self.encode_str = encode_basestring_ascii

    def __missing__(self, x):
        t = type(x)
        s = self[x] = (str(x) if t is int else
                       self.encode_str(x if t is str else render(x)))
        return s


def _pieces(H: FinHopf, rmatrix: dict | None):
    """The .hopf text of H in pieces of at most `_BLOCK` triples or one dense
    row (see the module docstring)."""
    n = H.dim
    text = _Texts().__getitem__
    zero = text(CycloNum.zero(H.conductor))

    def dense(v):
        row = [zero] * n
        for i, s in zip(v, map(text, v.values())):
            row[i] = s
        return row

    def flat(cells, pad):
        inner = "\n" + pad + " "
        return ("[" + inner + ("," + inner).join(cells) + "\n" + pad + "]"
                if cells else "[]")

    def rows(blocks, pad):
        # a list at indent `pad` of rows of cell texts, given in blocks of rows
        inner, cell = "\n" + pad + " ", "\n" + pad + "  "
        sep, cell_sep = inner + "]," + inner + "[" + cell, "," + cell
        head = "[" + inner + "[" + cell
        for block in blocks:
            yield head
            yield sep.join(map(cell_sep.join, block))
            head = sep
        yield "[]" if head[0] == "[" else inner + "]\n" + pad + "]"

    def triples(entries):
        w = len(entries[0][0]) if entries else 0
        for a in range(0, len(entries), _BLOCK):
            block = entries[a:a + _BLOCK]
            keys = map(text, chain.from_iterable(map(itemgetter(0), block)))
            yield zip(*[keys] * w, map(text, map(itemgetter(1), block)))

    def matrix(cols):
        return ((dense(r),) for r in transpose_columns(cols, n))

    def vectors(vs):
        return ((dense(v),) for v in vs)

    yield '{\n "antipode": '
    yield from rows(matrix(H.antipode), " ")
    yield ',\n "claims": {\n  "characters": '
    yield from rows(vectors(H.claims.characters), "  ")
    yield ',\n  "grouplikes": '
    yield from rows(vectors(H.claims.grouplikes), "  ")
    yield ',\n  "iso_fixtures": '
    head = "[\n   [\n    "
    for key, cols in H.iso_fixtures:
        yield head + flat(list(map(text, key)), "    ") + ",\n    "
        yield from rows(matrix(cols), "    ")
        head = "\n   ],\n   [\n    "
    yield "[]" if head[0] == "[" else "\n   ]\n  ]"
    yield '\n },\n "comult": '
    yield from rows(triples(H.comult.entries), " ")
    yield (',\n "conductor": ' + text(H.conductor)
           + ',\n "counit": ' + flat(dense(H.counit), " ")
           + ',\n "dim": ' + text(n)
           + ',\n "format_version": ' + text(FORMAT_VERSION)
           + ',\n "label": ' + text(H.label) + ',\n "mult": ')
    yield from rows(triples(H.mult.entries), " ")
    if rmatrix is not None:
        yield ',\n "rmatrix": '
        yield from rows(triples(sorted(rmatrix.items())), " ")
    yield ',\n "unit": ' + flat(dense(H.unit), " ") + "\n}\n"


def dumps(H: FinHopf, rmatrix: dict | None = None) -> str:
    """The .hopf text of H with the R-matrix block `rmatrix`: the bytes
    `export_hopf` writes."""
    return "".join(_pieces(H, rmatrix))


def export_hopf(H: FinHopf, path: str, rmatrix: dict | None = None) -> None:
    """Atomic write: temp file in the target directory, then rename.  The
    temp file is opened as `tempfile.mkstemp` opens one (a random name,
    O_EXCL and O_NOFOLLOW), without importing `tempfile` (and the `random`
    it loads), but with mode 0o666, so the umask sets the written file's
    mode as it does for open(path, "w").  An OSError of the open, write or
    rename names `path`, not the temp file, so its message is deterministic."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f"tmp{os.urandom(8).hex()}.hopf.tmp")
    try:
        fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL
                     | getattr(os, "O_NOFOLLOW", 0), 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(_pieces(H, rmatrix))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is None:  # not raised by the OS: no temp name to hide
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc


def from_obj(obj: dict, conductor: int | None = None) -> tuple[FinHopf, dict | None]:
    """The verified algebra and R-matrix block of a parsed .hopf file.  It
    empties `obj` once they are built, so the parsed file is freed before
    verify_hopf runs even while the caller still holds `obj`."""
    H, rmat = _unverified(obj, conductor)
    obj.clear()
    rep = verify_hopf(H)
    if not rep.ok:
        bad = ", ".join(f"{c.name} at {c.first_failure}" for c in rep.failures)
        raise VerificationFailed(f"imported algebra fails axioms: {bad}")
    return H, rmat


def _unverified(obj: dict, conductor: int | None) -> tuple[FinHopf, dict | None]:
    try:
        ver = obj["format_version"]
        if ver != FORMAT_VERSION:
            raise ParseError(f"unknown format version {ver!r}")
        n, M = obj["dim"], obj["conductor"]
        if type(n) is not int or type(M) is not int:
            raise ParseError("dim and conductor must be integers")
        if n > MAX_DIM:
            raise ParseError(f"dim {n} exceeds {MAX_DIM}")
        # Q(zeta_M) embeds in Q(zeta_conductor) only when M divides it; a
        # file conductor below 1 is refused by the coefficient parser
        if conductor is not None and M > 0 and conductor % M:
            raise BadParameter(f"conductor {conductor} is not a multiple of "
                               f"the file's conductor {M}")

        values: dict = {}

        def num(s):
            if type(s) is not str:
                raise ParseError(
                    f"coefficient of type {type(s).__name__}, expected a string")
            c = values.get(s)
            if c is None:
                c = values[s] = cparse(M, s)
            return c

        def vec(ss):
            if type(ss) is not list:
                raise ParseError(
                    f"vector of type {type(ss).__name__}, expected a list")
            if len(ss) != n:
                raise ParseError(f"vector of length {len(ss)}, expected {n}")
            return tuple(num(s) for s in ss)

        def sparse_vec(ss):
            return dense_to_sparse(vec(ss))

        def index(x):
            if type(x) is not int or not 0 <= x < n:
                raise ParseError(f"index {x!r} is not an integer in 0..{n - 1}")
            return x

        def tens(triples):
            d = {}
            for i, j, k, s in triples:
                i, j, k = index(i), index(j), index(k)
                if (i, j, k) in d:
                    raise ParseError(f"duplicate tensor entry {(i, j, k)}")
                d[(i, j, k)] = num(s)
            return SparseTensor3.from_dict((n, n, n), d)

        claims = obj.get("claims", {})
        if type(claims) is not dict:
            raise ParseError("claims is not an object")

        def matrix(rows, name):
            if len(rows) != n:
                raise ParseError(f"{name} has {len(rows)} rows, expected {n}")
            return sparse_columns([vec(row) for row in rows])

        S = matrix(obj["antipode"], "antipode")
        fixtures = tuple((tuple(key), matrix(rows, "iso fixture"))
                         for key, rows in claims.get("iso_fixtures", []))
        H = FinHopf(
            n, M, tens(obj["mult"]), sparse_vec(obj["unit"]), tens(obj["comult"]),
            sparse_vec(obj["counit"]), S,
            ClaimSet([sparse_vec(g) for g in claims.get("grouplikes", [])],
                     [sparse_vec(c) for c in claims.get("characters", [])]),
            str(obj.get("label", "")), fixtures=lambda: fixtures)
        rmat = None
        if "rmatrix" in obj:
            rmat = {}
            for i, j, s in obj["rmatrix"]:
                rmat[(index(i), index(j))] = num(s)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed .hopf object: {exc}") from exc

    if conductor is not None and conductor != M:
        from .cyclo import embed
        H = embed_hopf(H, conductor)
        if rmat is not None:
            rmat = {k: embed(c, conductor) for k, c in rmat.items()}
    return H, rmat


def _json(text: str):
    import json
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"JSON error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def loads(text: str, conductor: int | None = None) -> tuple[FinHopf, dict | None]:
    return from_obj(_json(text), conductor)


def read_text(path: str) -> str:
    """The text of the UTF-8 file at `path`; ParseError if it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_obj(path: str):
    """The JSON value of a .hopf file, neither checked nor verified: that is
    `from_obj`'s work.  The file text is freed when this returns."""
    return _json(read_text(path))


def import_hopf(path: str, conductor: int | None = None) -> tuple[FinHopf, dict | None]:
    return from_obj(read_obj(path), conductor)
