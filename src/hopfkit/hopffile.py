"""The .hopf file format: UTF-8 JSON text with canonical coefficient
rendering, sorted sparse triples, and whole-file atomic writes.

import(export(H)) reproduces H bit-exactly; import runs verify_hopf before
returning, as a file is one of the sources of an algebra.  A file repeats few
distinct coefficients many times, so an import parses each distinct
coefficient string once and an export renders each distinct value once.
`json` is imported by the reader and the writer, not by this module, so a
process that reads and writes no file does not load it.
"""

from __future__ import annotations

import os
from itertools import chain
from operator import itemgetter

from .cyclo import CycloNum, parse as cparse, render
from .errors import ParseError, VerificationFailed
from .hopf import ClaimSet, FinHopf, embed_hopf, verify_hopf
from .linalg import SparseTensor3, dense_to_sparse, sparse_columns

FORMAT_VERSION = "hopf-v1"
# The file holds the antipode and each fixture as dense n x n matrices.
MAX_DIM = 4096


class _Texts(dict):
    """Canonical text of each field value met, rendered once."""

    def __missing__(self, c):
        s = self[c] = render(c)
        return s


def to_obj(H: FinHopf, rmatrix: dict | None = None) -> dict:
    n = H.dim
    text = _Texts().__getitem__
    zero = text(CycloNum.zero(H.conductor))

    def triples(t: SparseTensor3):
        texts = map(text, map(itemgetter(1), t.entries))
        return [[i, j, k, s] for ((i, j, k), _), s in zip(t.entries, texts)]

    def vector(v):
        row = [zero] * n
        for i, s in zip(v, map(text, v.values())):
            row[i] = s
        return row

    def matrix(cols):
        rows = [[zero] * n for _ in range(n)]
        for j, col in enumerate(cols):
            for i, s in zip(col, map(text, col.values())):
                rows[i][j] = s
        return rows

    obj = {
        "format_version": FORMAT_VERSION,
        "label": H.label,
        "dim": H.dim,
        "conductor": H.conductor,
        "mult": triples(H.mult),
        "unit": vector(H.unit),
        "comult": triples(H.comult),
        "counit": vector(H.counit),
        "antipode": matrix(H.antipode),
        "claims": {
            "grouplikes": [vector(g) for g in H.claims.grouplikes],
            "characters": [vector(c) for c in H.claims.characters],
            "iso_fixtures": [
                [list(key), matrix(cols)] for key, cols in H.iso_fixtures
            ],
        },
    }
    if rmatrix is not None:
        obj["rmatrix"] = [[i, j, text(c)]
                          for (i, j), c in sorted(rmatrix.items())]
    return obj


class _ScalarTexts(dict):
    """JSON text of each str and int met, encoded once (by C functions)."""

    def __init__(self):
        from json.encoder import encode_basestring_ascii
        self.encode_str = encode_basestring_ascii

    def __missing__(self, x):
        t = type(x)
        if t is str:
            s = self.encode_str(x)
        elif t is int:
            s = str(x)
        else:
            raise TypeError(f"{t.__name__} is not a .hopf scalar")
        self[x] = s
        return s


def _json_text(obj) -> str:
    """json.dumps(obj, indent=1, sort_keys=True) for a value built of str,
    int, list and dict with str keys.  The standard encoder runs in pure
    Python once `indent` is set.  Here each scalar is encoded once, and a
    list of scalars, or a table of equal-length lists of scalars (a .hopf
    file is mostly tables: triples, matrices, vectors), is joined by C code
    with no Python call per row or per cell."""
    cell = _ScalarTexts().__getitem__

    def table(rows, pad):
        # rows: equal-length lists of scalars; TypeError if a cell is not one
        inner, cell_pad = pad + " ", pad + "  "
        cells = map(cell, chain.from_iterable(rows))
        row_sep = "\n" + inner + "],\n" + inner + "[\n" + cell_pad
        return (row_sep.join(map((",\n" + cell_pad).join,
                                 zip(*[cells] * len(rows[0]))))
                .join(("[\n" + inner + "[\n" + cell_pad,
                       "\n" + inner + "]\n" + pad + "]")))

    def text(v, pad):
        if type(v) is not list and type(v) is not dict:
            return cell(v)
        if not v:
            return "[]" if type(v) is list else "{}"
        inner = pad + " "
        if type(v) is dict:
            items = [cell(k) + ": " + text(v[k], inner) for k in sorted(v)]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        try:
            items = list(map(cell, v))
        except TypeError:  # v holds a list or a dict
            if (set(map(type, v)) == {list} and len(set(map(len, v))) == 1
                    and v[0]):
                try:
                    return table(v, pad)
                except TypeError:  # a cell is a list or a dict
                    pass
            items = [text(x, inner) for x in v]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"

    return text(obj, "")


def dumps(H: FinHopf, rmatrix: dict | None = None) -> str:
    """The .hopf text of H: the bytes of json.dumps(to_obj(H, rmatrix),
    indent=1, sort_keys=True) + "\\n"."""
    return _json_text(to_obj(H, rmatrix)) + "\n"


def export_hopf(H: FinHopf, path: str, rmatrix: dict | None = None) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    import tempfile  # imported here, so that a process that writes no file skips it
    text = dumps(H, rmatrix)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".hopf.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def from_obj(obj: dict, conductor: int | None = None) -> tuple[FinHopf, dict | None]:
    try:
        ver = obj["format_version"]
        if ver != FORMAT_VERSION:
            raise ParseError(f"unknown format version {ver!r}")
        n, M = obj["dim"], obj["conductor"]
        if type(n) is not int or type(M) is not int:
            raise ParseError("dim and conductor must be integers")
        if n > MAX_DIM:
            raise ParseError(f"dim {n} exceeds {MAX_DIM}")

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
    rep = verify_hopf(H)
    if not rep.ok:
        bad = ", ".join(f"{c.name} at {c.first_failure}" for c in rep.failures)
        raise VerificationFailed(f"imported algebra fails axioms: {bad}")
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


def read_obj(path: str):
    """The JSON value of a .hopf file, neither checked nor verified: that is
    `from_obj`'s work."""
    with open(path, encoding="utf-8") as fh:
        return _json(fh.read())


def import_hopf(path: str, conductor: int | None = None) -> tuple[FinHopf, dict | None]:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), conductor)
