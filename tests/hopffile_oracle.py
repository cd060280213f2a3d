"""The .hopf file's JSON value, built whole, for tests.

`to_obj` is the nested-list object that `hopfkit.hopffile` built before its
writer streamed the file section by section, kept in substance as the
oracle: `json_dumps(H)` is the text the writer must emit byte for byte.
"""

import json

from hopfkit.cyclo import CycloNum, render
from hopfkit.hopffile import FORMAT_VERSION


def to_obj(H, rmatrix=None):
    n = H.dim
    zero = render(CycloNum.zero(H.conductor))

    def triples(t):
        return [[i, j, k, render(c)] for (i, j, k), c in t.entries]

    def vector(v):
        row = [zero] * n
        for i, c in v.items():
            row[i] = render(c)
        return row

    def matrix(cols):
        rows = [[zero] * n for _ in range(n)]
        for j, col in enumerate(cols):
            for i, c in col.items():
                rows[i][j] = render(c)
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
        obj["rmatrix"] = [[i, j, render(c)]
                          for (i, j), c in sorted(rmatrix.items())]
    return obj


def json_dumps(H, rmatrix=None):
    """The .hopf text as the standard (pure-Python, indenting) encoder
    writes it: the reference for `hopffile.dumps` and `export_hopf`."""
    return json.dumps(to_obj(H, rmatrix), indent=1, sort_keys=True) + "\n"
