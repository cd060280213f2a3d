"""Mutated `.hopf` files never crash `hopfkit import`.

Each example starts from taft's JSON and applies a few mutations: a key is
dropped, a list is truncated, or a value is replaced by one of another type,
including out-of-range and non-integer indices.  The CLI contract must hold:
exit code 0, 1 or 2, no exception escapes, and exit code 1 comes with a
`fails axioms: <name> at <index>` line.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopfkit.cli import main
from hopfkit.constructors import standard_constructors
from hopfkit.hopffile import dumps

TAFT = json.loads(dumps(standard_constructors("taft", 3, 1)))
AXIOM_LINE = re.compile(r"fails axioms: \w+ at \(")

VALUES = st.one_of(
    st.none(), st.booleans(),
    st.integers(-3, 12), st.sampled_from([2 ** 31, 10 ** 6]),
    st.floats(-2, 12, allow_nan=False), st.just(1.0),
    st.sampled_from(["0", "1", "-1", "1*z^3", "2/3*z", "z", "1*z^99", "",
                     "1/0", "abc", "100000000"]),
    st.just([]), st.just({}), st.just([0, 1]), st.just({"a": 1}))


def paths(obj, prefix=()):
    """Every position in the JSON tree, the root included."""
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from paths(v, prefix + (i,))


@st.composite
def mutated_taft(draw):
    obj = copy.deepcopy(TAFT)
    for _ in range(draw(st.integers(1, 3))):
        # a top-level key as often as any position below one
        where = draw(st.one_of(st.sampled_from([(k,) for k in obj]),
                               st.sampled_from(list(paths(obj))[1:])))
        parent = obj
        for k in where[:-1]:
            parent = parent[k]
        key = where[-1]
        op = draw(st.sampled_from(("drop", "truncate", "replace")))
        if op == "drop":
            del parent[key]
        elif op == "truncate" and isinstance(parent[key], list):
            del parent[key][draw(st.integers(0, len(parent[key]))):]
        else:
            parent[key] = copy.deepcopy(draw(VALUES))
    return obj


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_taft())
def test_mutated_taft_import_keeps_the_exit_code_contract(obj):
    fd, path = tempfile.mkstemp(suffix=".hopf")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["import", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2)
    if code == 1:
        assert AXIOM_LINE.search(err.getvalue()), err.getvalue()
