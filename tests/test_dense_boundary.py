"""Dense vectors live only at the boundary: the four dense-boundary helpers
`sparse_to_dense`, `dense_to_sparse`, `sparse_columns` and `dense_rows` are
named only by their definitions, the `.hopf` reader and writer, and the
command line."""

import pathlib
import re

import hopfkit

# module -> predicate on the stripped line; the modules not listed may not
# name any of the helpers at all
ALLOWED = {
    # the definitions
    "linalg.py": lambda line: line.startswith("def "),
    # the .hopf reader and writer
    "hopffile.py": lambda line: True,
    # random trace-formula maps, generator files and printed ribbon elements
    "cli.py": lambda line: True,
}


def test_dense_conversions_stay_at_the_boundary():
    src = pathlib.Path(hopfkit.__file__).parent
    files = sorted(src.glob("*.py"))
    assert len(files) >= 12
    named, offenders = 0, []
    for path in files:
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(r"\b(sparse_to_dense|dense_to_sparse|sparse_columns|dense_rows)\b",
                         line):
                named += 1
                allowed = ALLOWED.get(path.name)
                if allowed is None or not allowed(line.strip()):
                    offenders.append(f"{path.name}:{k}: {line.strip()}")
    assert offenders == []
    assert named <= 14
