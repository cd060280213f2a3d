"""Dense vectors live only at the boundary: `sparse_to_dense` and
`dense_to_sparse` are named only where data arrives or leaves in dense form."""

import pathlib
import re

import hopfkit

# module -> predicate on the stripped line; the modules not listed may not
# name either function at all
ALLOWED = {
    # the definitions
    "linalg.py": lambda line: line.startswith("def "),
    # the .hopf reader and writer
    "hopffile.py": lambda line: True,
    # generator files and printed ribbon elements
    "cli.py": lambda line: True,
    # dense constructor input: group characters and CrossedProductData
    "constructors.py": lambda line: (line.startswith("from .linalg import")
                                     or "G.characters(M)" in line
                                     or "sigma.items()" in line
                                     or "self.A_unit" in line),
    # the characters that solve_characters returns
    "presentations.py": lambda line: (line.startswith("from .linalg import")
                                      or "solve_characters(spec)" in line),
}


def test_dense_conversions_stay_at_the_boundary():
    src = pathlib.Path(hopfkit.__file__).parent
    files = sorted(src.glob("*.py"))
    assert len(files) >= 12
    named, offenders = 0, []
    for path in files:
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(r"\b(sparse_to_dense|dense_to_sparse)\b", line):
                named += 1
                allowed = ALLOWED.get(path.name)
                if allowed is None or not allowed(line.strip()):
                    offenders.append(f"{path.name}:{k}: {line.strip()}")
    assert offenders == []
    assert named <= 16
