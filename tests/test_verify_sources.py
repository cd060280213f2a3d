"""`verify_hopf` runs only where an algebra enters the program.

The four sources are a presentation, a group algebra, the Drinfeld double
and a .hopf file.  Every other algebra is derived from verified ones by
`dual`, `op_cop`, `tensor` or `quotient_by_hopf_ideal`, whose docstrings
carry the certificate that replaces a second check (tests/test_build_once.py
checks those certificates against verify_hopf)."""

import ast
import pathlib

import hopfkit

SOURCES = {("presentations.py", "build_from_presentation"),
           ("constructors.py", "group_algebra"),
           ("constructors.py", "drinfeld_double"),
           ("hopffile.py", "from_obj")}


def _references(tree):
    """(enclosing top-level function, line, is a call) of every reference to
    verify_hopf in code; its definition, imports and docstrings are not
    references."""
    for top in tree.body:
        calls = {id(node.func) for node in ast.walk(top)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == "verify_hopf"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "verify_hopf"):
                yield getattr(top, "name", None), node.lineno, id(node) in calls


def test_verify_hopf_is_called_only_at_the_sources():
    src = pathlib.Path(hopfkit.__file__).parent
    files = sorted(src.glob("*.py"))
    assert len(files) >= 12
    found, offenders = set(), []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            # no second name under which a call would escape the count
            if isinstance(node, ast.alias) and node.name == "verify_hopf":
                assert node.asname is None, path.name
        for func, line, is_call in _references(tree):
            if is_call and (path.name, func) in SOURCES:
                found.add((path.name, func))
            else:
                offenders.append(f"{path.name}:{line} in {func}")
    assert offenders == []
    assert found == SOURCES
