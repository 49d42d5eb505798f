"""Rules the library source keeps."""

import ast
from pathlib import Path

import dacscanon

SRC = Path(dacscanon.__file__).resolve().parent


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so a check written as one would
    # silently stop running; proof obligations raise InternalInvariantViolation
    offenders = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), "no library source found"
    assert not offenders, "assert statements in the library: %s" % offenders
