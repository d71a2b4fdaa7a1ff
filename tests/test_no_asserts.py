"""No assert statement in the package: python -O strips them, so every
invariant the package relies on is a typed error instead."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nto1"


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/nto1: {', '.join(found)}"
