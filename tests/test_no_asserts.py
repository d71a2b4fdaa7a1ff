"""No assert statement in the package: python -O strips them, so every
invariant the package relies on is a typed error instead.  And the
package stays within its line budget."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nto1"
LINE_BUDGET = 4096  # src/nto1/*.py, counted as wc -l counts: newline bytes


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/nto1: {', '.join(found)}"


def test_package_stays_within_its_line_budget():
    counts = sorted(((path.read_bytes().count(b"\n"), path.name) for path in SRC.glob("*.py")),
                    reverse=True)
    lines = sum(n for n, _ in counts)
    assert lines <= LINE_BUDGET, (f"src/nto1 has {lines} lines, over the budget of {LINE_BUDGET}: "
                                  + ", ".join(f"{name} {n}" for n, name in counts))
