"""No assert statement in the package: python -O strips them, so every
invariant the package relies on is a typed error instead.  The package
stays within its line budget, and holds one lock, fields._MEMO_LOCK."""

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


def test_the_only_lock_is_the_construction_memos():
    """Every threading.Lock/RLock call in src/nto1 is the value of the
    module-level fields._MEMO_LOCK assignment, and there is exactly one."""
    calls, memo_lock = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in ("Lock", "RLock"):
                    calls.append((path.name, node.lineno))
        if path.name == "fields.py":
            memo_lock += [(path.name, node.value.lineno) for node in tree.body
                          if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                          and [ast.unparse(t) for t in node.targets] == ["_MEMO_LOCK"]]
    assert len(memo_lock) == 1 and calls == memo_lock, f"locks in src/nto1: {calls}"
