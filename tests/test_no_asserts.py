"""The library states its invariants as raised exceptions, never as assert.

``python -O`` strips ``assert`` statements, and an AssertionError reads as a
failed test rather than an internal bug; the library raises ArithmeticError
("...; internal bug") instead.
"""

import ast
from pathlib import Path

import qhlip

SOURCES = sorted(Path(qhlip.__file__).resolve().parent.glob("*.py"))


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def offences(source: str) -> list[int]:
    """Line numbers of assert statements and raised AssertionErrors."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node))
    ]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"polyalg.py", "realalg.py", "qhdecide.py", "cli.py"}


def test_no_assert_in_library():
    found = {p.name: offences(p.read_text()) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_sees_each_form():
    assert offences("assert x") == [1]
    assert offences("def f():\n    raise AssertionError('no')") == [2]
    assert offences("raise AssertionError") == [1]
    assert offences("raise ArithmeticError('x; internal bug')\nraise") == []
