"""The library imports at module level only, never inside a function.

An import inside a function hides a dependency from the reader of the
module's header, and is how an import cycle between two modules gets
papered over instead of removed.
"""

import ast
from pathlib import Path

import qhlip

SOURCES = sorted(Path(qhlip.__file__).resolve().parent.glob("*.py"))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def offences(source: str) -> list[int]:
    """Line numbers of import statements inside a function body."""
    return sorted(
        {
            node.lineno
            for func in ast.walk(ast.parse(source))
            if isinstance(func, _FUNCTIONS)
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"zygothety.py", "witness.py", "qhdecide.py", "cli.py"}


def test_no_import_inside_a_function():
    found = {p.name: offences(p.read_text()) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_sees_each_form():
    assert offences("def f():\n    import math") == [2]
    assert offences("def f():\n    from .qhdecide import heights") == [2]
    assert offences("class C:\n    def m(self):\n        if x:\n            import os") == [4]
    assert offences("def f():\n    def g():\n        import os") == [3]
    assert offences("import math\nfrom . import polyalg\nclass C:\n    x = 1") == []
