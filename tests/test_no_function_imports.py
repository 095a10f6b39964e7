"""The library imports at module level only, never inside a function, and
no module imports another one's private names.

An import inside a function hides a dependency from the reader of the
module's header, and is how an import cycle between two modules gets
papered over instead of removed.  An underscore name imported across
modules ties the importer to the other module's internals: for example,
to the coefficient format inside polyalg.
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


def private_imports(source: str) -> list[str]:
    """module.name for each underscore name imported from a qhlip module."""
    return sorted(
        f"{node.module or ''}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "qhlip")
        for alias in node.names
        if alias.name.startswith("_")
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


def test_no_private_name_imported_across_modules():
    found = {p.name: private_imports(p.read_text()) for p in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_guard_sees_each_form():
    assert private_imports("from .polyalg import UniPoly, _zx") == ["polyalg._zx"]
    assert private_imports("def f():\n    from .polyalg import _prem as prem") == ["polyalg._prem"]
    assert private_imports("from qhlip.realalg import _count_pair") == ["qhlip.realalg._count_pair"]
    assert private_imports("from . import _cache") == ["._cache"]
    assert private_imports("from math import gcd as _int_gcd\nfrom .polyalg import sign") == []
    assert private_imports("from __future__ import annotations\nfrom os import _exit") == []
