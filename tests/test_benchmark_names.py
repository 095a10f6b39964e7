"""The benchmark reaches into qhlip by name: perfbench/spans.py wraps the
functions listed in SPANNED and COUNTED, and perfbench/workload.py reads the
lru_caches listed in CACHES.  A rename or deletion in the library must fail
here rather than in a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    raise ValueError(f"not a dotted name: {ast.dump(node)}")


def _cache_entries() -> list[tuple[str, str]]:
    """(metric name, dotted path) of every CACHES entry, read without
    importing workload.py."""
    tree = ast.parse((PERFBENCH / "workload.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CACHES" for t in node.targets):
            return [(k.value, _dotted(v)) for k, v in zip(node.value.keys, node.value.values)]
    raise LookupError("no CACHES table in workload.py")


spans = _load_spans()


@pytest.mark.parametrize("module_name, path, metric", spans.SPANNED + spans.COUNTED, ids=lambda x: x)
def test_wrapped_name_resolves(module_name, path, metric):
    # as Tracer.install does: the attribute must live on its owner itself
    owner, attr = spans._resolve(importlib.import_module(f"qhlip.{module_name}"), path)
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize("metric, dotted", _cache_entries())
def test_census_cache_is_an_lru_cache(metric, dotted):
    module_name, _, attr = dotted.rpartition(".")
    assert module_name.startswith("qhlip.")
    fn = getattr(importlib.import_module(module_name), attr)
    assert callable(getattr(fn, "cache_info", None)) and hasattr(fn, "cache_clear")
