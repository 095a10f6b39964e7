"""The benchmark reaches into qhlip by name: perfbench/spans.py wraps the
functions listed in SPANNED and COUNTED, and perfbench/workload.py reads the
lru_caches listed in CACHES.  A rename or deletion in the library must fail
here rather than in a benchmark run, and so must a change that stops calling
a layer perfbench/run.py expects a traced workload to reach."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def _table(filename: str, name: str) -> ast.expr:
    """The expression assigned to `name` at the top level of a perfbench
    file, read without importing the file."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise LookupError(f"no {name} table in {filename}")


def _cache_entries() -> list[tuple[str, str]]:
    """(metric name, dotted path) of every CACHES entry."""
    table = _table("workload.py", "CACHES")
    return [(k.value, _dotted(v)) for k, v in zip(table.keys, table.values)]


#: ops of one traced pass per gated workload at seed 1; each count reaches
#: every layer in run.py's EXPECTED_LAYERS (the generated cases depend on the
#: count, so a nearby count may miss one, as 5 ops of oracle1d and 6 ops of
#: decide2d miss refine)
TRACE_OPS = {"oracle1d": 8, "decide2d": 7, "hpscan": 1, "hpwitness": 1}


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


@pytest.mark.parametrize("workload, ops", TRACE_OPS.items())
def test_traced_workload_reaches_every_expected_layer(workload, ops):
    # as run.py's child processes: no PYTHONPATH to shadow src/qhlip
    env = {k: v for k, v in os.environ.items() if k not in ("QHLIP_PRECISION_BITS", "PYTHONPATH")}
    argv = ["--workload", workload, "--seed", "1", "--ops", str(ops), "--trace"]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "workload.py"), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    expected = ast.literal_eval(_table("run.py", "EXPECTED_LAYERS"))[workload]
    silent = [name for name in expected if result["layers"].get(name, {"calls": 0})["calls"] == 0]
    assert not silent, f"layers that recorded no calls: {silent}"
