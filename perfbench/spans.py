"""Span tracing of qhlip's layers from outside the library.

``Tracer.install`` wraps the public functions listed in ``SPANNED`` and
``COUNTED`` and rebinds each wrapped name in every ``qhlip`` module that
imported it (and on the class, for methods), so calls made inside the
library go through the wrapper too.  Nothing in the library is edited.

A span records its name, start, end, parent span and op id.  Spans live in
flat arrays in memory and are written once, at the end of the run.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

#: (module, attribute path, metric name) of every function timed by a span
SPANNED = (
    ("polyalg", "resultant", "polyalg.resultant"),
    ("polyalg", "count_roots_between", "polyalg.count_roots_between"),
    ("polyalg", "BiPoly.eval_float", "polyalg.BiPoly.eval_float"),
    ("realalg", "RealAlg.refine", "realalg.RealAlg.refine"),
    ("realalg", "isolate_real_roots", "realalg.isolate_real_roots"),
    ("realalg", "add", "realalg.add"),
    ("realalg", "mul", "realalg.mul"),
    ("realalg", "eval_alg", "realalg.eval_alg"),
    ("realalg", "compare", "realalg.compare"),
    ("realalg", "sign_at", "realalg.sign_at"),
    ("realalg", "nth_root_pos", "realalg.nth_root_pos"),
    ("lipclass", "classify_pair", "lipclass.classify_pair"),
    ("lipclass", "critical_data", "lipclass.critical_data"),
    ("lipclass", "similar", "lipclass.similar"),
    ("qhdecide", "decide", "qhdecide.decide"),
    ("qhdecide", "pairing_search", "qhdecide.pairing_search"),
    ("zygothety", "action_residual", "zygothety.action_residual"),
    ("zygothety", "make_regular", "zygothety.make_regular"),
    ("zygothety", "is_beta_regular", "zygothety.is_beta_regular"),
    ("zygothety", "BranchMap.eval_float", "zygothety.BranchMap.eval_float"),
    ("witness", "InverseBetaTransform.__init__", "witness.InverseBetaTransform.init"),
    ("witness", "verify_conjugacy", "witness.verify_conjugacy"),
    ("witness", "verify_lipschitz", "witness.verify_lipschitz"),
    ("witness", "verify_asymptotic", "witness.verify_asymptotic"),
    ("witness", "asymptotic_shell_decay", "witness.asymptotic_shell_decay"),
    ("parser", "parse_bi", "parser.parse_bi"),
    ("jsonio", "verdict2_json", "jsonio.verdict2_json"),
    ("jsonio", "report_json", "jsonio.report_json"),
    ("cli", "main", "cli.main"),
)

#: functions called millions of times per run: a span each would swamp the
#: run, so only their calls are counted
COUNTED = (("polyalg", "UniPoly.eval_float", "polyalg.UniPoly.eval_float"),)

#: name of the span the harness opens around each op
OP = "op"

#: the function whose results are tallied by verdict kind
VERDICT_SOURCE = "qhdecide.decide"


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans in flat arrays; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.name_ids = {OP: 0}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.counts: dict[str, int] = {}
        self.verdicts: dict[str, int] = {"equivalent": 0, "not_equivalent": 0, "unknown": 0}
        self._stack = [-1]
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self._op)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.span_start[idx] = start
        self.span_end[idx] = end

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op number op_id, inside an op span."""
        self._op = op_id
        idx = self._open(0)
        clock = time.perf_counter
        start = clock()
        try:
            return fn(*args)
        finally:
            self._close(idx, start, clock())
            self._op = -1

    def span(self, name: str, fn):
        name_id = self._name_id(name)
        opened, closed, clock = self._open, self._close, time.perf_counter

        def traced(*args, **kwargs):
            idx = opened(name_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx, start, clock())

        if name != VERDICT_SOURCE:
            return traced
        verdicts = self.verdicts

        def traced_decide(*args, **kwargs):
            verdict = traced(*args, **kwargs)
            verdicts[verdict.kind] += 1
            return verdict

        return traced_decide

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every listed function and rebind it wherever qhlip bound it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "qhlip" or n.startswith("qhlip.")]
        for table, make in ((SPANNED, self.span), (COUNTED, self.counter)):
            for module_name, path, metric in table:
                owner, attr = _resolve(sys.modules[f"qhlip.{module_name}"], path)
                original = owner.__dict__[attr]
                wrapper = make(metric, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total_s and self_s over spans inside ops."""
        n = len(self.span_name)
        self_s = array("d", bytes(8 * n))
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            self_s[i] += dur
            parent = self.span_parent[i]
            if parent >= 0:
                self_s[parent] -= dur
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            if self.span_op[i] < 0:
                continue  # work done by the harness between ops
            entry = stats[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["total_s"] += self.span_end[i] - self.span_start[i]
            entry["self_s"] += self_s[i]
        for name, calls in self.counts.items():
            stats[name] = {"calls": calls}
        return stats

    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header line, then the raw arrays in order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [
                ["name", "H"], ["start", "d"], ["end", "d"], ["parent", "l"], ["op", "l"]
            ],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op):
                arr.tofile(out)
