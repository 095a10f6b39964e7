"""qhlip benchmark: one workload, one seed, one command.

Run from the root of the repository:

    python3 perfbench/run.py --workload oracle1d --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each was chosen):

    oracle1d   classify_pair on seeded affine conjugates (criterion 4)
    decide2d   decide on seeded F against F(aX, bY) (criterion 5)
    hpscan     qhlip scan of X^6 - 3 l X^4 Y + Y^3 over a shared pool
    hpwitness  qhlip witness on two members of that family with l < 0
    witness2d  qhlip witness on the decide2d generator's pairs

Every run is a closed loop with one client: one process, one thread, the next
op starts when the previous one returns.  The ops run in fresh child
processes, so the library's caches start cold as they do for every qhlip
invocation.  The number of ops is fixed by the workload and ``--seconds`` so
that a run measures about that long on the reference machine; fixed work
makes output digests, call counts and cache counts repeat exactly per seed.

The same ops run in PASSES fresh processes one after another, and each op's
latency is the fastest of its passes.  Every pass does identical work from
a cold start, so the repeats differ only by what else the machine was doing;
on a shared machine that noise moved a single pass by 10-20% and the median
latency by more.  The passes must also agree on the output digest and on
every cache count, which checks that the program is deterministic.

Every time that enters a metric is scaled to a reference machine speed
(``workload.speed_sample``): the same shared machine ran the same inputs
up to half again slower for minutes at a time, and the raw times moved with
it.  The report prints the raw figures next to the scaled ones.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of one more, traced, pass;
the untraced passes give the tracing overhead and show that tracing changed
neither the outputs nor the cache counts.  Lines before
the last one are a human-readable report: failure fraction with its base,
the tail percentile used, the output digest, the cache census and, when
tracing, every layer's numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_PY = HERE / "workload.py"

#: default seed, and a held-out seed kept for validating performance claims
DEFAULT_SEED = 20240904
HELDOUT_SEED = 20251017

#: ops per second on the reference machine (2-core x86-64, Python 3.11);
#: a run makes round(rate * seconds / PASSES) distinct ops
NOMINAL_RATE = {"oracle1d": 10.0, "decide2d": 19.0, "hpscan": 2.8, "hpwitness": 1.5, "witness2d": 1.1}

#: fresh processes that run the same ops; an op's latency is its fastest
PASSES = 2

#: fresh processes that only import and generate; with the passes they give
#: the set-up times whose fastest is setup_s
SETUP_PROBES = 6

#: candidate tail percentiles, highest first; the first with at least ten
#: samples beyond it is reported
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)

#: wall-clock budget of a whole invocation, below the 180 s limit
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: layers that must record calls on each workload; zero calls means a
#: wrapped name was not rebound somewhere it is used
EXPECTED_LAYERS = {
    "oracle1d": (
        "lipclass.classify_pair", "lipclass.critical_data", "lipclass.similar",
        "polyalg.resultant", "polyalg.count_roots_between", "realalg.mul",
        "realalg.isolate_real_roots", "realalg.eval_alg", "realalg.compare",
        "realalg.sign_at", "realalg.RealAlg.refine",
    ),
    "decide2d": (
        "qhdecide.decide", "qhdecide.pairing_search", "lipclass.classify_pair",
        "lipclass.critical_data", "zygothety.make_regular", "zygothety.is_beta_regular",
        "zygothety.action_residual", "zygothety.BranchMap.eval_float",
        "realalg.nth_root_pos", "realalg.RealAlg.refine", "polyalg.count_roots_between",
        "polyalg.UniPoly.eval_float",
    ),
    "hpscan": (
        "cli.main", "parser.parse_bi", "qhdecide.decide", "qhdecide.pairing_search",
        "lipclass.classify_pair", "lipclass.critical_data", "lipclass.similar",
        "polyalg.resultant", "realalg.mul", "zygothety.action_residual",
    ),
    "hpwitness": (
        "cli.main", "parser.parse_bi", "qhdecide.decide", "jsonio.verdict2_json",
        "jsonio.report_json", "witness.InverseBetaTransform.init",
        "witness.verify_conjugacy", "witness.verify_lipschitz",
        "witness.verify_asymptotic", "witness.asymptotic_shell_decay",
        "polyalg.BiPoly.eval_float", "zygothety.BranchMap.eval_float",
        "polyalg.UniPoly.eval_float",
    ),
    "witness2d": (
        "cli.main", "parser.parse_bi", "qhdecide.decide", "jsonio.verdict2_json",
        "jsonio.report_json", "witness.InverseBetaTransform.init",
        "witness.verify_conjugacy", "witness.verify_lipschitz",
        "witness.verify_asymptotic", "witness.asymptotic_shell_decay",
        "polyalg.BiPoly.eval_float", "zygothety.BranchMap.eval_float",
        "polyalg.UniPoly.eval_float",
    ),
}

#: layers whose inclusive time is reported next to their self time
TOTAL_TIME_LAYERS = ("lipclass.classify_pair", "qhdecide.decide", "cli.main")


class BenchError(Exception):
    pass


def child_env() -> dict:
    """The environment minus QHLIP_PRECISION_BITS, which changes how far
    to_float refines, and PYTHONPATH, which could shadow src/qhlip."""
    return {k: v for k, v in os.environ.items() if k not in ("QHLIP_PRECISION_BITS", "PYTHONPATH")}


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run workload.py in a fresh process; return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("time budget exhausted before a workload pass")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKLOAD_PY), *args],
            env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"workload pass exceeded the time budget: {args}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload pass failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) from TAIL_LADDER, nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10 or p == TAIL_LADDER[-1]:
            return p, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def end_to_end(best: list[float], passes: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics from the per-op fastest scaled latencies and
    the scaled set-up times."""
    p, tail_s, _ = tail(best)
    return {
        "setup_s": min(setups),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1000 * statistics.median(best),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }


def pass_rate(result: dict, key: str = "latencies") -> float:
    return len(result[key]) / sum(result[key])


def per_layer(traced: dict, untraced_rate: float) -> dict[str, tuple[float, str]]:
    """Every per-layer number of a traced pass, as name -> (value, unit).

    Times come in seconds (self_s, total_s) and as shares of the op wall
    time (self_frac, total_frac); the shares cancel the machine's speed
    drift between runs.  The overhead compares the traced pass with an
    untraced pass's rate (the median over passes), not with the
    fastest-of-passes rate."""
    out: dict[str, tuple[float, str]] = {}
    op = traced["layers"]["op"]
    for name, stats in traced["layers"].items():
        if name == "op":
            continue
        out[f"{name}.calls"] = (stats["calls"], "count")
        if "self_s" in stats:
            out[f"{name}.self_s"] = (stats["self_s"], "s")
            out[f"{name}.self_frac"] = (stats["self_s"] / op["total_s"], "ratio")
        if name in TOTAL_TIME_LAYERS:
            out[f"{name}.total_s"] = (stats["total_s"], "s")
            out[f"{name}.total_frac"] = (stats["total_s"] / op["total_s"], "ratio")
    for name, info in traced["census"].items():
        out[f"{name}.hit_ratio"] = (info["hit_ratio"], "ratio")
        out[f"{name}.lookups"] = (info["lookups"], "count")
        out[f"{name}.entries"] = (info["entries"], "count")
    for kind, count in traced["verdicts"].items():
        out[f"qhdecide.verdicts.{kind}"] = (count, "count")
    traced_rate = pass_rate(traced)
    out["trace.ops_per_s"] = (traced_rate, "1/s")
    out["trace.overhead_frac"] = (1 - traced_rate / untraced_rate, "ratio")
    out["trace.covered_frac"] = (1 - op["self_s"] / op["total_s"], "ratio")
    return out


def benchmark_spec(root: Path) -> dict | None:
    path = root / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else None


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    deadline = started + BUDGET_S
    ap = argparse.ArgumentParser(description="qhlip benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_RATE))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qhlip" / "__init__.py").is_file():
        print(f"error: {root} holds no qhlip sources (src/qhlip); run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env()
    ops = max(1, round(NOMINAL_RATE[args.workload] * args.seconds / PASSES))
    base = ["--workload", args.workload, "--seed", str(args.seed), "--ops", str(ops)]
    # no op starts after this many seconds, so a slow pass still ends in time
    pass_deadline = BUDGET_S / (PASSES + args.trace) - 5

    try:
        probes = [run_child(base + ["--setup-only"], env, deadline) for _ in range(SETUP_PROBES)]
        passes = [run_child(base + ["--deadline", str(pass_deadline)], env, deadline)
                  for _ in range(PASSES)]
        probes += passes
        traced = None
        if args.trace:
            spans_out = root / ".perfbench_out" / f"{args.workload}.spans"
            traced = run_child(
                base + ["--trace", "--deadline", str(pass_deadline), "--spans-out", str(spans_out)],
                env, deadline,
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = passes[0]
    problems = [f"pass {i}: {line}" for i, r in enumerate(passes) for line in r["failures"]]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    if any(r["attempted"] < ops for r in passes):
        problems.append(f"a pass started fewer than {ops} ops before its deadline")
    if any(r["digest"] != first["digest"] for r in passes):
        problems.append("passes over the same inputs produced different output digests")
    if any(r["census"] != first["census"] for r in passes):
        problems.append("passes over the same inputs produced different cache counts")
    best = [min(times) for times in zip(*(r["latencies"] for r in passes))]
    if not best:
        print("error: no op completed", file=sys.stderr)
        return 1
    metrics = end_to_end(best, passes, [r["setup_scaled_s"] for r in probes])
    raw_best = [min(times) for times in zip(*(r["raw_latencies"] for r in passes))]
    p, _, beyond = tail(best)
    layers = {}
    if traced is not None:
        layers = per_layer(traced, statistics.median(pass_rate(r) for r in passes))
        if traced["digest"] != first["digest"]:
            problems.append("traced pass produced a different output digest")
        if traced["census"] != first["census"]:
            problems.append("traced pass produced different cache counts")
        for name in EXPECTED_LAYERS[args.workload]:
            if layers[f"{name}.calls"][0] == 0:
                problems.append(f"layer {name} recorded no calls")

    print(f"workload {args.workload} seed {args.seed} ops {ops} x {PASSES} passes "
          f"python {first['python']} QHLIP_PRECISION_BITS unset")
    print("times scaled to the reference speed; raw in brackets")
    print(f"setup_s {metrics['setup_s']:.4f} s [{min(r['setup_s'] for r in probes):.4f}] "
          f"(fastest of {len(probes)} fresh processes)")
    print(f"ops_per_s {metrics['ops_per_s']:.3f} 1/s [{len(raw_best) / sum(raw_best):.3f}] "
          f"({len(best)} ops in {sum(best):.2f} s, fastest of {PASSES} passes; single passes "
          + ", ".join(f"{pass_rate(r):.3f} [{pass_rate(r, 'raw_latencies'):.3f}]" for r in passes)
          + f"; {sum(r['speed_samples'] for r in passes)} speed samples)")
    print(f"op_p50_ms {metrics['op_p50_ms']:.3f} ms [{1000 * statistics.median(raw_best):.3f}]")
    print(f"op_tail_ms {metrics['op_tail_ms']:.3f} ms [{1000 * tail(raw_best)[1]:.3f}] "
          f"(p{p:g}; {beyond} of {len(best)} samples beyond)")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} op executions)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    print(f"digest sha256:{first['digest']}")
    for name, info in first["census"].items():
        print(f"cache {name} hit_ratio {info['hit_ratio']:.4f} of {info['lookups']} lookups, "
              f"{info['entries']} entries")
    for name, (value, unit) in sorted(layers.items()):
        print(f"layer {name} {value:.6g} {unit}")
    if layers:
        print(f"trace overhead {layers['trace.overhead_frac'][0]:.1%} of untraced ops_per_s; "
              f"layers cover {layers['trace.covered_frac'][0]:.2%} of op wall time; "
              f"spans written to .perfbench_out/{args.workload}.spans")
    for line in problems:
        print(f"failure {line}")

    # the last line carries the metrics BENCHMARK.json gates, in its order
    measured = ({k: (v, END_TO_END[k]) for k, v in metrics.items()} if traced is None else layers)
    spec = benchmark_spec(root)
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]] if spec else sorted(measured)
    missing = [name for name in names if name not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    reported = {name: {"value": measured[name][0], "unit": measured[name][1]} for name in names}

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
