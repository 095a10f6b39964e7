"""Alternating benchmark runs of two checkouts, as evidence for a speed claim.

Runs ``perfbench/run.py`` of a parent checkout and of a changed checkout in
turns, one workload at one seed, each run from its own directory in a fresh
process.  The side that goes first alternates from pair to pair, so a slow
spell of a shared machine falls on both sides alike.  Prints, for each
end-to-end metric of ``BENCHMARK.json``, both medians, the parent's
interquartile distance, the relative change of the medians and the number of
pairs the change won; then the output digests of both sides and the failed
op counts.  With ``--out`` it adds the runs and the summary to a JSON file
under the key ``workload@seed``, keeping the other keys there:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload hpscan --seed 20240904 --pairs 10 --out BENCH_x.json

The script prints and never fails on a figure; it exits nonzero only when a
run itself fails or prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The last line of one --trace 0 run, with the digest its report printed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(failed=result["failed"], attempted=result["attempted"], correct=result["correct"], digest=digest)
    return row


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: both medians and quartiles, the relative change of the
    medians, the parent's interquartile distance over its median, and the
    pairs the change won (higher or lower, as the metric is better)."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        pm, cm = statistics.median(parent), statistics.median(change)
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        out[name] = {
            "parent_median": pm,
            "parent_quartiles": list(pq),
            "change_median": cm,
            "change_quartiles": list(cq),
            "rel_change": (cm - pm) / pm if pm else None,
            "parent_iqr": pq[1] - pq[0],
            "parent_iqr_over_median": (pq[1] - pq[0]) / pm if pm else None,
            "change_wins": wins,
            "pairs": len(parent),
        }
    out["failed"] = {side: sum(r["failed"] for r in rows) for side, rows in runs.items()}
    out["digests"] = {side: sorted({r["digest"] for r in rows}) for side, rows in runs.items()}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20240904)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", type=Path, help="JSON file to add the runs and summary to")
    args = ap.parse_args(argv)

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            row = run_once(sides[side], args.workload, args.seed, args.seconds)
            runs[side].append({**row, "pair": pair + 1, "first": order[0]})
        print(f"pair {pair + 1}: " + "  ".join(
            f"{side} {runs[side][-1]['ops_per_s']:.1f}" for side in order) + " ops/s", flush=True)

    summary = summarize(runs, metrics)
    print(f"{args.workload} seed {args.seed}, {args.pairs} alternating pairs")
    for metric in metrics:
        s = summary[metric["name"]]
        rel = "n/a" if s["rel_change"] is None else f"{s['rel_change']:+.1%}"
        print(f"  {metric['name']:<12} parent {s['parent_median']:.5g} (IQR {s['parent_iqr']:.3g})"
              f"  change {s['change_median']:.5g}  {rel}  change won {s['change_wins']} of {s['pairs']}")
    print(f"  failed: parent {summary['failed']['parent']}, change {summary['failed']['change']}")
    same = summary["digests"]["parent"] == summary["digests"]["change"] and len(summary["digests"]["parent"]) == 1
    print(f"  digest: {'same on both sides' if same else 'DIFFERS'} {summary['digests']}")

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = f"{args.workload}@{args.seed}"
        doc.setdefault("runs", {})[key] = runs
        doc.setdefault("summary", {})[key] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
