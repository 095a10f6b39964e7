"""One measured pass of one workload, in a fresh process.

Usage (from the root of the repository; ``run.py`` does this for you):

    python3 perfbench/workload.py --workload oracle1d --seed 1 --ops 350 [--trace] [--setup-only]

Imports qhlip, generates the inputs from the seed, then runs the ops back to
back in one thread (a closed loop with one client).  Each op is timed on its
own; the output check and the digest rendering happen between ops, outside
the timed region.  Prints one JSON object as its last line of output.

The machine's speed is sampled with a fixed exact-arithmetic kernel (see
``speed_sample``) after set-up and after every SAMPLE_EVERY_S seconds of
ops, and every time is also reported scaled to the kernel's reference
speed, so that a machine that runs faster or slower for a while moves the
scaled times much less than the raw ones.

A fresh process matters: the library's caches are module-global and
unbounded, so a second pass in the same process would measure a warm cache.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# Setup time starts before qhlip is imported.
_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import qhlip  # noqa: E402
import qhlip.cli  # noqa: E402
import qhlip.jsonio  # noqa: E402
import qhlip.parser  # noqa: E402
from qhlip.lipclass import Orientation  # noqa: E402

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

#: the lru_caches read by the census, captured before any wrapping
CACHES = {
    "polyalg.sturm_sequence": qhlip.polyalg.sturm_sequence,
    "realalg._count_pair": qhlip.realalg._count_pair,
    "realalg._sum_defpoly": qhlip.realalg._sum_defpoly,
    "realalg._product_defpoly": qhlip.realalg._product_defpoly,
    "realalg._eval_defpoly": qhlip.realalg._eval_defpoly,
    "lipclass.critical_data": qhlip.lipclass.critical_data,
    "qhdecide._heights_cached": qhlip.qhdecide._heights_cached,
}


#: seconds of ops between two speed samples
SAMPLE_EVERY_S = 0.25

#: seconds the kernel takes on the reference machine (2-core x86-64, Python
#: 3.11.7); a time t measured while the kernel takes k seconds is reported
#: as t * KERNEL_REF_S / k
KERNEL_REF_S = 0.0008


def _kernel() -> int:
    """Fixed exact-arithmetic work of the kinds qhlip does (rational
    elimination, big-integer products and divisions, tuple-keyed dicts);
    about 0.8 ms on the reference machine.  Uses nothing from qhlip."""
    n = 7
    m = [[Fraction(1, i + j + 1) + (3 * i + j) % 5 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    x = 3**160
    acc = 0
    for i in range(200):
        acc += x * (i + 1) // (i + 7) % 1000003
    d: dict = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i
    return acc + len(d) + m[n - 1][n - 1].denominator


def speed_sample() -> float:
    """Seconds the kernel takes now, the fastest of five runs.  The cyclic
    garbage collector is off meanwhile: its cost grows with what qhlip has
    cached, which would make the machine look slower as the caches fill."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def scaled(latencies: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """Each latency scaled to the reference speed by the mean of the speed
    samples taken just before and just after its op.  ``marks`` holds
    (index of the next op, sample), in order, first at 0 and last at the end."""
    out = []
    for (start, before), (end, after) in zip(marks, marks[1:]):
        factor = 2 * KERNEL_REF_S / (before + after)
        out += [t * factor for t in latencies[start:end]]
    return out


def _cli(argv: list[str]) -> tuple[int, str]:
    """qhlip.cli.main with stdout captured, looked up at call time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qhlip.cli.main(argv)
    return code, out.getvalue()


def _dump(obj) -> bytes:
    return json.dumps(obj, indent=2).encode()


# Each workload: cases(rng, n) -> inputs; op(case) -> result (the timed call);
# check(case, result) -> (output bytes for the digest, problem or None).


class Oracle1D:
    """classify_pair on affine conjugates g(u) = c f((u - b) / a)."""

    @staticmethod
    def cases(rng, n):
        return gen.oracle1d_cases(rng, n)

    @staticmethod
    def op(case):
        f, g, _, _ = case
        return qhlip.lipclass.classify_pair(f, g)

    @staticmethod
    def check(case, v):
        _, _, a, c = case
        out = _dump(qhlip.jsonio.verdict1_json(v))
        if not v.equivalent:
            return out, "not Equivalent"
        want = Orientation.INCREASING if a > 0 else Orientation.DECREASING
        matching = [p for p in v.pairings if p.orientation is want]
        if not matching:
            return out, f"planted orientation {want.value} missing"
        for p in matching:
            if p.c_set.is_unique and not _is_rational_value(p.c_set.c, c):
                return out, f"c differs from the planted {c}"
        return out, None


def _is_rational_value(x, c: Fraction) -> bool:
    """x is the rational c: c is a root of x's defining polynomial inside its
    isolating interval (exact, and independent of qhlip's comparison code)."""
    if x.lo == x.hi:
        return x.lo == c
    return x.lo < c < x.hi and sum(k * c**i for i, k in enumerate(x.defpoly.coeffs)) == 0


class Decide2D:
    """decide on quasihomogeneous F against G = F(aX, bY)."""

    @staticmethod
    def cases(rng, n):
        return gen.decide2d_cases(rng, n)

    @staticmethod
    def op(case):
        return qhlip.qhdecide.decide(*case)

    @staticmethod
    def check(case, v):
        out = _dump(qhlip.jsonio.verdict2_json(v))
        if v.kind == "not_equivalent":
            return out, "NotEquivalent for a planted equivalent pair"
        if v.kind == "equivalent" and v.certificate is None:
            return out, "Equivalent without a certificate"
        return out, None


class Witness2D:
    """qhlip witness F G --beta r/s on the decide2d generator's pairs."""

    @staticmethod
    def cases(rng, n):
        return [gen.witness2d_case(rng) for _ in range(n)]

    @staticmethod
    def op(case):
        F, G, beta = case
        return _cli(["witness", F, G, "--beta", beta])

    @staticmethod
    def check(case, result):
        code, stdout = result
        if code != 0:
            return stdout.encode(), f"exit code {code}"
        if not json.loads(stdout)["report"]["conjugacy_pass"]:
            return stdout.encode(), "conjugacy check failed"
        return stdout.encode(), None


class HPScan:
    """qhlip scan of the family X^6 - 3 l X^4 Y + Y^3 over pool subsets."""

    @staticmethod
    def cases(rng, n):
        return [gen.hpscan_case(rng) for _ in range(n)]

    @staticmethod
    def op(values):
        listed = ",".join(str(v) for v in values)
        return _cli(["scan", gen.HP_FAMILY, "--param", "l", f"--values={listed}", "--beta", "2/1"])

    @staticmethod
    def check(values, result):
        code, stdout = result
        if code != 0:
            return stdout.encode(), f"exit code {code}"
        got = {frozenset(c) for c in json.loads(stdout)["partition"]}
        # the paper's result: negative parameters form one class, and every
        # positive parameter is alone in its class
        want = {frozenset(i for i, v in enumerate(values) if v < 0)}
        want |= {frozenset([i]) for i, v in enumerate(values) if v > 0}
        return stdout.encode(), None if got == want else f"partition {sorted(map(sorted, got))}"


class HPWitness:
    """qhlip witness F G --beta 2/1 on two members of the family
    X^6 - 3 l X^4 Y + Y^3 with negative parameters."""

    @staticmethod
    def cases(rng, n):
        return [gen.hpwitness_case(rng) for _ in range(n)]

    @staticmethod
    def op(case):
        F, G = case
        return _cli(["witness", F, G, "--beta", "2/1"])

    check = Witness2D.check


WORKLOADS = {
    "oracle1d": Oracle1D,
    "decide2d": Decide2D,
    "witness2d": Witness2D,
    "hpscan": HPScan,
    "hpwitness": HPWitness,
}


def census() -> dict:
    out = {}
    for name, fn in CACHES.items():
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[name] = {
            "hits": info.hits,
            "lookups": lookups,
            "hit_ratio": info.hits / lookups if lookups else 0.0,
            "entries": info.currsize,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--trace", action="store_true", help="record spans of every layer")
    ap.add_argument("--setup-only", action="store_true", help="stop after generating inputs")
    ap.add_argument("--deadline", type=float, default=150.0, help="seconds after which no op starts")
    ap.add_argument("--spans-out", type=Path, help="write the recorded spans here")
    args = ap.parse_args(argv)

    if not Path(qhlip.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qhlip was imported from {qhlip.__file__}, not from {SRC}")
    if os.environ.get("QHLIP_PRECISION_BITS") is not None:
        raise SystemExit("QHLIP_PRECISION_BITS must be unset: it changes to_float refinement")

    wl = WORKLOADS[args.workload]
    cases = wl.cases(gen.stream(args.workload, args.seed), args.ops)
    setup_s = time.perf_counter() - _T0
    speed = speed_sample()
    result = {
        "setup_s": setup_s,
        "setup_scaled_s": setup_s * KERNEL_REF_S / speed,
        "python": sys.version.split()[0],
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    digest = hashlib.sha256()
    latencies: list[float] = []
    failures: list[str] = []
    marks = [(0, speed)]
    since_mark = 0.0
    clock = time.perf_counter
    loop_start = clock()
    for i, case in enumerate(cases):
        if clock() - loop_start > args.deadline:
            break
        if since_mark >= SAMPLE_EVERY_S:
            marks.append((i, speed_sample()))
            since_mark = 0.0
        start = clock()
        try:
            res = tracer.run_op(i, wl.op, case) if tracer else wl.op(case)
        except Exception as exc:  # a crash is a failed op, never a verdict
            latencies.append(clock() - start)
            since_mark += latencies[-1]
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            digest.update(f"op {i} raised {type(exc).__name__}\n".encode())
            traceback.print_exc(file=sys.stderr)
            continue
        latencies.append(clock() - start)
        since_mark += latencies[-1]
        try:
            out, problem = wl.check(case, res)
        except (ValueError, KeyError) as exc:  # output that is not the expected JSON
            out, problem = repr(res).encode(), f"unreadable output: {exc!r}"
        digest.update(len(out).to_bytes(8, "big") + out)
        if problem is not None:
            failures.append(f"op {i}: {problem}")

    result.update(
        {
            "attempted": len(latencies),
            "failed": len(failures),
            "failures": failures[:10],
            "raw_latencies": latencies,
            "latencies": scaled(latencies, marks + [(len(latencies), speed_sample())]),
            "speed_samples": len(marks) + 1,
            "digest": digest.hexdigest(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "census": census(),
        }
    )
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        result["verdicts"] = dict(tracer.verdicts)
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
