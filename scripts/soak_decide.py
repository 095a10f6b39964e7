"""Memory and time of many decisions in one process.

Decides seeded pairs of quasihomogeneous polynomials of one family, drawn
by the test suite's ``rand_qhpoly``, half of them planted as F against
F(aX, bY) and half drawn independently, each pair once, and prints the wall
time, the peak resident set after each quarter of the loop, and the size
of each functools cache that qhlip's modules define, found by walking them
(``helpers.library_caches``).  A cache that grows without bound shows as
growth in every quarter; bounded caches stop growing once they are full.

    PYTHONPATH=src:tests python3 scripts/soak_decide.py --decisions 2000 --seed 1

The script prints and never fails on a figure: the peak resident set is
read from ``resource.getrusage``, in KiB on Linux.
"""

from __future__ import annotations

import argparse
import random
import resource
import time
from fractions import Fraction

from helpers import library_caches, rand_qhpoly
from qhlip.qhdecide import decide, validate_qh


def pairs(rng: random.Random):
    """Endless pairs of one family, planted or independent."""
    while True:
        F = rand_qhpoly(rng)
        if rng.random() < 0.5:
            a = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            b = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            yield F, validate_qh(F.poly.scale_vars(a, b), F.r, F.s)
        else:
            while (G := rand_qhpoly(rng, betas=((F.r, F.s),))).d != F.d:
                pass
            yield F, G


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--decisions", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    source, seen = pairs(random.Random(args.seed)), set()
    quarters = {round(args.decisions * k / 4) for k in range(1, 5)}
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    start = time.perf_counter()
    while len(seen) < args.decisions:
        F, G = next(source)
        key = hash((F.poly, G.poly))  # not the pair itself, whose memory would show
        if key not in seen:
            seen.add(key)
            decide(F, G)
            if len(seen) in quarters:
                peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    wall = time.perf_counter() - start
    print(f"{len(seen)} decisions in {wall:.2f} s ({len(seen) / wall:.0f}/s)")
    print("peak RSS at 0, 1/4, 1/2, 3/4 and all of them:", " ".join(f"{kib / 1024:.1f}" for kib in peaks), "MiB")
    print(f"growth {(peaks[-1] - peaks[0]) / 1024:.1f} MiB over the loop")
    for name, cache in library_caches().items():
        info = cache.cache_info()
        print(f"{name}: {info.currsize} of {info.maxsize} entries, {info.hits} hits, {info.misses} misses")


if __name__ == "__main__":
    main()
