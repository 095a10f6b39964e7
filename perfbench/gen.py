"""Seeded input generators for the benchmark workloads.

These are the benchmark's own copies of the acceptance-criterion generators
(criterion 4: affine conjugates of random univariate polynomials; criterion
5: quasihomogeneous polynomials and their X/Y rescalings), kept here so that
edits to the test suite cannot move a workload.  Every generator draws from
a ``random.Random`` seeded with the workload name and the run seed, so the
same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from qhlip.polyalg import BiPoly, UniPoly
from qhlip.qhdecide import QHPoly, validate_qh

#: weights r/s drawn by the 2-D generator: beta in {3/2, 2, 5/2, 3}
BETAS = ((3, 2), (2, 1), (5, 2), (3, 1))

#: the paper's headline family; its parameter is bound per scan value
HP_FAMILY = "X^6-3*l*X^4*Y+Y^3"


def stream(workload: str, seed: int) -> random.Random:
    """The random stream of one workload; string seeding is process-stable."""
    return random.Random(f"{workload}:{seed}")


def rand_unipoly(rng: random.Random, max_deg: int = 6, coeff_bound: int = 5) -> UniPoly:
    """Random nonconstant polynomial with integer coefficients."""
    d = rng.randint(1, max_deg)
    cs = [Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(d)]
    lc = Fraction(rng.choice([x for x in range(-coeff_bound, coeff_bound + 1) if x != 0]))
    return UniPoly(cs + [lc])


def rand_nonzero_rational(rng: random.Random, num_bound: int = 4, den_bound: int = 4) -> Fraction:
    n = rng.choice([x for x in range(-num_bound, num_bound + 1) if x != 0])
    return Fraction(n, rng.randint(1, den_bound))


def affine_conjugate(f: UniPoly, a: Fraction, b: Fraction, c: Fraction) -> UniPoly:
    """g(u) = c * f((u - b) / a); then g o phi = c f with phi(t) = a t + b."""
    inner = UniPoly([-b / a, Fraction(1) / a])
    return f.compose(inner).scale(c)


def oracle1d_f(rng: random.Random) -> UniPoly:
    """The criterion-4 draw of f: degree 1 to 6, integer coefficients."""
    return rand_unipoly(rng, 6, 5)


def oracle1d_pair(rng: random.Random, f: UniPoly) -> tuple[UniPoly, UniPoly, Fraction, Fraction]:
    """(f, g, a, c) with g(a t + b) = c f(t): an Equivalent 1-D pair."""
    a = rand_nonzero_rational(rng)
    b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    c = abs(rand_nonzero_rational(rng))
    return f, affine_conjugate(f, a, b, c), a, c


def rand_qhpoly(rng: random.Random, max_d: int = 12) -> QHPoly:
    """Random valid quasihomogeneous polynomial with n >= 1."""
    while True:
        r, s = rng.choice(BETAS)
        n = rng.randint(1, 3)
        e = rng.randint(0, 2)
        d = r * n + e
        if d > max_d:
            continue
        coeffs = {k: rng.randint(-3, 3) for k in range(n)}
        coeffs[n] = rng.choice([x for x in range(-3, 4) if x != 0])
        terms = {}
        for k, c in coeffs.items():
            if c:
                terms[(d - r * k, s * k)] = c
        return validate_qh(BiPoly(terms), r, s)


def decide2d_pair(rng: random.Random, Fq: QHPoly) -> tuple[QHPoly, QHPoly]:
    """(F, G) with G = F(aX, bY): an Equivalent 2-D pair."""
    a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    b = Fraction(rng.choice([x for x in range(-4, 5) if x != 0]), rng.randint(1, 3))
    return Fq, validate_qh(Fq.poly.scale_vars(a, b), Fq.r, Fq.s)


def bipoly_text(p: BiPoly) -> str:
    """Render a polynomial in the CLI's input syntax (exact rationals)."""
    parts = []
    for (i, j), c in sorted(p.terms.items(), reverse=True):
        factors = [f"({c})"]
        if i:
            factors.append(f"X^{i}")
        if j:
            factors.append(f"Y^{j}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def witness2d_case(rng: random.Random) -> tuple[str, str, str]:
    """(F, G, beta) as CLI arguments for ``qhlip witness``."""
    Fq, Gq = decide2d_pair(rng, rand_qhpoly(rng))
    return bipoly_text(Fq.poly), bipoly_text(Gq.poly), f"{Fq.r}/{Fq.s}"


#: the shared scan pool: for each denominator 1..4, the three smallest
#: numerators prime to it, with both signs.  For l > 0 the heights have
#: critical points at +-sqrt(l), so the two rational squares (1 and 1/4) are
#: the cheap positive values.  The pool is fixed and the seed picks the scans:
#: a seeded pool moved throughput by 50% between seeds.
HP_POOL = tuple(
    sorted(
        sign * Fraction(n, d)
        for d, nums in ((1, (1, 2, 3)), (2, (1, 3, 5)), (3, (1, 2, 4)), (4, (1, 3, 5)))
        for n in nums
        for sign in (-1, 1)
    )
)


def hpscan_case(rng: random.Random) -> list[Fraction]:
    """Four negative and four positive pool values, in shuffled order."""
    values = rng.sample([v for v in HP_POOL if v < 0], 4) + rng.sample([v for v in HP_POOL if v > 0], 4)
    rng.shuffle(values)
    return values


def hp_member(value: Fraction) -> str:
    """The family member at parameter ``value``, as a CLI argument."""
    return HP_FAMILY.replace("l", f"({value})")


def hpwitness_case(rng: random.Random) -> tuple[str, str]:
    """(F, G): the family at two distinct negative pool values.  The paper
    proves every such pair Equivalent (no height has a critical point)."""
    l1, l2 = rng.sample([v for v in HP_POOL if v < 0], 2)
    return hp_member(l1), hp_member(l2)


def _neg_rem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of -(a mod b), in primitive integer form."""
    a = list(a)
    lb = b[-1]
    while len(a) >= len(b):
        la, shift = a[-1], len(a) - len(b)
        # scaling by |lb| > 0 keeps every sign the Sturm count reads
        a = [abs(lb) * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= (1 if lb > 0 else -1) * la * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    g = 0
    for c in a:
        g = gcd(g, c)
    return [-(c // g) for c in a] if a else a


def real_root_count(coeffs: list[int]) -> int:
    """Distinct real roots of a nonzero integer polynomial (low to high).

    Sturm's theorem evaluated at -oo and +oo, so only leading coefficients
    and degrees of the chain are needed.
    """
    p = [int(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if len(p) <= 1:
        return 0
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        r = _neg_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)

    def variations(signs: list[int]) -> int:
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    at_pos = [1 if q[-1] > 0 else -1 for q in chain]
    at_neg = [s if (len(q) - 1) % 2 == 0 else -s for s, q in zip(at_pos, chain)]
    return variations(at_neg) - variations(at_pos)


def rational_root_count(coeffs: list[int]) -> int:
    """Distinct rational roots of a nonzero integer polynomial (low to high)."""
    cs = [int(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    roots = 0
    if cs and cs[0] == 0:
        roots += 1
        while cs[0] == 0:
            cs.pop(0)
    if len(cs) <= 1:
        return roots
    a0, an = abs(cs[0]), abs(cs[-1])
    n = len(cs) - 1
    for p in range(1, a0 + 1):
        if a0 % p:
            continue
        for q in range(1, an + 1):
            if an % q or gcd(p, q) != 1:
                continue
            for num in (p, -p):
                # q**n * f(num/q), exactly, in integers
                if sum(c * num**i * q ** (n - i) for i, c in enumerate(cs)) == 0:
                    roots += 1
    return roots


@lru_cache(maxsize=None)
def crit_profile(coeffs: tuple[int, ...]) -> tuple[int, int]:
    """(real critical points, rational critical points) of an integer
    polynomial given by its coefficients, low to high.

    The pair predicts most of the exact work done on the polynomial.
    """
    dp = [i * c for i, c in enumerate(coeffs)][1:]
    while dp and dp[-1] == 0:
        dp.pop()
    if len(dp) <= 1:
        return (0, 0)
    return (real_root_count(dp), rational_root_count(dp))


# ---------------------------------------------------------------------------
# Proportional stratified sampling
# ---------------------------------------------------------------------------
#
# Per-op cost is bimodal: irrational critical points carry their defining
# polynomial through every later resultant, so such pairs cost 10-500 ms
# while the rest cost 1-10 ms.  Plain random draws let the mix move from seed
# to seed, and throughput and the latency percentiles move with it.  Each run
# therefore takes a fixed number of cases from every stratum, in proportion
# to the stratum's frequency under the plain generator (weights per 10000
# draws, from frequency_table on 40000 draws of stream(workload, 0)).  A
# stratum too rare to earn a slot at the run's size is not drawn at all, so
# no single rare and costly case moves a run.  The stratum is read off the
# first polynomial and the rest of a case is drawn only once that polynomial
# is accepted, so each case is distributed as a plain draw within its stratum.

#: (degree of f, real and rational critical points of f) -> weight, oracle1d
ORACLE1D_WEIGHTS = {
    (1, 0, 0): 1640, (2, 1, 1): 1680, (3, 0, 0): 594, (3, 1, 1): 20, (3, 2, 0): 735,
    (3, 2, 2): 332, (4, 1, 0): 1127, (4, 1, 1): 127, (4, 2, 2): 14, (4, 3, 0): 259,
    (4, 3, 1): 138, (4, 3, 3): 18, (5, 0, 0): 360, (5, 1, 1): 6, (5, 2, 0): 1036,
    (5, 2, 1): 163, (5, 2, 2): 8, (5, 3, 1): 6, (5, 4, 0): 47, (5, 4, 1): 29,
    (5, 4, 2): 4, (6, 1, 0): 930, (6, 1, 1): 50, (6, 2, 1): 10, (6, 2, 2): 1,
    (6, 3, 0): 515, (6, 3, 1): 132, (6, 3, 2): 8, (6, 3, 3): 1, (6, 4, 1): 2,
    (6, 5, 0): 2, (6, 5, 1): 4, (6, 5, 2): 1,
}

#: (r, s, n, real and rational critical points of F(1, t), the same of
#: F(-1, t)) -> weight, for decide2d
DECIDE2D_WEIGHTS = {
    (2, 1, 1, 0, 0, 0, 0): 933, (2, 1, 2, 1, 1, 1, 1): 911, (2, 1, 3, 0, 0, 0, 0): 327,
    (2, 1, 3, 1, 1, 1, 1): 41, (2, 1, 3, 2, 0, 2, 0): 385, (2, 1, 3, 2, 2, 2, 2): 179,
    (3, 1, 1, 0, 0, 0, 0): 901, (3, 1, 2, 1, 1, 1, 1): 894, (3, 1, 3, 0, 0, 0, 0): 307,
    (3, 1, 3, 1, 1, 1, 1): 46, (3, 1, 3, 2, 0, 2, 0): 373, (3, 1, 3, 2, 2, 2, 2): 170,
    (3, 2, 1, 1, 1, 1, 1): 915, (3, 2, 2, 1, 1, 1, 1): 138, (3, 2, 2, 1, 1, 3, 1): 296,
    (3, 2, 2, 1, 1, 3, 3): 84, (3, 2, 2, 3, 1, 1, 1): 309, (3, 2, 2, 3, 3, 1, 1): 81,
    (3, 2, 3, 1, 1, 1, 1): 326, (3, 2, 3, 1, 1, 3, 1): 45, (3, 2, 3, 1, 1, 3, 3): 16,
    (3, 2, 3, 1, 1, 5, 1): 19, (3, 2, 3, 1, 1, 5, 3): 8, (3, 2, 3, 3, 1, 1, 1): 50,
    (3, 2, 3, 3, 1, 3, 1): 351, (3, 2, 3, 3, 1, 3, 3): 16, (3, 2, 3, 3, 3, 1, 1): 20,
    (3, 2, 3, 3, 3, 3, 1): 18, (3, 2, 3, 3, 3, 3, 3): 6, (3, 2, 3, 5, 1, 1, 1): 17,
    (3, 2, 3, 5, 3, 1, 1): 9, (5, 2, 1, 1, 1, 1, 1): 913, (5, 2, 2, 1, 1, 1, 1): 131,
    (5, 2, 2, 1, 1, 3, 1): 290, (5, 2, 2, 1, 1, 3, 3): 84, (5, 2, 2, 3, 1, 1, 1): 311,
    (5, 2, 2, 3, 3, 1, 1): 79,
}


def allocate(weights: dict, n: int) -> dict:
    """Split n slots over the strata by largest remainder; ties by table order."""
    total = sum(weights.values())
    exact = {k: n * w / total for k, w in weights.items()}
    quotas = {k: int(x) for k, x in exact.items()}
    order = sorted(weights, key=lambda k: -(exact[k] - quotas[k]))
    for k in order[: n - sum(quotas.values())]:
        quotas[k] += 1
    return quotas


def stratified(rng: random.Random, first, key, rest, weights: dict, n: int) -> list:
    """n cases, rest(rng, first(rng)), filling each stratum's quota in turn;
    the stratum is key(first(rng)).  Returned in shuffled order."""
    quotas = allocate(weights, n)
    buckets: dict = {k: [] for k in quotas}
    missing = n
    while missing:
        head = first(rng)
        k = key(head)
        if len(buckets.get(k, ())) < quotas.get(k, 0):
            buckets[k].append(rest(rng, head))
            missing -= 1
    cases = [case for bucket in buckets.values() for case in bucket]
    rng.shuffle(cases)
    return cases


def oracle1d_key(f: UniPoly) -> tuple[int, int, int]:
    return (f.degree,) + crit_profile(tuple(int(c) for c in f.coeffs))


def decide2d_key(F: QHPoly) -> tuple[int, ...]:
    """Beta, n, and the critical profiles of the heights F(1, t), F(-1, t)."""
    plus = [0] * (F.s * F.n + 1)
    minus = [0] * (F.s * F.n + 1)
    for (i, j), c in F.poly.terms.items():
        plus[j] += int(c)
        minus[j] += int(c) * (-1) ** i
    return (F.r, F.s, F.n) + crit_profile(tuple(plus)) + crit_profile(tuple(minus))


def oracle1d_cases(rng: random.Random, n: int) -> list:
    return stratified(rng, oracle1d_f, oracle1d_key, oracle1d_pair, ORACLE1D_WEIGHTS, n)


def decide2d_cases(rng: random.Random, n: int) -> list:
    return stratified(rng, rand_qhpoly, decide2d_key, decide2d_pair, DECIDE2D_WEIGHTS, n)


def frequency_table(workload: str, first, key, draws: int = 40000) -> dict:
    """Stratum weights of the plain generator, per 10000 draws; strata seen
    in fewer than one draw in 10000 are left out."""
    rng = stream(workload, 0)
    counts: dict = {}
    for _ in range(draws):
        k = key(first(rng))
        counts[k] = counts.get(k, 0) + 1
    table = {k: round(10000 * c / draws) for k, c in sorted(counts.items())}
    return {k: w for k, w in table.items() if w > 0}


if __name__ == "__main__":
    for name, first, key in (
        ("oracle1d", oracle1d_f, oracle1d_key),
        ("decide2d", rand_qhpoly, decide2d_key),
    ):
        print(name, frequency_table(name, first, key))
