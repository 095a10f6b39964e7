"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
import math
import pkgutil
import random
import sys
from array import array
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import qhlip
from qhlip.lipclass import CSet
from qhlip.parser import (
    MAX_DEGREE,
    MAX_DEPTH,
    InputTooLargeError,
    ParseError,
    _checked,
    _const,
    _degree,
    _TOKEN_RE,
    _int_literal,
)
from qhlip.polyalg import (
    BiPoly,
    UniPoly,
    _prem,
    cauchy_root_bound,
    count_roots_between,
    interval_eval_ratio,
    poly_gcd,
    square_free_part,
)
from qhlip.qhdecide import QHPoly, validate_qh
from qhlip.realalg import RealAlg, abs_alg, compare, inverse, mul, neg, nth_root_pos, pow_int
from qhlip.zygothety import Affine, BranchMap, Compose, Neg, NegConj, Zygothety
from qhlip.witness import (
    LIPSCHITZ_SAMPLES,
    LIPSCHITZ_SEED,
    T_COUNT,
    T_WINDOW,
    X_MIN,
    InverseBetaTransform,
    _log_spaced,
)


def rand_unipoly(rng: random.Random, max_deg: int = 6, coeff_bound: int = 5) -> UniPoly:
    """Random nonconstant polynomial with integer coefficients."""
    d = rng.randint(1, max_deg)
    cs = [Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(d)]
    lc = Fraction(rng.choice([x for x in range(-coeff_bound, coeff_bound + 1) if x != 0]))
    return UniPoly(cs + [lc])


def rand_tpoly(
    rng: random.Random, max_t: int = 3, max_x: int = 2, bound: int = 4
) -> tuple[list[int], ...]:
    """Random polynomial in t, as the rows `resultant` takes: its
    coefficients lowest power first, each a polynomial in x given by its
    integer coefficients, lowest power first.

    The t-degree may be 0; the leading coefficient in t is a nonzero
    polynomial in x.
    """

    def row() -> list[int]:
        return [rng.randint(-bound, bound) for _ in range(rng.randint(1, max_x + 1))]

    lead = row()
    while not any(lead):
        lead = row()
    return tuple(row() for _ in range(rng.randint(0, max_t))) + (lead,)


def sylvester_resultant(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """Res(p, q) as the determinant of the Sylvester matrix.

    p[i] and q[i] are the coefficients of t**i, and the formal degrees are
    len(p) - 1 and len(q) - 1, so a zero leading coefficient still counts.
    The determinant is taken by Fraction Gaussian elimination.
    """
    m, n = len(p) - 1, len(q) - 1
    top_p = [Fraction(c) for c in reversed(p)]
    top_q = [Fraction(c) for c in reversed(q)]
    zero = [Fraction(0)]
    rows = [zero * i + top_p + zero * (n - 1 - i) for i in range(n)]
    rows += [zero * i + top_q + zero * (m - 1 - i) for i in range(m)]
    det = Fraction(1)
    for col in range(m + n):
        pivot = next((r for r in range(col, m + n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, m + n):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def rand_nonzero_rational(rng: random.Random, num_bound: int = 4, den_bound: int = 4) -> Fraction:
    n = rng.choice([x for x in range(-num_bound, num_bound + 1) if x != 0])
    return Fraction(n, rng.randint(1, den_bound))


def affine_conjugate(f: UniPoly, a: Fraction, b: Fraction, c: Fraction) -> UniPoly:
    """g(u) = c * f((u - b) / a); then g o phi = c f with phi(t) = a t + b."""
    inner = UniPoly([-b / a, Fraction(1) / a])
    return f.compose(inner).scale(c)


def library_caches() -> dict[str, object]:
    """Every functools cache that a module of qhlip defines, by dotted name;
    a cache known by two names is listed under the first, and one a module
    imports only under its own module."""
    found: dict[str, object] = {}
    for info in pkgutil.iter_modules(qhlip.__path__):
        module = importlib.import_module(f"qhlip.{info.name}")
        for name, v in vars(module).items():
            if hasattr(v, "cache_parameters") and v.__module__ == module.__name__ and v not in found.values():
                found[f"{module.__name__}.{name}"] = v
    return found


def rand_qhpoly(rng: random.Random, betas=((3, 2), (2, 1), (5, 2), (3, 1)), max_d: int = 12) -> QHPoly:
    """Random valid quasihomogeneous polynomial with n >= 1."""
    while True:
        r, s = rng.choice(list(betas))
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


def brute_force_real_root_count(p: UniPoly) -> int:
    """Distinct real roots of p by an exact sign scan over a refining grid.

    Scans sign changes of the square-free part on a uniform rational grid
    inside the Cauchy bound, doubling the resolution until two consecutive
    passes agree.  Grid evaluation is exact (integers after clearing
    denominators), and grid points that hit roots exactly are counted once.
    """
    q = UniPoly(square_free_part(p).ints)
    if q.degree == 0:
        return 0
    bound = cauchy_root_bound(q)
    num_b, den_b = bound.numerator, bound.denominator
    coeffs = [c.numerator for c in q.coeffs]

    def scan(cells: int) -> int:
        # grid point j: x_j = (-num_b + 2*num_b*j/cells) / den_b
        count = 0
        prev_sign = 0
        for j in range(cells + 1):
            num = -num_b * cells + 2 * num_b * j
            den = den_b * cells
            acc = 0
            mp = 1
            for c in reversed(coeffs):
                acc = acc * num + c * mp
                mp *= den
            s = (acc > 0) - (acc < 0)
            if s == 0:
                count += 1
                prev_sign = 0
                continue
            if prev_sign != 0 and s != prev_sign:
                count += 1
            prev_sign = s
        return count

    cells = 512
    last = scan(cells)
    while True:
        cells *= 2
        cur = scan(cells)
        if cur == last:
            return cur
        last = cur


def ref_proportional(avals: Sequence[RealAlg], bvals: Sequence[RealAlg]) -> CSet | None:
    """CSet with b = c*a for some c > 0, or None, by exact division through
    the product resultant (no rational shortcut) and comparison of every
    ratio with the first: the reference for lipclass._proportional, which
    refutes from the boxes first."""
    signs_a = [v.sign() for v in avals]
    if signs_a != [v.sign() for v in bvals]:
        return None
    ratios = [mul(b, inverse(a)) for a, b, s in zip(avals, bvals, signs_a) if s != 0]
    if not ratios:
        return CSet(None)
    if any(compare(r, ratios[0]) != 0 for r in ratios[1:]):
        return None
    return CSet(ratios[0])


def ref_to_float(a: RealAlg) -> float:
    """RealAlg.to_float as refine-then-round, with nothing remembered: the
    midpoint of a's box, halved on Fractions until at most 2**-80 wide,
    rounded to double.  Raises OverflowError beyond the float range."""
    while not a.is_rational and a.hi - a.lo > Fraction(1, 2**80):
        a = _halved(a)
    return float(a.lo) if a.is_rational else float((a.lo + a.hi) / 2)


def ref_limit_slope(m) -> RealAlg:
    """The limit slope of a line map, with the n-th root taken at each
    BranchMap and slopes multiplied through Compose."""
    if isinstance(m, Affine):
        return RealAlg.from_rational(m.a)
    if isinstance(m, BranchMap):
        ratio = mul(m.c, RealAlg.from_rational(Fraction(m.f.leading, m.g.leading)))
        mag = nth_root_pos(abs_alg(ratio), m.f.degree)
        return mag if m.increasing else neg(mag)
    if isinstance(m, Neg):
        return neg(ref_limit_slope(m.inner))
    if isinstance(m, NegConj):
        return ref_limit_slope(m.inner)
    if isinstance(m, Compose):
        return mul(ref_limit_slope(m.outer), ref_limit_slope(m.inner))
    raise TypeError(m)


def ref_is_beta_regular(z: Zygothety, r: int, s: int) -> bool:
    """|lam1|^beta * L1 == |lam2|^beta * L2 with beta = r/s, both sides
    raised to the s-th power, on the limit slopes of ref_limit_slope: the
    reference for zygothety.is_beta_regular, which takes no root."""
    L1, L2 = ref_limit_slope(z.phi1), ref_limit_slope(z.phi2)
    s1, s2 = L1.sign(), L2.sign()
    if s1 == 0 or s2 == 0 or s1 != s2:
        return False
    lhs = mul(pow_int(abs_alg(z.lam1), r), pow_int(abs_alg(L1), s))
    rhs = mul(pow_int(abs_alg(z.lam2), r), pow_int(abs_alg(L2), s))
    return compare(lhs, rhs) == 0


# ---------------------------------------------------------------------------
# Reference zero and equality tests: a Sturm count of a gcd on a box
# ---------------------------------------------------------------------------


def _halved(a: RealAlg) -> RealAlg:
    """The half of an irrational a's box that holds it, or a itself as the
    rational midpoint."""
    D, mid = a.defpoly, (a.lo + a.hi) / 2
    s = D.sign_at(mid)
    if s == 0:
        return RealAlg.from_rational(mid)
    return RealAlg(D, *box(mid, a.hi)) if s == D.sign_at(a.lo) else RealAlg(D, *box(a.lo, mid))


def gcd_count_sign_at(p: UniPoly, a: RealAlg) -> int:
    """sign(p(a)): zero when gcd(defpoly, p) has one root in a's box by a
    Sturm count, else read from p's interval extension over a's box halved
    until it excludes 0."""
    if a.is_rational:
        return p.sign_at(a.lo)
    g = poly_gcd(a.defpoly, p)
    if g.degree >= 1 and count_roots_between(g, *box(a.lo, a.hi)) == 1:
        return 0
    while not a.is_rational:
        p_lo, p_hi = frac_interval_eval(p, a.lo, a.hi)
        if p_lo > 0 or p_hi < 0:
            return 1 if p_lo > 0 else -1
        a = _halved(a)
    return p.sign_at(a.lo)


def gcd_count_compare(a: RealAlg, b: RealAlg) -> int:
    """sign(a - b): equal when gcd(Da, Db) has one root on the overlap of the
    boxes by a Sturm count, else ordered by halving both boxes until they
    part."""
    if a.is_rational or b.is_rational:
        if a.is_rational:
            return -gcd_count_sign_at(UniPoly((-a.lo, 1)), b)
        return gcd_count_sign_at(UniPoly((-b.lo, 1)), a)
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    g = poly_gcd(a.defpoly, b.defpoly)
    if lo < hi and g.degree >= 1 and count_roots_between(g, *box(lo, hi)) == 1:
        return 0
    while a.hi > b.lo and b.hi > a.lo:
        a, b = _halved(a), _halved(b)
        if a.is_rational or b.is_rational:
            return gcd_count_compare(a, b)
    return -1 if a.hi <= b.lo else 1


# ---------------------------------------------------------------------------
# Reference kernel over Fraction: remainders by exact rational division
# ---------------------------------------------------------------------------


def frac_divmod(p: UniPoly, q: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(quotient, remainder) of p by a nonzero q, by long division over Q."""
    if q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    quo = [Fraction(0)] * max(len(rem) - q.degree, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + q.degree] / q.leading
        quo[k] = c
        for j, b in enumerate(q.coeffs):
            rem[k + j] -= c * b
    return UniPoly(quo), UniPoly(rem)


def frac_primitive(p: UniPoly) -> UniPoly:
    """p scaled by a positive rational to coprime integer coefficients."""
    if p.is_zero:
        return p
    den = 1
    for c in p.coeffs:
        den = lcm(den, c.denominator)
    num = 0
    for c in p.coeffs:
        num = gcd(num, abs(c.numerator * (den // c.denominator)))
    return p.scale(Fraction(den, num))


def frac_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm over Q."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, frac_divmod(a, b)[1]
        if not b.is_zero:
            b = frac_primitive(b)
    return a.monic()


def prs_gcd(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """A primitive gcd in Z[x], up to sign, by the primitive remainder
    sequence: integer coefficient lists, lowest power first."""
    while b:
        a, b = b, _prem(a, b)[0]
    return a


def frac_square_free_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p') over Q, monic."""
    if p.is_zero:
        raise ValueError("square-free part of the zero polynomial")
    if p.degree == 0:
        return UniPoly((1,))
    q, r = frac_divmod(p, frac_gcd(p, p.derivative()))
    if not r.is_zero:
        raise ArithmeticError("inexact polynomial division")
    return q.monic()


def frac_sturm_sequence(p: UniPoly) -> tuple[UniPoly, ...]:
    """Sturm chain p, p', then the primitive part of -rem over Q."""
    if p.is_zero:
        raise ValueError("Sturm sequence of the zero polynomial")
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        r = -frac_divmod(chain[-2], chain[-1])[1]
        if r.is_zero:
            break
        chain.append(frac_primitive(r))
    return tuple(chain)


def frac_resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Res(p, q) over Q for nonzero p and q by the Euclidean rule
    Res(p, q) = (-1)**(deg p * deg q) * lc(q)**(deg p - deg r) * Res(q, r)
    with r = p mod q."""
    acc = Fraction(1)
    while q.degree > 0:
        r = frac_divmod(p, q)[1]
        if r.is_zero:
            return Fraction(0)
        if p.degree * q.degree % 2:
            acc = -acc
        acc *= q.leading ** (p.degree - r.degree)
        p, q = q, r
    return acc * q.leading**p.degree


def frac_simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator in (lo, hi), by the
    continued-fraction recursion on Fractions."""
    if lo >= hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -frac_simplest_between(-hi, -lo)
    fl = lo.numerator // lo.denominator
    if lo == fl:
        if hi > fl + 1:
            return Fraction(fl + 1)
        inv = 1 / (hi - fl)
        return fl + Fraction(1, inv.numerator // inv.denominator + 1)
    if hi > fl + 1:
        return Fraction(fl + 1)
    return fl + 1 / frac_simplest_between(1 / (hi - fl), 1 / (lo - fl))


def frac_root_bracket(lo: Fraction, hi: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Positive bracket (l, u) with l**n < lo <= hi < u**n: bisection on
    Fractions, the same midpoints and stopping rule as realalg._root_bracket."""
    l = min(Fraction(1), lo)
    while l**n >= lo:
        l /= 2
    u = max(Fraction(1), hi)
    while u**n <= hi:
        u *= 2
    for _ in range(64) if lo == hi else itertools.count():
        m = (l + u) / 2
        if m**n < lo:
            l = m
        elif m**n > hi:
            u = m
        else:
            break
    return l, u


# ---------------------------------------------------------------------------
# Reference UniPoly arithmetic on Fraction tuples, lowest power first
# ---------------------------------------------------------------------------


def ref_trim(cs) -> tuple[Fraction, ...]:
    """The coefficients as Fractions, trailing zeros dropped."""
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_add(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_sub(a, b) -> tuple[Fraction, ...]:
    return ref_add(a, [-c for c in b])


def ref_mul(a, b) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def uni_add(p: UniPoly, q: UniPoly) -> UniPoly:
    return UniPoly(ref_add(p.coeffs, q.coeffs))


def uni_sub(p: UniPoly, q: UniPoly) -> UniPoly:
    return UniPoly(ref_sub(p.coeffs, q.coeffs))


def uni_mul(*ps: UniPoly) -> UniPoly:
    """The product of the polynomials, by ref_mul on their coefficients."""
    out: tuple[Fraction, ...] = (Fraction(1),)
    for p in ps:
        out = ref_mul(out, p.coeffs)
    return UniPoly(out)


def ref_scale(a, c) -> tuple[Fraction, ...]:
    return ref_trim(c * x for x in a)


def ref_derivative(a) -> tuple[Fraction, ...]:
    return ref_trim(i * x for i, x in enumerate(a) if i >= 1)


def ref_monic(a) -> tuple[Fraction, ...]:
    return ref_scale(a, 1 / a[-1]) if a else ()


def ref_compose(a, b) -> tuple[Fraction, ...]:
    """a(b(t)) by Horner's rule on polynomials."""
    acc: tuple[Fraction, ...] = ()
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, b), (c,))
    return acc


def ref_stretch(a, n: int) -> tuple[Fraction, ...]:
    """a(t**n)."""
    out = [Fraction(0)] * ((len(a) - 1) * n + 1) if a else []
    for i, c in enumerate(a):
        out[i * n] = c
    return ref_trim(out)


def ref_eval(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def box(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(lo, hi) as the kernel's integer box (a, c, m): lo = a/m and hi = c/m."""
    m = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (m // lo.denominator), hi.numerator * (m // hi.denominator), m


def rebuilt_alg(a: RealAlg) -> RealAlg:
    """a built afresh, with nothing remembered: through the constructor on
    a's box, or from_rational for a rational."""
    return RealAlg.from_rational(a.lo) if a.is_rational else RealAlg(a.defpoly, *box(a.lo, a.hi))


def frac_interval_eval(p, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """polyalg.interval_eval_ratio's bounds over [lo, hi], as Fractions."""
    l, u, d = interval_eval_ratio(p, *box(lo, hi))
    return Fraction(l, d), Fraction(u, d)


def ref_interval_eval(a, lo, hi) -> tuple[Fraction, Fraction]:
    """Interval Horner over Q on [lo, hi]."""
    alo = ahi = Fraction(0)
    for c in reversed(a):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def ref_bi(terms) -> dict[tuple[int, int], Fraction]:
    """The terms as Fractions, zeros dropped."""
    return {k: Fraction(c) for k, c in terms.items() if c}


def ref_bi_add(a, b) -> dict[tuple[int, int], Fraction]:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return ref_bi(out)


def ref_bi_mul(a, b) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), 0) + x * y
    return ref_bi(out)


def ref_bi_height(a, x) -> tuple[Fraction, ...]:
    """F(x, t) as coefficients in t, lowest power first."""
    out = [Fraction(0)] * (max((j for _, j in a), default=-1) + 1)
    for (i, j), c in a.items():
        out[j] += c * Fraction(x) ** i
    return ref_trim(out)


def ref_bi_scale_vars(a, u, v) -> dict[tuple[int, int], Fraction]:
    """F(uX, vY)."""
    return ref_bi({(i, j): c * Fraction(u) ** i * Fraction(v) ** j for (i, j), c in a.items()})


def ref_on_fiber(T: InverseBetaTransform, x: float, ax_b: float, phi_t: float) -> tuple[float, float]:
    """The fiber formula with |lam|^beta taken at each point."""
    lam = T.lam1 if x > 0.0 else T.lam2
    return (lam * x, abs(lam) ** T.beta * phi_t * ax_b)


def ref_eval_transform(T: InverseBetaTransform, point: tuple[float, float]) -> tuple[float, float]:
    """The inverse beta-transform at one point, through ref_on_fiber."""
    x, y = point
    if x == 0.0:
        return (0.0, T.axis_slope * y)
    phi = T.z.phi1 if x > 0.0 else T.z.phi2
    ax_b = abs(x) ** T.beta
    return ref_on_fiber(T, x, ax_b, phi.eval_float(y / ax_b))


def ref_conjugacy_rows(F: QHPoly, G: QHPoly, T: InverseBetaTransform, x_count: int, delta: float) -> dict[float, float]:
    """The largest conjugacy residual of each grid row, keyed by its x, and of
    the axis, keyed by 0.0, each point evaluating F and G in the plane with a
    running max(), and each side's phi values through ref_batch_map_floats:
    the reference for witness.verify_conjugacy."""
    fp, gp = F.poly, G.poly
    xs = [min(x, delta) for x in _log_spaced(X_MIN if delta > X_MIN else X_MIN * delta, delta, x_count)]
    step = 2 * T_WINDOW / (T_COUNT - 1)
    ts = [-T_WINDOW + step * k for k in range(T_COUNT)]
    rows = {}
    for sgn, phi in ((1.0, T.z.phi1), (-1.0, T.z.phi2)):
        phi_vals = ref_batch_map_floats(phi, ts)
        for xi in xs:
            x = sgn * xi
            ax_b = xi**T.beta
            worst = rows.get(x, 0.0)
            for t, phi_t in zip(ts, phi_vals):
                px, py = ref_on_fiber(T, x, ax_b, phi_t)
                fv = fp.eval_float(x, t * ax_b)
                gv = gp.eval_float(px, py)
                worst = max(worst, abs(gv - fv) / max(1.0, abs(fv)))
            rows[x] = worst
    worst = 0.0
    for y in ts:
        px, py = ref_eval_transform(T, (0.0, y))
        fv = fp.eval_float(0.0, y)
        gv = gp.eval_float(px, py)
        worst = max(worst, abs(gv - fv) / max(1.0, abs(fv)))
    rows[0.0] = worst
    return rows


def ref_verify_conjugacy(F: QHPoly, G: QHPoly, T: InverseBetaTransform, x_count: int, delta: float) -> float:
    """The largest residual over the whole grid, every point evaluated in the plane."""
    return max(ref_conjugacy_rows(F, G, T, x_count, delta).values())


def ref_verify_lipschitz(T: InverseBetaTransform, delta: float) -> tuple[float, float]:
    """The Lipschitz ratios with each pair drawn and mapped one point at a
    time (scalar eval_float, cold inversions): the reference for
    witness.verify_lipschitz, which draws the same pairs."""
    rng = random.Random(LIPSCHITZ_SEED)

    def sample_point() -> tuple[float, float]:
        x = 0.0
        while abs(x) < min(1e-9, delta / 2):
            x = rng.uniform(-delta, delta)
        t = rng.uniform(-T_WINDOW, T_WINDOW)
        return (x, t * abs(x) ** T.beta)

    ratio_min = float("inf")
    ratio_max = 0.0
    for _ in range(LIPSCHITZ_SAMPLES):
        p = sample_point()
        q = sample_point()
        dx, dy = p[0] - q[0], p[1] - q[1]
        dist = (dx * dx + dy * dy) ** 0.5
        if dist < min(1e-12, 1e-3 * delta):
            continue
        ip = ref_eval_transform(T, p)
        iq = ref_eval_transform(T, q)
        dix, diy = ip[0] - iq[0], ip[1] - iq[1]
        idist = (dix * dix + diy * diy) ** 0.5
        ratio = idist / dist
        ratio_min = min(ratio_min, ratio)
        ratio_max = max(ratio_max, ratio)
    return (ratio_min, ratio_max)


def ref_branch_inversions(g: UniPoly, crit_floats: list[float], j: int, ys: Sequence[float]) -> list[float]:
    """The preimages of ys under g on its j-th branch, in the order of ys, by
    the rule of zygothety._invert_run written out plainly: the reference for
    the bits of BranchMap.eval_float (one value) and eval_floats.

    With s the exact sign of g' inside the branch, s * g rises there and
    stands for g below, and s * y for each y; the values are taken in
    ascending order (a stable sort).  An unbounded end starts 1 past the
    other end (at -1 or 1 when both are unbounded) and moves out by steps
    max(1, |start|), doubling, until g there is past every value or it
    stands on the float edge +-max, where a step out of the float range
    goes.  A value at or past g at a critical end returns that end; one at
    g at the edge returns the edge, and one past it NaN.  Each value keeps
    a bracket (a, b) of points evaluated, g(a) <= y < g(b), b falling back
    to the pushed upper end when no longer above y.  From the last point x
    evaluated, with q = (y - g) / g' and r = g'' q / 2 g' there, a step is
    taken when x + q lies inside the bracket and q**2 is at most a quarter
    of the square of the step before (any step, for a value's first; half
    the bracket for a midpoint's).  If x was reached by such a step from x0,
    x + q is returned unevaluated when q**2 <= tol**2, or when
    max(|g''(x0)|, |g''(x)|) q**2 <= 2 tol |g'(x)|, with
    tol = 1e-16 * max(1, |x + q|); otherwise the step goes to x + q - r q,
    or to x + q when r**2 > 1/4 or that point leaves the bracket.  A step
    that fails returns x when |q| <= 1e-15 |x|; otherwise the bracket's
    midpoint is next (x when no midpoint is left), as it is with no point
    evaluated yet or g' = 0, except that the run's first step past a
    bracket end that the pushing set, where g is y up to 1e-15 |y|, goes to
    that end instead.  A point where g is y is returned."""
    lo = crit_floats[j - 1] if j >= 1 else -math.inf
    hi = crit_floats[j] if j < len(crit_floats) else math.inf
    inside = (Fraction(lo) + Fraction(hi)) / 2 if -math.inf < lo and hi < math.inf else (
        Fraction(lo) + 1 if lo > -math.inf else Fraction(hi) - 1 if hi < math.inf else Fraction(0))
    s = 1.0 if g.derivative().sign_at(inside) > 0 else -1.0
    if s < 0:
        g = -g
    vals = [s * y for y in ys]
    order = sorted(range(len(ys)), key=lambda k: vals[k])
    a, b, edge = lo, hi, sys.float_info.max
    if lo == -math.inf:
        a = (hi if hi < math.inf else 0.0) - 1.0
        step = max(1.0, abs(a))
        while g.eval_float(a) >= vals[order[0]] and a > -edge:
            a = max(a - step, -edge)
            step *= 2.0
    if hi == math.inf:
        b = (lo if lo > -math.inf else 0.0) + 1.0
        step = max(1.0, abs(b))
        while g.eval_float(b) <= vals[order[-1]] and b < edge:
            b = min(b + step, edge)
            step *= 2.0
    bottom, top, out, x = a, b, [0.0] * len(ys), None  # x, v, d, h: g, g', g'' at the last point evaluated
    pushed = ({a} if lo == -math.inf else set()) | ({b} if hi == math.inf else set())
    for k in order:
        y = vals[k]
        if lo > -math.inf and y <= g.eval_float(lo):
            out[k] = lo
            continue
        if hi < math.inf and y >= g.eval_float(hi):
            out[k] = hi
            continue
        if lo == -math.inf and y <= g.eval_float(bottom):  # on the float edge
            out[k] = bottom if y == g.eval_float(bottom) else math.nan
            continue
        if hi == math.inf and y >= g.eval_float(top):
            out[k] = top if y == g.eval_float(top) else math.nan
            continue
        if g.eval_float(b) <= y:
            a, b = b, top
        x0_h, bound = None, math.inf  # |g''| where the step to x began; the next step's square at most bound
        while True:
            q = (y - v) / d if x is not None and d != 0.0 else math.inf
            nx = x + q if x is not None else math.nan
            if a < nx < b and q * q <= bound:
                if x0_h is not None:
                    tol = 1e-16 * max(1.0, abs(nx))
                    if q * q <= tol * tol or max(x0_h, abs(h)) * (q * q) <= 2.0 * tol * abs(d):
                        u = nx
                        break
                r = h / (2.0 * d) * q
                if r * r <= 0.25 and a < nx - r * q < b:
                    nx = nx - r * q
                x0_h, bound = abs(h), 0.25 * (q * q)
            elif x is not None and abs(q) <= 1e-15 * abs(x) or not a < (a + b) / 2 < b:
                u = x
                break
            else:
                x0_h, bound = None, 0.0625 * (b - a) * (b - a)
                end = None if x is None else a if nx <= a else b if nx >= b else None
                if end in pushed and abs(g.eval_float(end) - y) <= 1e-15 * abs(y):
                    pushed.clear()
                    nx = end
                else:
                    nx = (a + b) / 2
            x = nx
            v, d, h = g.eval_float_d2(x)
            if v > y:
                b = x
            else:
                a = x
                if v == y:
                    u = x
                    break
        out[k] = u
    return out


def ref_batch_eval_floats(m: BranchMap, ts: Sequence[float]) -> list[float]:
    """BranchMap.eval_floats in a plainer form (values through array("d"),
    every point's branch by bisect), each branch's values inverted by
    ref_branch_inversions, a branch with none not at all: the reference for
    the batch path's bits."""
    cflt, cf, cg = m.c.to_float(), [x.to_float() for x in m.crits_f], [x.to_float() for x in m.crits_g]
    p = len(cf)
    js = [bisect.bisect_left(cf, t) for t in ts]
    js = js if m.increasing else [p - i for i in js]
    ys = array("d", (cflt * m.f.eval_float(t) for t in ts))
    out = [0.0] * len(ts)
    for j in range(p + 1):
        ks = [k for k in range(len(ts)) if js[k] == j]
        for k, u in zip(ks, ref_branch_inversions(m.g, cg, j, [ys[k] for k in ks]) if ks else ()):
            out[k] = u
    return out


def ref_batch_map_floats(phi, ts: Sequence[float]) -> list[float]:
    """phi.eval_floats(ts) with every BranchMap inside phi through ref_batch_eval_floats."""
    if isinstance(phi, Neg):
        return [-u for u in ref_batch_map_floats(phi.inner, ts)]
    if isinstance(phi, NegConj):
        return [-u for u in ref_batch_map_floats(phi.inner, [-t for t in ts])]
    if isinstance(phi, BranchMap):
        return ref_batch_eval_floats(phi, ts)
    if type(phi) is Affine:
        a, b = float(phi.a), float(phi.b)
        return [a * t + b for t in ts]
    if isinstance(phi, Compose):
        return ref_batch_map_floats(phi.outer, ref_batch_map_floats(phi.inner, ts))
    return phi.eval_floats(ts)  # a test's own map


def ref_verify_asymptotic(m) -> tuple[float, float, float, float, float]:
    """witness.verify_asymptotic written out plainly, over the same batch of
    points in the same order, each |t| followed by -|t|: 1e6 (the offset), the
    25 log-spaced |t| from 1e4 to 1e6 (the tail), then 1, 1.25 and 1.5 times
    1e4 and 1e6 (the shells); the map's values through ref_batch_map_floats,
    and every offset and deviation checked for finiteness."""
    lam = m.limit_slope().to_float()
    mags = [1e6, *_log_spaced(1e4, 1e6, 25), 1e4, 1.25e4, 1.5e4, 1e6, 1.25e6, 1.5e6]
    ts = [s * u for u in mags for s in (1.0, -1.0)]
    us = ref_batch_map_floats(m, ts)
    k_est = ((us[0] - lam * 1e6) + (us[1] + lam * 1e6)) / 2
    devs = [abs(u - lam * t - k_est) for t, u in zip(ts, us)]
    if not all(math.isfinite(v) for v in [us[0] - lam * 1e6, us[1] + lam * 1e6, *devs]):
        raise OverflowError("the asymptotic check is not finite")
    tail, shells = devs[2:52], devs[52:]
    return lam, k_est, max(tail), max(shells[:6]), max(shells[6:])


def strict_json(text: str):
    """json.loads(text), refusing the NaN and Infinity tokens that strict JSON does not allow."""

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def inexact_paths(doc, path: str = "") -> list[str]:
    """The paths of the floats in a parsed CLI document that are not an
    "approx" field (the double of the exact number beside it), outside
    witness's "report", which is float by design."""
    if isinstance(doc, float):
        return [path]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in inexact_paths(v, f"{path}[{i}]")]
    if isinstance(doc, dict):
        skip = ("approx", "report") if path == "" else ("approx",)
        return [p for k, v in doc.items() if k not in skip for p in inexact_paths(v, f"{path}.{k}")]
    return []


def ref_batch_verify_lipschitz(T: InverseBetaTransform, delta: float) -> tuple[float, float]:
    """witness.verify_lipschitz in a plainer form: the points drawn into
    growing arrays, each half-plane picked out after the draw, images through
    ref_on_fiber and the maps through ref_batch_map_floats (so each branch by
    ref_branch_inversions), and every ratio checked and folded by min() and
    max(): the reference for its bits."""
    rng = random.Random(LIPSCHITZ_SEED)
    n = 2 * LIPSCHITZ_SAMPLES
    xs, ys, ax_bs = array("d"), array("d"), array("d")
    for _ in range(n):
        x = 0.0
        while abs(x) < min(1e-9, delta / 2):
            x = -delta + (delta - -delta) * rng.random()
        xs.append(x)
        ax_bs.append(abs(x) ** T.beta)
        ys.append((-T_WINDOW + (T_WINDOW - -T_WINDOW) * rng.random()) * ax_bs[-1])
    ix, iy = array("d", bytes(8 * n)), array("d", bytes(8 * n))
    upper, lower = [k for k in range(n) if xs[k] > 0.0], [k for k in range(n) if xs[k] < 0.0]
    # one map for both half-planes: one batch, the x > 0 values first
    batches = [(T.z.phi1, upper + lower)] if T.z.phi2 is T.z.phi1 else [(T.z.phi1, upper), (T.z.phi2, lower)]
    for phi, side in batches:
        for k, u in zip(side, ref_batch_map_floats(phi, [ys[k] / ax_bs[k] for k in side])):
            ix[k], iy[k] = ref_on_fiber(T, xs[k], ax_bs[k], u)
    ratio_min, ratio_max = math.inf, 0.0
    for k in range(0, n, 2):
        dx, dy = xs[k] - xs[k + 1], ys[k] - ys[k + 1]
        dist = (dx * dx + dy * dy) ** 0.5
        if dist < min(1e-12, 1e-3 * delta):
            continue
        dix, diy = ix[k] - ix[k + 1], iy[k] - iy[k + 1]
        ratio = (dix * dix + diy * diy) ** 0.5 / dist
        if not math.isfinite(ratio):
            raise OverflowError(f"the float witness check reached {ratio!r} at {(xs[k], ys[k])!r}")
        ratio_min, ratio_max = min(ratio_min, ratio), max(ratio_max, ratio)
    return (ratio_min, ratio_max)


_PX, _PY = BiPoly({(1, 0): 1}), BiPoly({(0, 1): 1})


def ref_tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("end", "", len(text)),
    by matching at each position in turn."""
    tokens = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        at = m.start(kind)
        if kind == "dec":
            raise ParseError("decimal literals are not supported; write an exact rational p/q", at)
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", at)
        tokens.append((kind, m.group(kind), at))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _RefParser:
    """The parser as a plain recursive descent that builds every value as it
    reads it, the reference for the compiled parser: same grammar, limits,
    messages and positions, and refusals in the same order."""

    def __init__(self, text: str, bindings, variables):
        bindings = bindings or {}
        for name in variables:
            if name in bindings:
                raise ParseError(f"cannot bind the variable {name!r}", 0)
        self.tokens = ref_tokenize(text)
        self.i = 0
        self.names = {**{k: _const(v) for k, v in bindings.items()}, **variables}
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def nested(self, parse, pos: int) -> BiPoly:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise InputTooLargeError(f"nesting deeper than {MAX_DEPTH} levels", pos)
        value = parse()
        self.depth -= 1
        return value

    def parse(self) -> BiPoly:
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return value

    def expr(self) -> BiPoly:
        value = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                value = _checked(value + rhs if val == "+" else value - rhs, pos)
            else:
                return value

    def term(self) -> BiPoly:
        value = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                rhs = self.unary()
                if _degree(value) + _degree(rhs) > MAX_DEGREE:
                    raise InputTooLargeError(f"product of degree above {MAX_DEGREE}", pos)
                value = _checked(value * rhs, pos)
            elif kind == "op" and val == "/":
                raise ParseError("'/' is only allowed between integer literals (rational p/q)", pos)
            else:
                return value

    def unary(self) -> BiPoly:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.nested(self.unary, pos)
        return self.power()

    def power(self) -> BiPoly:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                raise ParseError("negative exponents are not allowed", pos)
            if kind != "num":
                raise ParseError("exponent must be a non-negative integer", pos)
            self.advance()
            exp = _int_literal(val, pos)
            if _degree(base) * exp > MAX_DEGREE:
                raise InputTooLargeError(f"power of degree above {MAX_DEGREE}", pos)
            out = BiPoly({(0, 0): 1})
            while exp:
                if exp & 1:
                    out = _checked(out * base, pos)
                exp >>= 1
                if exp:
                    base = _checked(base * base, pos)
            return out
        return base

    def atom(self) -> BiPoly:
        kind, val, pos = self.advance()
        if kind == "num":
            value = Fraction(_int_literal(val, pos))
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.advance()
                k3, v3, p3 = self.advance()
                if k3 != "num":
                    raise ParseError("rational literal needs an integer denominator", p3)
                den = _int_literal(v3, p3)
                if den == 0:
                    raise ParseError("zero denominator", p3)
                value /= den
            return _const(value)
        if kind == "ident":
            if val in self.names:
                return self.names[val]
            raise ParseError(f"unbound identifier {val!r}", pos)
        if kind == "op" and val == "(":
            value = self.nested(self.expr, pos)
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


def ref_parse_bi(text: str, bindings=None) -> BiPoly:
    """parse_bi by the reference recursive descent."""
    return _RefParser(text, bindings, {"X": _PX, "Y": _PY}).parse()


def ref_parse_uni(text: str, bindings=None) -> UniPoly:
    """parse_uni by the reference recursive descent: t read as Y, then X = 1."""
    return _RefParser(text, bindings, {"t": _PY}).parse().height(1)
