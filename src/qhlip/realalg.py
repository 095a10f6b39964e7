"""Exact real algebraic numbers.

A number is stored as a square-free monic defining polynomial together with
an isolating box (a/m, c/m) of integers over one denominator m > 0, with
gcd(a, c, m) = 1 so that a box has one form.  `RealAlg(defpoly, a, c, m)`
takes integers a < c: a defpoly of degree at least 2 with exactly one real
root in the box, neither endpoint a root.  A rational comes from
`from_rational` as its Fraction q, with defpoly t - q and a = c.  Sturm
counts run on the integer box, so Fractions are built only where `lo` and
`hi` are read, and for a rational result.  Boxes refine by halvings, from a
number's own box.  Numbers combine only through this module's functions;
RealAlg defines only ==.

Equality and sign tests are exact and count no roots.  A divisor of the
defpoly has at most one root in the box, a simple one, and none at the
endpoints, so it has one exactly when it changes sign across the box: p(a)
is zero exactly when gcd(defpoly, p) changes sign across a's box, and two
irrationals are equal exactly when the gcd of their defpolys changes sign
across the overlap of their boxes.  A nonzero p(a) takes its sign from p's
interval extension over a box narrow enough that it excludes 0.

A sum, product, polynomial image or n-th root is certified once its
resultant defpoly D changes sign across an enclosure built from the source
boxes and the interval extension of D' there excludes 0: D is then strictly
monotone on the enclosure, so the value is its only root there.

div(b, a) of irrationals whose defpolys A and B have one degree n first
reads a candidate rational c off their coefficients, for B(x) = c**n A(x/c)
(the critical values of an affine conjugate are such scaled conjugates), and
returns c when one comparison certifies c*a == b; any other quotient is
mul(b, inverse(a)), through the product resultant.

The defpoly takes opposite signs at the two endpoints, so bisection decides
by its sign at the midpoint (a + c)/2m (`UniPoly.sign_at_ratio`, integer
Horner).  `refine` checks the invariant once on entry, by a Sturm count
cached per box, and raises ArithmeticError when it fails; the only other
Sturm counts isolate roots.  New defpolys are built from the integer
coefficients `UniPoly.ints`.

`to_float` gives once the double that the box's midpoint, refined below
2**-80, rounds to, certified by two exact signs where they can (`_rounded`);
the box stays as it was, since the JSON renders the interval from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from math import comb, gcd as _int_gcd, inf, lcm as _int_lcm, nextafter
from typing import Callable, Iterable, Iterator, Optional

from .polyalg import (
    RatLike,
    UniPoly,
    cauchy_root_bound,
    count_roots_between,
    interval_eval_ratio,
    linear_root,
    poly_gcd,
    resultant,
    sign,
    square_free_part,
)

#: to_float refines the isolating interval below 2**-_FLOAT_BITS
_FLOAT_BITS = 80

#: probe rounds spent looking for a small-denominator rational in a fresh
#: isolating interval; catches every rational of modest height
_RATIONAL_PROBE_ROUNDS = 4


def _simplest(a: int, c: int, m: int) -> tuple[int, int]:
    """(h, k), coprime with k > 0, for the rational h/k with the smallest
    denominator in (a/m, c/m).

    For 0 <= lo < hi it is floor(lo) + 1 when that is below hi, else
    floor(lo) + 1/x for x the answer on (1/(hi - floor lo), 1/(lo - floor lo)),
    whose upper end is infinite (d == 0) when lo is an integer.  The loop runs
    on the integers of lo = a/b and hi = c/d and folds the convergent h/k as
    it goes; on hi <= 0 it runs on (-hi, -lo) and negates.
    """
    if a >= c:
        raise ValueError("empty interval")
    if a < 0 < c:
        return 0, 1
    s, a, c = (-1, -c, -a) if c <= 0 else (1, a, c)
    b = d = m
    h, h_, k, k_ = 1, 0, 0, 1  # the convergent h/k so far, and the one before
    while True:
        fl = a // b
        if c > (fl + 1) * d:
            return s * ((fl + 1) * h + h_), (fl + 1) * k + k_
        h, h_, k, k_ = fl * h + h_, h, fl * k + k_, k
        a, b, c, d = d, c - fl * d, b, a - fl * b


def _norm(a: int, c: int, m: int) -> tuple[int, int, int]:
    """The box (a/m, c/m) with gcd(a, c, m) = 1, its one form."""
    g = _int_gcd(a, c, m)
    return a // g, c // g, m // g


class RealAlg:
    """A real algebraic number with a certified isolating interval."""

    __slots__ = ("defpoly", "_a", "_c", "_m", "_q", "_flt")

    def __init__(self, defpoly: UniPoly, a: int, c: int, m: int):
        # the one root of defpoly in (a/m, c/m), for integers a < c and m > 0;
        # a rational is built by from_rational
        if a >= c:
            raise ValueError("empty isolating interval")
        self.defpoly, (self._a, self._c, self._m) = defpoly, _norm(a, c, m)
        # _flt is the rounded value; filled by to_float, which leaves the box as it is
        self._q = self._flt = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value: RatLike) -> "RealAlg":
        v = value if type(value) is Fraction else Fraction(value)
        n, d = v.as_integer_ratio()
        x = object.__new__(RealAlg)
        x.defpoly, x._a, x._c, x._m, x._q, x._flt = linear_root(v), n, n, d, v, None
        return x

    # -- basic queries -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._q is not None

    @property
    def lo(self) -> Fraction:  # built on read, as hi is
        return Fraction(self._a, self._m) if self._q is None else self._q

    @property
    def hi(self) -> Fraction:
        return Fraction(self._c, self._m) if self._q is None else self._q

    def __repr__(self) -> str:
        if self.is_rational:
            return f"RealAlg({self.lo})"
        return f"RealAlg({self.defpoly!r} on ({self.lo}, {self.hi}))"

    # -- refinement --------------------------------------------------------

    def refine(self, halvings: int) -> "RealAlg":
        """The same number, its box (a/m, c/m) halved at (a + c)/2m `halvings`
        times, in integers; a midpoint that is the root gives a rational, its
        one Fraction."""
        if self.is_rational or not halvings:
            return self
        p, a, c, m = self.defpoly, self._a, self._c, self._m
        if _count_pair(p, a, c, m) != 1:
            raise ArithmeticError("isolating interval does not hold exactly one root; internal bug")
        s_lo = p.sign_at_ratio(a, m)
        if s_lo == p.sign_at_ratio(c, m):
            raise ArithmeticError("defpoly has no sign change on its isolating interval; internal bug")
        for _ in range(halvings):
            mid, m = a + c, 2 * m
            s_mid = p.sign_at_ratio(mid, m)
            if s_mid == 0:
                return RealAlg.from_rational(Fraction(mid, m))
            if s_mid == s_lo:
                a, c = mid, 2 * c
            else:
                a, c = 2 * a, mid
        return RealAlg(p, a, c, m)

    def to_float(self) -> float:
        """The double that the box's midpoint, refined below 2**-80, rounds to."""
        if self._flt is None:
            self._flt = float(self._q) if self.is_rational else _rounded(self)
        return self._flt

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        return compare(self, _ZERO)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RealAlg.from_rational(other)
        return compare(self, other) == 0 if isinstance(other, RealAlg) else NotImplemented

    __hash__ = None  # semantic equality is not hash-compatible


_ZERO = RealAlg.from_rational(0)


@lru_cache
def _count_pair(defpoly: UniPoly, a: int, c: int, m: int) -> int:
    """Sturm's count on the box (a/m, c/m), given in its one form."""
    return count_roots_between(defpoly, a, c, m)


def _rounded(a: RealAlg) -> float:
    """to_float of an irrational a: Newton's float root x in a's box halved
    once by refine (rtsafe to a relative step of 1e-12, then one exact step),
    when two exact signs put a inside x's rounding interval shrunk by 2**-81
    at each end, so that every 2**-80 box's midpoint rounds to x; else refine."""
    r = a.refine(halvings=1)  # refine's entry check, and one halving
    p, s_lo = r.defpoly, r.defpoly.sign_at_ratio(r._a, r._m)  # 0 if the halving hit a rational a: no sign matches
    try:
        x0, x1, x = r._a / r._m, r._c / r._m, (r._a + r._c) / (2 * r._m)
        for _ in range(100):
            v, d, _ = p.eval_float_d2(x)
            x0, x1 = (x, x1) if v * s_lo > 0 else (x0, x)
            q = v / d if d else inf
            if abs(q) <= 1e-12 * abs(x):
                break
            x = x - q if x0 < x - q < x1 else 0.5 * x0 + 0.5 * x1
        x -= float(p(Fraction(x))) / p.eval_float_d2(x)[1]
        ratios = [y.as_integer_ratio() for y in (nextafter(x, -inf), x, nextafter(x, inf))]
    except (OverflowError, ValueError, ZeroDivisionError):  # inf, nan or a zero derivative
        pass
    else:
        m = max(2**82, *(d for _, d in ratios))  # prev, x and next over m; the bounds over 2m
        prev, xm, nxt = (n * (m // d) for n, d in ratios)
        below, above, m = prev + xm + (m >> 80), nxt + xm - (m >> 80), 2 * m
        if below < above and p.sign_at_ratio(below, m) == s_lo and p.sign_at_ratio(above, m) == -s_lo:
            return x
    # a's own box, as the bisection that the halving began, halved the least k
    # times that leave it at most 2**-80 wide: 2**k >= ceil((c - a) * 2**80 / m)
    r = a.refine(((((a._c - a._a) << _FLOAT_BITS) - 1) // a._m).bit_length())
    return (r._a + r._c) / (2 * r._m)  # the midpoint, correctly rounded; a rational's a/m


# ---------------------------------------------------------------------------
# Certified construction from a candidate defining polynomial + enclosure
# ---------------------------------------------------------------------------


def _try_make(D: UniPoly, a: int, c: int, m: int) -> Optional[RealAlg]:
    """Certify the enclosure (a/m, c/m) of a root of the square-free D, or None.

    When D changes sign across the box and the interval extension of D'
    excludes 0, D is strictly monotone on the closed box (the monotonicity
    test of interval analysis), so the root the enclosure holds is D's only
    root there.  Otherwise the caller narrows its sources and retries.  Only
    the signs of the integer bounds are read.
    """
    if D.sign_at_ratio(a, m) * D.sign_at_ratio(c, m) >= 0:
        return None
    d_lo, d_hi, _ = interval_eval_ratio(D.derivative(), a, c, m)
    if d_lo <= 0 <= d_hi:
        return None
    return _probe(D, a, c, m)


def _probe(D: UniPoly, a: int, c: int, m: int) -> RealAlg:
    """The one root of D in (a/m, c/m), where D changes sign: a small
    rational when one of a few probes hits it, else D on the box the probes
    leave."""
    s_lo = D.sign_at_ratio(a, m)
    for _ in range(_RATIONAL_PROBE_ROUNDS):
        h, k = _simplest(a, c, m)
        s_cand = D.sign_at_ratio(h, k)
        if s_cand == 0:
            return RealAlg.from_rational(Fraction(h, k))
        if s_cand == s_lo:
            a, c, m = h * m, c * k, m * k
        else:
            a, c, m = a * k, h * m, m * k
    return _root_in(D, a, c, m)


def _root_in(D: UniPoly, a: int, c: int, m: int) -> RealAlg:
    """The one root of D in (a/m, c/m); a linear D gives it as a rational."""
    if D.degree == 1:
        return RealAlg.from_rational(Fraction(-D.ints[0], D.ints[1]))
    return RealAlg(D.monic(), a, c, m)


def _narrowed(*nums: RealAlg) -> Iterator[tuple[RealAlg, ...]]:
    """nums, then nums refined by k = 1, 3, 7, ... halvings, each from its
    own box, so that refine's entry count is one cached lookup per number.
    The numbers must be irrational."""
    yield nums
    k = 1
    while True:
        yield tuple(a.refine(halvings=k) for a in nums)
        k = 2 * k + 1


def _certified_image(
    D: UniPoly,
    enclose: Callable[..., tuple[int, int, int]],
    fallback: Callable[..., RealAlg],
    *sources: RealAlg,
) -> RealAlg:
    """The root of D inside the box enclose(*sources), certified by _try_make.

    The source boxes shrink until _try_make accepts the enclosure; once a
    source refines to a rational, fallback(*sources) computes the value
    instead.
    """
    for srcs in _narrowed(*sources):
        if any(s.is_rational for s in srcs):
            return fallback(*srcs)
        made = _try_make(D, *enclose(*srcs))
        if made is not None:
            return made


# ---------------------------------------------------------------------------
# Real root isolation
# ---------------------------------------------------------------------------


def isolate_real_roots(p: UniPoly) -> list[RealAlg]:
    """All distinct real roots of p, strictly increasing, certified."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    q = square_free_part(p)
    b, d = cauchy_root_bound(q).as_integer_ratio()
    roots: list[RealAlg] = []
    # boxes, each in its one form, to split and rational roots found between two, each box's right part pushed
    # first so that the roots come out in increasing order; a stack, as clustered roots can take a thousand halvings
    stack: list = [(-b, b, d)]
    while stack:
        box = stack.pop()
        if isinstance(box, RealAlg):
            roots.append(box)
            continue
        a, c, m = box
        n = _count_pair(q, a, c, m)
        if n == 1:
            roots.append(_probe(q, a, c, m))
        elif n > 1:
            if q.sign_at_ratio(a + c, 2 * m) != 0:
                stack += [_norm(a + c, 2 * c, 2 * m), _norm(2 * a, a + c, 2 * m)]
                continue
            x, e, k = 2 * (a + c), c - a, 4 * m  # the midpoint x/k; eps = e/k, a quarter of the box, then halved
            while (
                q.sign_at_ratio(x - e, k) == 0
                or q.sign_at_ratio(x + e, k) == 0
                or _count_pair(q, *_norm(x - e, x + e, k)) != 1
            ):
                x, k = 2 * x, 2 * k
            s = k // m
            stack += [_norm(x + e, c * s, k), RealAlg.from_rational(Fraction(a + c, 2 * m)), _norm(a * s, x - e, k)]
    return roots


# ---------------------------------------------------------------------------
# Exact sign and order
# ---------------------------------------------------------------------------


def sign_at(p: UniPoly, a: RealAlg) -> int:
    """Exact sign of p(a)."""
    if a.is_rational:
        return p.sign_at_ratio(a._a, a._m)
    # g divides the square-free defpoly, so it has at most one root in the
    # box, a simple one, and none at its endpoints: p(a) = g(a) = 0 exactly
    # when g changes sign across the box
    g = poly_gcd(a.defpoly, p)
    if g.sign_at_ratio(a._a, a._m) != g.sign_at_ratio(a._c, a._m):
        return 0
    # p(a) != 0: narrow the box until p's interval extension excludes 0
    for (r,) in _narrowed(a):
        if r.is_rational:
            return p.sign_at_ratio(r._a, r._m)
        p_lo, p_hi, _ = interval_eval_ratio(p, r._a, r._c, r._m)
        if p_lo > 0:
            return 1
        if p_hi < 0:
            return -1


def compare(a: RealAlg, b: RealAlg) -> int:
    """Exact total-order comparison: -1, 0 or +1."""
    if a.is_rational and b.is_rational:
        return sign(a._a * b._m - b._a * a._m)
    if b.is_rational:
        return _compare_with_rational(b, a)
    if a.is_rational:
        return -_compare_with_rational(a, b)
    # both irrational.  On the overlap of the boxes, over the denominator
    # m, gcd(Da, Db) has at most one root, a simple one, and none at the
    # endpoints, which are box endpoints: a == b exactly when it changes
    # sign across the overlap
    lo, hi, m = max(a._a * b._m, b._a * a._m), min(a._c * b._m, b._c * a._m), a._m * b._m
    if lo < hi:
        g = poly_gcd(a.defpoly, b.defpoly)
        if g.sign_at_ratio(lo, m) != g.sign_at_ratio(hi, m):
            return 0
    # distinct: separate the boxes
    for ra, rb in _narrowed(a, b):
        if ra.is_rational or rb.is_rational:
            return compare(ra, rb)
        if ra._c * rb._m <= rb._a * ra._m:
            return -1
        if rb._c * ra._m <= ra._a * rb._m:
            return 1


def _compare_with_rational(r: RealAlg, b: RealAlg) -> int:
    """sign(b - r) for a rational r and an irrational b."""
    n, d = r._a, r._m
    if n * b._m <= b._a * d:
        return 1
    if n * b._m >= b._c * d:
        return -1
    s_r = b.defpoly.sign_at_ratio(n, d)
    if s_r == 0:
        return 0
    return 1 if s_r == b.defpoly.sign_at_ratio(b._a, b._m) else -1


def ratios_apart(pairs: Iterable[tuple[RealAlg, RealAlg]]) -> bool:
    """Whether the boxes show two of the quotients b / a to differ.  Where
    a's closed box excludes 0, b / a lies in the hull of the four quotients
    of box ends, and two disjoint hulls hold two different quotients (exact
    interval arithmetic; Moore, Interval Analysis)."""
    hulls = []  # (l, u, d): (b_x/b_m) / (a_y/a_m) over the positive denominator d = b_m a_a a_c
    for a, b in pairs:
        if not a._a <= 0 <= a._c:
            ends = (b._a * a._c, b._a * a._a, b._c * a._c, b._c * a._a)
            hulls.append((a._m * min(ends), a._m * max(ends), b._m * a._a * a._c))
    return any(l * e > u * d for l, _, d in hulls for _, u, e in hulls)


# ---------------------------------------------------------------------------
# Resultant compositions (cached on the defining polynomials)
# ---------------------------------------------------------------------------


@lru_cache
def _sum_defpoly(A: UniPoly, B: UniPoly) -> UniPoly:
    """Polynomial vanishing at a+b: Res_t(A(t), B(x - t))."""
    b, n = B.ints, B.degree
    # coefficient of t^k in B(x - t) is sum_i (-1)^k C(k+i, k) b_(k+i) x^i,
    # up to B's content, which scales the resultant only
    comp = [[(-1) ** k * comb(k + i, k) * b[k + i] for i in range(n - k + 1)] for k in range(n + 1)]
    return square_free_part(resultant(A, comp))


@lru_cache
def _product_defpoly(A: UniPoly, B: UniPoly) -> UniPoly:
    """Polynomial vanishing at a*b: Res_t(A(t), t^n B(x/t)), B(0) != 0."""
    # coefficient of t^(n-k) is b_k x^k, up to B's content
    rows = [[0] * k + [b] for k, b in enumerate(B.ints)]
    return square_free_part(resultant(A, rows[::-1]))


@lru_cache
def _eval_defpoly(A: UniPoly, P: UniPoly) -> UniPoly:
    """Polynomial vanishing at P(a): Res_t(A(t), x - P(t)), taken as
    Res_t(A(t), d*x - n*Q(t)) for P = (n/d) * Q with Q in Z[t]."""
    n, d = P.content.as_integer_ratio()
    rows = [[-n * c] for c in P.ints]
    rows[0].append(d)
    return square_free_part(resultant(A, rows))


def _avoid_zero(a: RealAlg) -> RealAlg:
    """a with 0 outside its closed box and no zero root in its defining
    polynomial, or a as a rational, which is 0 exactly when a is."""
    if a._a < 0 < a._c and not a.defpoly.ints[0]:
        return _ZERO  # 0 is the defpoly's one root in the box
    r = a
    if a._a <= 0 <= a._c:
        r = next(r for (r,) in _narrowed(a) if r.is_rational or not r._a <= 0 <= r._c)
    D = r.defpoly
    return r if r.is_rational or D.ints[0] else _root_in(UniPoly(D.ints[1:]), r._a, r._c, r._m)


# ---------------------------------------------------------------------------
# Field operations
# ---------------------------------------------------------------------------


def neg(a: RealAlg) -> "RealAlg":
    if a.is_rational:
        return RealAlg.from_rational(-a._q)
    D = UniPoly(-c if i % 2 else c for i, c in enumerate(a.defpoly.ints))  # D(-t)
    return RealAlg(D.monic(), -a._c, -a._a, a._m)


def abs_alg(a: RealAlg) -> RealAlg:
    return neg(a) if a.sign() < 0 else a


def add(a: RealAlg, b: RealAlg) -> RealAlg:
    if a.is_rational and b.is_rational:
        return RealAlg.from_rational(a._q + b._q)
    if a.is_rational:
        return add(b, a)
    if b.is_rational:
        u, v = b._a, b._m  # roots move by +u/v: D(t - u/v)
        D = a.defpoly.compose(UniPoly((-b._q, 1))).monic()
        return RealAlg(D, a._a * v + u * a._m, a._c * v + u * a._m, a._m * v)
    D = _sum_defpoly(a.defpoly, b.defpoly)
    return _certified_image(
        D, lambda ra, rb: (ra._a * rb._m + rb._a * ra._m, ra._c * rb._m + rb._c * ra._m, ra._m * rb._m), add, a, b
    )


def mul(a: RealAlg, b: RealAlg) -> RealAlg:
    if a.is_rational and b.is_rational:
        return RealAlg.from_rational(a._q * b._q)
    if a.is_rational:
        return mul(b, a)
    if b.is_rational:
        # roots scale by u/v: u**n * D(t v/u), in integers
        u, v = b._a, b._m
        if u == 0:
            return RealAlg.from_rational(0)
        n = a.defpoly.degree
        D = UniPoly(c * u ** (n - i) * v**i for i, c in enumerate(a.defpoly.ints))
        lo, hi = sorted((a._a * u, a._c * u))
        return RealAlg(D.monic(), lo, hi, a._m * v)
    a = _avoid_zero(a) if a._a <= 0 <= a._c else a
    if a.is_rational:
        return mul(a, b)
    b = _avoid_zero(b)
    if b.is_rational:
        return mul(a, b)
    return _certified_image(_product_defpoly(a.defpoly, b.defpoly), _product_box, mul, a, b)


def _product_box(a: RealAlg, b: RealAlg) -> tuple[int, int, int]:
    cands = (a._a * b._a, a._a * b._c, a._c * b._a, a._c * b._c)
    return min(cands), max(cands), a._m * b._m


def inverse(b: RealAlg) -> RealAlg:
    if b.is_rational:
        if b._a == 0:
            raise ZeroDivisionError("division by zero")
        return RealAlg.from_rational(1 / b._q)
    b = _avoid_zero(b)
    if b.is_rational:
        return inverse(b)
    D = UniPoly(b.defpoly.ints[::-1]).monic()  # t**n * D(1/t); D(0) != 0
    # (m/c, m/a) over the positive denominator a*c: a and c have one sign
    return RealAlg(D, b._m * b._a, b._m * b._c, b._a * b._c)


def div(b: RealAlg, a: RealAlg) -> RealAlg:
    """b / a.  Irrationals whose defpolys have one degree may be scaled
    conjugates, b = c*a for a rational c: that c is tried first, and taken
    once one comparison certifies c*a == b."""
    if not (a.is_rational or b.is_rational) and a.defpoly.degree == b.defpoly.degree:
        c = _conjugate_scale(a, b)
        if c is not None and compare(mul(a, c), b) == 0:
            return c
    return mul(b, inverse(a))


def _conjugate_scale(a: RealAlg, b: RealAlg) -> Optional[RealAlg]:
    """The one rational c with the sign of a*b that can give B(x) =
    c**n A(x/c) for the monic defpolys A and B of degree n, or None.  At the
    lowest k with A_k != 0 (k < n, as A is square-free), B_k = c**(n-k) A_k,
    so c is an exact (n-k)-th root of B_k / A_k."""
    A, B = a.defpoly.ints, b.defpoly.ints
    n = len(A) - 1
    k = next(k for k, x in enumerate(A) if x)
    q = Fraction(B[k] * A[n], B[n] * A[k])  # the ints' last entries are positive
    s, m = a.sign() * b.sign(), n - k
    if not s or sign(q) != s**m:  # a zero operand takes mul's path
        return None
    root_num, root_den = _exact_int_nth_root(abs(q.numerator), m), _exact_int_nth_root(q.denominator, m)
    if root_num is None or root_den is None:
        return None
    return RealAlg.from_rational(Fraction(s * root_num, root_den))


def eval_alg(p: UniPoly, a: RealAlg) -> RealAlg:
    """The algebraic number p(a)."""
    if a.is_rational:
        return RealAlg.from_rational(p(a._q))
    if p.is_constant:
        return RealAlg.from_rational(p(0))
    D = _eval_defpoly(a.defpoly, p)
    return _certified_image(D, lambda r: interval_eval_ratio(p, r._a, r._c, r._m), partial(eval_alg, p), a)


def _exact_int_nth_root(n: int, k: int) -> Optional[int]:
    """Integer k-th root of n >= 0 when exact, else None."""
    if n in (0, 1):
        return n
    # Newton's method on integers, from 2**ceil(bits/k) > n**(1/k) down to
    # floor(n**(1/k))
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def nth_root_pos(a: RealAlg, n: int) -> RealAlg:
    """The unique positive real n-th root of a > 0."""
    if n < 1:
        raise ValueError("root order must be >= 1")
    if n == 1:
        return a
    if a.sign() <= 0:
        raise ValueError("nth_root_pos requires a positive radicand")
    if a.is_rational:
        np_ = _exact_int_nth_root(a._a, n)
        dp_ = _exact_int_nth_root(a._m, n)
        if np_ is not None and dp_ is not None:
            return RealAlg.from_rational(Fraction(np_, dp_))
        # x**n - v increases for x > 0, so the positive bracket isolates its root
        return _probe(UniPoly((-a._q,) + (0,) * (n - 1) + (1,)), *_root_bracket(a._a, a._c, a._m, n))
    ra = _avoid_zero(a)  # positive interval, defpoly nonzero at 0
    if ra.is_rational:
        return nth_root_pos(ra, n)
    return _certified_image(
        ra.defpoly.stretch(n),
        lambda r: _root_bracket(r._a, r._c, r._m, n),
        lambda r: nth_root_pos(r, n),
        ra,
    )


def _root_bracket(lo: int, hi: int, den: int, n: int) -> tuple[int, int, int]:
    """A positive box (a/m, c/m) with (a/m)**n < lo/den <= hi/den < (c/m)**n,
    for 0 < lo <= hi, bisected over one denominator: 64 times at most for a
    rational radicand, and for an interval until a midpoint's power lands in
    it, so that the box narrows with the interval however far the root is
    from the first guess."""
    a, m = (lo, den) if lo < den else (1, 1)
    while a**n * den >= lo * m**n:
        m *= 2
    c, k = (hi, den) if hi > den else (1, 1)
    while c**n * den <= hi * k**n:
        c *= 2
    s = _int_lcm(m, k)
    a, c, m = a * (s // m), c * (s // k), s
    for _ in range(64) if lo == hi else count():
        mid, m2 = a + c, 2 * m
        mid_n, m2_n = mid**n * den, m2**n
        if mid_n < lo * m2_n:
            a, c, m = mid, 2 * c, m2
        elif mid_n > hi * m2_n:
            a, c, m = 2 * a, mid, m2
        else:
            break
    return a, c, m


def pow_int(a: RealAlg, k: int) -> RealAlg:
    """a**k for an integer k >= 1."""
    if k < 1:
        raise ValueError("pow_int needs an exponent k >= 1")
    if a.is_rational:
        return RealAlg.from_rational(a._q**k)
    return eval_alg(UniPoly((0,) * k + (1,)), a)
