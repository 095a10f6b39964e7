"""Exact real algebraic numbers.

A number is stored as a square-free monic defining polynomial together with
an isolating rational interval: either lo == hi and the number is the
rational lo (with defpoly t - lo), or the defpoly has degree at least 2 and
exactly one real root in (lo, hi), and neither endpoint is a root.
Intervals are refined on demand, always from a number's own box.  Numbers
combine only through this module's functions; RealAlg defines only ==.

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
by its sign at the midpoint (`UniPoly.sign_at`, integer Horner).  `refine`
checks the invariant once on entry, by a Sturm count cached per box, and
raises ArithmeticError when it fails; the only other Sturm counts isolate
roots.  New defpolys are built from the integer coefficients `UniPoly.ints`.

`to_float` gives once the double that the box's midpoint, refined below
2**-80, rounds to, certified by two exact signs where they can (`_rounded`);
lo and hi stay as they were, since the JSON renders the interval from them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, inf, lcm as _int_lcm, nextafter
from typing import Callable, Iterator, Optional

from .polyalg import (
    RatLike,
    UniPoly,
    cauchy_root_bound,
    count_roots_between,
    interval_eval,
    linear_root,
    poly_gcd,
    resultant,
    sign,
    square_free_part,
)

#: to_float refines the isolating interval below this width
_FLOAT_WIDTH = Fraction(1, 2**80)

#: probe rounds spent looking for a small-denominator rational in a fresh
#: isolating interval; catches every rational of modest height
_RATIONAL_PROBE_ROUNDS = 4


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator in the open interval (lo, hi).

    For 0 <= lo < hi it is floor(lo) + 1 when that is below hi, else
    floor(lo) + 1/x for x the answer on (1/(hi - floor lo), 1/(lo - floor lo)),
    whose upper end is infinite (d == 0) when lo is an integer.  The loop runs
    on the integers of lo = a/b and hi = c/d and folds the convergent h/k as
    it goes; one Fraction is built.
    """
    if lo >= hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    h, h_, k, k_ = 1, 0, 0, 1  # the convergent h/k so far, and the one before
    while True:
        fl = a // b
        if c > (fl + 1) * d:
            return Fraction((fl + 1) * h + h_, (fl + 1) * k + k_)
        h, h_, k, k_ = fl * h + h_, h, fl * k + k_, k
        a, b, c, d = d, c - fl * d, b, a - fl * b


class RealAlg:
    """A real algebraic number with a certified isolating interval."""

    __slots__ = ("defpoly", "lo", "hi", "_flt")

    def __init__(self, defpoly: UniPoly, lo: Fraction, hi: Fraction):
        # Internal constructor; use from_rational / isolate_real_roots /
        # the field operations below to build values.
        self.defpoly = defpoly
        self.lo = lo
        self.hi = hi
        # the rounded value; filled by to_float, which leaves lo and hi as
        # they are
        self._flt: float | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value: RatLike) -> "RealAlg":
        v = value if type(value) is Fraction else Fraction(value)
        return RealAlg(linear_root(v), v, v)

    # -- basic queries -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    def __repr__(self) -> str:
        if self.is_rational:
            return f"RealAlg({self.lo})"
        return f"RealAlg({self.defpoly!r} on ({self.lo}, {self.hi}))"

    # -- refinement --------------------------------------------------------

    def refine(self, width: RatLike) -> "RealAlg":
        """Same number with interval width at most `width`."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        if self.is_rational or self.hi - self.lo <= width:
            return self
        p, lo, hi = self.defpoly, self.lo, self.hi
        if _count_pair(p, lo, hi) != 1:
            raise ArithmeticError("isolating interval does not hold exactly one root; internal bug")
        s_lo = p.sign_at(lo)
        if s_lo == p.sign_at(hi):
            raise ArithmeticError("defpoly has no sign change on its isolating interval; internal bug")
        # bisect over a common denominator, lo = a/m and hi = c/m, so that
        # each step is integer work; Fractions are built only at the end
        m = _int_lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (m // lo.denominator)
        c = hi.numerator * (m // hi.denominator)
        wn, wd = width.numerator, width.denominator
        while (c - a) * wd > wn * m:
            mid, m = a + c, 2 * m
            s_mid = p.sign_at_ratio(mid, m)
            if s_mid == 0:
                return RealAlg.from_rational(Fraction(mid, m))
            if s_mid == s_lo:
                a, c = mid, 2 * c
            else:
                a, c = 2 * a, mid
        return RealAlg(p, Fraction(a, m), Fraction(c, m))

    def to_float(self) -> float:
        """The double that the box's midpoint, refined below 2**-80, rounds to."""
        if self._flt is None:
            self._flt = float(self.lo) if self.is_rational else _rounded(self)
        return self._flt

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        return compare(self, _ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RealAlg, int, Fraction)):
            return NotImplemented
        return compare(self, _coerce(other)) == 0

    __hash__ = None  # semantic equality is not hash-compatible


_ZERO = RealAlg.from_rational(0)


def _coerce(value) -> RealAlg:
    if isinstance(value, RealAlg):
        return value
    if isinstance(value, (int, Fraction)):
        return RealAlg.from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as RealAlg")


@lru_cache(maxsize=None)
def _count_pair(defpoly: UniPoly, lo: Fraction, hi: Fraction) -> int:
    return count_roots_between(defpoly, lo, hi)


def _rounded(a: RealAlg) -> float:
    """to_float of an irrational a: Newton's float root x in a's box halved
    once by refine (rtsafe to a relative step of 1e-12, then one exact step),
    when two exact signs put a inside x's rounding interval shrunk by 2**-81
    at each end, so that every 2**-80 box's midpoint rounds to x; else refine."""
    r = a.refine((a.hi - a.lo) / 2)  # refine's entry check, and one halving
    p, s_lo = r.defpoly, r.defpoly.sign_at(r.lo)  # 0 if the halving hit a rational a: no sign matches
    try:
        x0, x1, x = float(r.lo), float(r.hi), float((r.lo + r.hi) / 2)
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
    r = a.refine(_FLOAT_WIDTH)  # from a's own box, as the bisection that the halving began
    return float(r.lo) if r.is_rational else float((r.lo + r.hi) / 2)


# ---------------------------------------------------------------------------
# Certified construction from a candidate defining polynomial + enclosure
# ---------------------------------------------------------------------------


def _try_make(D: UniPoly, lo: Fraction, hi: Fraction) -> Optional[RealAlg]:
    """Certify the enclosure (lo, hi) of a root of the square-free D, or None.

    When D changes sign across the box and the interval extension of D'
    excludes 0, D is strictly monotone on [lo, hi] (the monotonicity test of
    interval analysis), so the root the enclosure holds is D's only root
    there.  Otherwise the caller narrows its sources and retries.
    """
    if D.sign_at(lo) * D.sign_at(hi) >= 0:
        return None
    d_lo, d_hi = interval_eval(D.derivative(), lo, hi)
    if d_lo <= 0 <= d_hi:
        return None
    return _probe(D, lo, hi)


def _probe(D: UniPoly, lo: Fraction, hi: Fraction) -> RealAlg:
    """The one root of D in (lo, hi), where D changes sign: a small rational
    when one of a few probes hits it, else D on the box the probes leave."""
    s_lo = D.sign_at(lo)
    for _ in range(_RATIONAL_PROBE_ROUNDS):
        cand = simplest_between(lo, hi)
        s_cand = D.sign_at(cand)
        if s_cand == 0:
            return RealAlg.from_rational(cand)
        if s_cand == s_lo:
            lo = cand
        else:
            hi = cand
    return _root_in(D, lo, hi)


def _root_in(D: UniPoly, lo: Fraction, hi: Fraction) -> RealAlg:
    """The one root of D in (lo, hi); a linear D gives it as a rational."""
    if D.degree == 1:
        return RealAlg.from_rational(Fraction(-D.ints[0], D.ints[1]))
    return RealAlg(D.monic(), lo, hi)


def _narrowed(*nums: RealAlg) -> Iterator[tuple[RealAlg, ...]]:
    """nums, then nums refined to widths w/2**k for k = 1, 3, 7, ..., each
    from its own box of width w, so that refine's entry count is one cached
    lookup per number.  The numbers must be irrational."""
    yield nums
    k = 1
    while True:
        yield tuple(a.refine((a.hi - a.lo) / 2**k) for a in nums)
        k = 2 * k + 1


def _certified_image(
    D: UniPoly,
    enclose: Callable[..., tuple[Fraction, Fraction]],
    fallback: Callable[..., RealAlg],
    *sources: RealAlg,
) -> RealAlg:
    """The root of D inside enclose(*sources), certified by _try_make.

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
    bound = cauchy_root_bound(q)
    roots: list[RealAlg] = []
    # boxes to split and rational roots found between two, each box's right part pushed first so that the
    # roots come out in increasing order; a stack, as clustered roots can take a thousand halvings
    stack: list = [(-bound, bound)]
    while stack:
        box = stack.pop()
        if isinstance(box, RealAlg):
            roots.append(box)
            continue
        lo, hi = box
        n = _count_pair(q, lo, hi)
        if n == 1:
            roots.append(_probe(q, lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            if q.sign_at(mid) != 0:
                stack += [(mid, hi), (lo, mid)]
                continue
            eps = (hi - lo) / 4
            while (
                q.sign_at(mid - eps) == 0
                or q.sign_at(mid + eps) == 0
                or _count_pair(q, mid - eps, mid + eps) != 1
            ):
                eps /= 2
            stack += [(mid + eps, hi), RealAlg.from_rational(mid), (lo, mid - eps)]
    return roots


# ---------------------------------------------------------------------------
# Exact sign and order
# ---------------------------------------------------------------------------


def sign_at(p: UniPoly, a: RealAlg) -> int:
    """Exact sign of p(a)."""
    if p.is_zero:
        return 0
    if a.is_rational:
        return p.sign_at(a.lo)
    # g divides the square-free defpoly, so it has at most one root in the
    # box, a simple one, and none at its endpoints: p(a) = g(a) = 0 exactly
    # when g changes sign across the box
    g = poly_gcd(a.defpoly, p)
    if g.sign_at(a.lo) != g.sign_at(a.hi):
        return 0
    # p(a) != 0: narrow the box until p's interval extension excludes 0
    for (r,) in _narrowed(a):
        if r.is_rational:
            return p.sign_at(r.lo)
        p_lo, p_hi = interval_eval(p, r.lo, r.hi)
        if p_lo > 0:
            return 1
        if p_hi < 0:
            return -1


def compare(a: RealAlg, b: RealAlg) -> int:
    """Exact total-order comparison: -1, 0 or +1."""
    if a.is_rational and b.is_rational:
        return sign(a.lo - b.lo)
    if b.is_rational:
        return _compare_with_rational(b.lo, a)
    if a.is_rational:
        return -_compare_with_rational(a.lo, b)
    # both irrational.  On the overlap of the boxes gcd(Da, Db) has at most
    # one root, a simple one, and none at the endpoints, which are box
    # endpoints: a == b exactly when it changes sign across the overlap
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo < hi:
        g = poly_gcd(a.defpoly, b.defpoly)
        if g.sign_at(lo) != g.sign_at(hi):
            return 0
    # distinct: separate the boxes
    for ra, rb in _narrowed(a, b):
        if ra.is_rational or rb.is_rational:
            return compare(ra, rb)
        if ra.hi <= rb.lo:
            return -1
        if rb.hi <= ra.lo:
            return 1


def _compare_with_rational(r: Fraction, b: RealAlg) -> int:
    """sign(b - r) for an irrational b."""
    if r <= b.lo:
        return 1
    if r >= b.hi:
        return -1
    s_r = b.defpoly.sign_at(r)
    if s_r == 0:
        return 0
    return 1 if s_r == b.defpoly.sign_at(b.lo) else -1


# ---------------------------------------------------------------------------
# Resultant compositions (cached on the defining polynomials)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sum_defpoly(A: UniPoly, B: UniPoly) -> UniPoly:
    """Polynomial vanishing at a+b: Res_t(A(t), B(x - t))."""
    b, n = B.ints, B.degree
    # coefficient of t^k in B(x - t) is sum_i (-1)^k C(k+i, k) b_(k+i) x^i,
    # up to B's content, which scales the resultant only
    comp = [[(-1) ** k * comb(k + i, k) * b[k + i] for i in range(n - k + 1)] for k in range(n + 1)]
    return square_free_part(resultant(A, comp))


@lru_cache(maxsize=None)
def _product_defpoly(A: UniPoly, B: UniPoly) -> UniPoly:
    """Polynomial vanishing at a*b: Res_t(A(t), t^n B(x/t)), B(0) != 0."""
    # coefficient of t^(n-k) is b_k x^k, up to B's content
    rows = [[0] * k + [b] for k, b in enumerate(B.ints)]
    return square_free_part(resultant(A, rows[::-1]))


@lru_cache(maxsize=None)
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
    if a.lo < 0 < a.hi and not a.defpoly.ints[0]:
        return _ZERO  # 0 is the defpoly's one root in the box
    r = a
    if a.lo <= 0 <= a.hi:
        r = next(r for (r,) in _narrowed(a) if r.is_rational or not r.lo <= 0 <= r.hi)
    D = r.defpoly
    return r if r.is_rational or D.ints[0] else _root_in(UniPoly(D.ints[1:]), r.lo, r.hi)


# ---------------------------------------------------------------------------
# Field operations
# ---------------------------------------------------------------------------


def neg(a: RealAlg) -> "RealAlg":
    if a.is_rational:
        return RealAlg.from_rational(-a.lo)
    D = UniPoly(-c if i % 2 else c for i, c in enumerate(a.defpoly.ints))  # D(-t)
    return RealAlg(D.monic(), -a.hi, -a.lo)


def abs_alg(a: RealAlg) -> RealAlg:
    return neg(a) if a.sign() < 0 else a


def add(a: RealAlg, b: RealAlg) -> RealAlg:
    if a.is_rational and b.is_rational:
        return RealAlg.from_rational(a.lo + b.lo)
    if a.is_rational:
        return add(b, a)
    if b.is_rational:
        r = b.lo  # roots move by +r: D(t - r)
        return RealAlg(a.defpoly.compose(UniPoly((-r, 1))).monic(), a.lo + r, a.hi + r)
    D = _sum_defpoly(a.defpoly, b.defpoly)
    return _certified_image(D, lambda ra, rb: (ra.lo + rb.lo, ra.hi + rb.hi), add, a, b)


def mul(a: RealAlg, b: RealAlg) -> RealAlg:
    if a.is_rational and b.is_rational:
        return RealAlg.from_rational(a.lo * b.lo)
    if a.is_rational:
        return mul(b, a)
    if b.is_rational:
        r = b.lo
        if r == 0:
            return RealAlg.from_rational(0)
        # roots scale by r = u/v: u**n * D(t/r), in integers
        u, v = r.as_integer_ratio()
        n = a.defpoly.degree
        D = UniPoly(c * u ** (n - i) * v**i for i, c in enumerate(a.defpoly.ints))
        lo, hi = sorted((a.lo * r, a.hi * r))
        return RealAlg(D.monic(), lo, hi)
    a = _avoid_zero(a) if a.lo <= 0 <= a.hi else a
    if a.is_rational:
        return mul(a, b)
    b = _avoid_zero(b)
    if b.is_rational:
        return mul(a, b)
    return _certified_image(_product_defpoly(a.defpoly, b.defpoly), _product_box, mul, a, b)


def _product_box(a: RealAlg, b: RealAlg) -> tuple[Fraction, Fraction]:
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return min(cands), max(cands)


def inverse(b: RealAlg) -> RealAlg:
    if b.is_rational:
        if b.lo == 0:
            raise ZeroDivisionError("division by zero")
        return RealAlg.from_rational(1 / b.lo)
    b = _avoid_zero(b)
    if b.is_rational:
        return inverse(b)
    D = UniPoly(b.defpoly.ints[::-1]).monic()  # t**n * D(1/t); D(0) != 0
    lo, hi = sorted((1 / b.hi, 1 / b.lo))
    return RealAlg(D, lo, hi)


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
        return RealAlg.from_rational(p(a.lo))
    if p.is_constant:
        return RealAlg.from_rational(p(0))
    D = _eval_defpoly(a.defpoly, p)
    return _certified_image(D, lambda r: interval_eval(p, r.lo, r.hi), partial(eval_alg, p), a)


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
        v = a.lo
        np_ = _exact_int_nth_root(v.numerator, n)
        dp_ = _exact_int_nth_root(v.denominator, n)
        if np_ is not None and dp_ is not None:
            return RealAlg.from_rational(Fraction(np_, dp_))
        # x**n - v increases for x > 0, so the positive bracket isolates its root
        return _probe(UniPoly((-v,) + (0,) * (n - 1) + (1,)), *_root_bracket(v, v, n))
    ra = _avoid_zero(a)  # positive interval, defpoly nonzero at 0
    if ra.is_rational:
        return nth_root_pos(ra, n)
    return _certified_image(
        ra.defpoly.stretch(n),
        lambda r: _root_bracket(r.lo, r.hi, n),
        lambda r: nth_root_pos(r, n),
        ra,
    )


def _root_bracket(lo: Fraction, hi: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Positive rational bracket (l, u) with l**n < lo <= hi < u**n."""
    l = min(Fraction(1), lo)
    while l**n >= lo:
        l /= 2
    u = max(Fraction(1), hi)
    while u**n <= hi:
        u *= 2
    # bisect in integers over a common denominator, l = a/m and u = c/m
    m = _int_lcm(l.denominator, u.denominator)
    a = l.numerator * (m // l.denominator)
    c = u.numerator * (m // u.denominator)
    for _ in range(64):
        mid, den = a + c, 2 * m
        mid_n, den_n = mid**n, den**n
        if mid_n * lo.denominator < lo.numerator * den_n:
            a, c, m = mid, 2 * c, den
        elif mid_n * hi.denominator > hi.numerator * den_n:
            a, c, m = 2 * a, mid, den
        else:
            break
    return Fraction(a, m), Fraction(c, m)


def pow_int(a: RealAlg, k: int) -> RealAlg:
    """a**k for an integer k >= 1."""
    if k < 1:
        raise ValueError("pow_int needs an exponent k >= 1")
    if a.is_rational:
        return RealAlg.from_rational(a.lo**k)
    return eval_alg(UniPoly((0,) * k + (1,)), a)
