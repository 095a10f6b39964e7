"""Zygotheties: the witness group for pairing height functions.

A zygothety is a pair of nonzero scale factors with equal signs together
with a pair of bi-Lipschitz self-maps of the line, composed with a twist
when the scales are negative.  The maps are symbolic descriptors evaluated
on demand; exact data (scales, limit slopes, the constants c) drives every
verdict, while numeric evaluation only feeds the witness harness and the
action spot-check.  Each map evaluates floats by one method, eval_floats,
and a branch map inverts through one routine, _invert_run; the scalar
eval_float is a batch of one, except a branch map's own, a run of one value,
which the spot-check calls.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple

from .lipclass import Orientation, critical_data
from .polyalg import UniPoly, sign
from .realalg import RealAlg, abs_alg, compare, inverse as alg_inverse, mul, neg, nth_root_pos, pow_int


class PLMap:
    """Monotone bijection of the reals, described symbolically; compared by identity."""

    __slots__ = ()

    def slope_power(self) -> tuple[int, RealAlg, int]:
        """(sign, R, n): the limit slope is sign * R**(1/n), R exact (0 iff sign is)."""
        raise NotImplementedError

    def limit_slope(self) -> RealAlg:
        """The common two-sided limit of m(t)/t, exact."""
        sgn, R, n = self.slope_power()
        mag = nth_root_pos(R, n) if sgn else R
        return mag if sgn > 0 else neg(mag)

    def inverse(self) -> "PLMap":
        raise NotImplementedError

    def eval_float(self, t: float) -> float:
        return self.eval_floats((t,))[0]

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        raise NotImplementedError


class Affine(PLMap):
    """t -> a*t + b with rational a != 0, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        self.a, self.b = a, b

    def slope_power(self) -> tuple[int, RealAlg, int]:
        return sign(self.a), RealAlg.from_rational(abs(self.a)), 1

    def inverse(self) -> "PLMap":
        return Affine(1 / self.a, -self.b / self.a)

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        a, b = float(self.a), float(self.b)
        return [a * t + b for t in ts]


def identity_map() -> Affine:
    return Affine(Fraction(1), Fraction(0))


class BranchMap(PLMap):
    """phi = (g restricted to a branch)^-1 o (c * f), branch by branch.

    The i-th interval cut out of the line by the critical points of f maps
    onto the matching interval of g: the i-th one for an increasing map, the
    mirror one for a decreasing map.  Inversion of g on a monotone branch is
    numeric (_invert_run: Newton inside a sign bracket, bisecting where a
    step would leave it) with exact interval endpoints; a batch takes each
    branch's values in one run, each stepping from the last point evaluated.
    Each branch keeps what cold runs repeat (_invert_run); no bit returned
    depends on it, and it dies with the map.
    """

    __slots__ = ("c", "increasing", "f", "g", "crits_f", "crits_g", "_flt")

    def __init__(self, c, increasing, f, g, crits_f, crits_g):
        self.c: RealAlg = c
        self.increasing: bool = increasing
        self.f: UniPoly = f
        self.g: UniPoly = g
        self.crits_f: tuple[RealAlg, ...] = tuple(crits_f)
        self.crits_g: tuple[RealAlg, ...] = tuple(crits_g)
        self._flt = None

    def slope_power(self) -> tuple[int, RealAlg, int]:
        """(orientation, |c*lc(f)/lc(g)|, deg f), once the ratio fits both."""
        deg = self.f.degree
        if deg != self.g.degree or deg < 1:
            raise ArithmeticError("branch map between heights of different or zero degree; internal bug")
        ratio = mul(self.c, RealAlg.from_rational(Fraction(self.f.leading, self.g.leading)))
        rs = ratio.sign()  # c*lc(f)/lc(g) > 0 for an even map, of the orientation's sign for an odd one
        if (rs > 0) != (self.increasing or deg % 2 == 0):
            raise ArithmeticError("branch map against the sign of c*lc(f)/lc(g); internal bug")
        return (1 if self.increasing else -1), (ratio if rs > 0 else neg(ratio)), deg

    def inverse(self) -> "PLMap":
        return BranchMap(
            alg_inverse(self.c),
            self.increasing,
            self.g,
            self.f,
            self.crits_g,
            self.crits_f,
        )

    def _floats(self):
        """f's critical points as floats, and for each branch of f the branch of g
        it maps onto, as _invert_run takes it: (c * s, g * s, its float ends, g * s
        at them, its memo), with s = 1 where g rises and -1 where it falls."""
        g, cs = self.g, self.crits_g
        ends = [-math.inf, *(x.to_float() for x in cs), math.inf]
        # g rises on a branch where g' > 0 at a rational inside it: between the
        # isolating boxes of its critical ends, or one past the outer box
        inner = [cs[0].lo - 1, *((a.hi + b.lo) / 2 for a, b in zip(cs, cs[1:])), cs[-1].hi + 1] if cs else [0]
        cflt, dg, branches = self.c.to_float(), g.derivative(), []
        for lo, hi, q in zip(ends, ends[1:], inner):
            rise = g if dg.sign_at(q) > 0 else -g  # -g's Horner passes give g's bits negated
            at = [rise.eval_float(e) if math.isfinite(e) else e for e in (lo, hi)]
            branches.append((cflt if rise is g else -cflt, rise, lo, hi, *at, {}))
        self._flt = ([x.to_float() for x in self.crits_f], branches if self.increasing else branches[::-1])
        return self._flt

    def eval_float(self, t: float) -> float:
        cf, branches = self._flt or self._floats()
        branch = branches[bisect.bisect_left(cf, t)]
        y = branch[0] * self.f.eval_float(t)
        return next(_invert_run(branch, (y,))) if math.isfinite(y) else math.nan

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        """eval_float at each of ts: each branch inverts its values in one
        _invert_run, taken in the order of their preimages along it; one
        value (the spot-check's, through Neg or NegConj) is eval_float's run.
        A value whose c * f is not finite is NaN, and stays out of its run."""
        if len(ts) == 1:
            return [self.eval_float(ts[0])]
        cf, branches = self._flt or self._floats()
        f_at, out, kept = self.f.eval_float, [math.nan] * len(ts), range(len(ts))
        js = [bisect.bisect_left(cf, t) for t in ts] if cf else [0] * len(ts)
        ys = [branches[j][0] * f_at(t) for j, t in zip(js, ts)]  # g * s rises: ascending ys
        if not math.isfinite(sum(ys)):  # an infinite y would push its run's end to infinity
            kept = [k for k in kept if math.isfinite(ys[k])]
        order = sorted(kept, key=ys.__getitem__)
        for j, branch in enumerate(branches):
            ks = [k for k in order if js[k] == j] if cf else order
            for k, u in zip(ks, _invert_run(branch, [ys[k] for k in ks])):
                out[k] = u
        return out


def _invert_run(branch, ys: Sequence[float]) -> Iterator[float]:
    """The preimages of the ascending ys on one monotone branch, as
    BranchMap._floats keeps it; g below is g * s, which rises there.

    An unbounded end is pushed out by doubling steps until it brackets every
    y; a y at or past g at a critical end returns that end.  The branch's memo
    keeps each end's walk, g at each point (_pushed, keys -inf and inf), and
    g, g', g'' at each run's first point, a finite midpoint: g's own bits
    there, evaluated once per branch.  Each y keeps its
    root in a bracket (a, b) narrowed by the signs of g - y at the points
    evaluated (g, g' and g'' by one Horner pass), and steps from the last of
    them, x: with q = (y - g)/g' and r = g''q/2g', to x + q - rq, or to x + q
    when |r| > 1/2 or x + q - rq leaves the bracket.  When x + q leaves the
    bracket or |q| is over half the step before, it bisects instead (rtsafe;
    Press et al., Numerical Recipes, section 9.4), as a run's first y does,
    except that the run's first x + q past an end that the pushing set, g
    there being y to 1e-15 |y|, goes to that end.  At a point x stepped to
    from x0, it returns x + q unevaluated once |q| <= 1e-16 s, with
    s = max(1, |x + q|), or K q^2 <= 1e-16 s, with
    K = max(|g''(x0)|, |g''(x)|) / 2|g'(x)|: g''(x) alone is 0 at an
    inflection, and a midpoint or the last y's point was not stepped to.  It
    returns x when a step of rounding size (1e-15 |x|) fails the safeguard,
    when no midpoint is left, or when g(x) is y.
    """
    _, g, lo, hi, glo, ghi, memo = branch
    a, ga = _pushed(memo, -1.0, g, (hi if hi < math.inf else 0.0) - 1.0, ys[0]) if lo == -math.inf else (lo, glo)
    b, gb = _pushed(memo, 1.0, g, (lo if lo > -math.inf else 0.0) + 1.0, ys[-1]) if hi == math.inf else (hi, ghi)
    g_d2, top, gtop, nan, inf = g.eval_float_d2, b, gb, math.nan, math.inf
    x = v = d = h = nan  # no point evaluated yet: the first step bisects
    pa, pb = (a if lo == -inf else nan), (b if hi == inf else nan)  # the pushed ends, until one is tried
    for y in ys:
        if not glo < y < ghi:  # at or a rounding error past a critical end's value
            yield lo if y <= glo else hi
            continue
        if gb <= y:  # the last value's upper end is below this one
            a, b, gb = b, top, gtop
        c, hh = nan, inf  # no K is read at the last y's point, nor at a midpoint
        while True:  # c is |g''| where the step to x began; hh bounds the next step's square
            q = (y - v) / d if d else inf
            nx, qq = x + q, q * q
            if a < nx < b and qq <= hh:
                hk = h if h > 0.0 else -h
                if c == c:  # K q^2 <= e: |g''| q^2 at both ends of the step to x <= 2 e |g'|
                    e = 1e-16 * (nx if nx > 1.0 else -nx if nx < -1.0 else 1.0)
                    if qq <= e * e or (c if c > hk else hk) * qq <= 2.0 * e * (d if d > 0.0 else -d):
                        break
                r = h / (2.0 * d) * q
                if r * r <= 0.25 and a < (n2 := nx - r * q) < b:
                    nx = n2
                c, hh = hk, 0.25 * qq
            elif -1e-15 * abs(x) <= q <= 1e-15 * abs(x) or not a < 0.5 * (a + b) < b:
                nx = x  # a step of rounding size, or no midpoint left
                break
            else:  # no point yet, g' = 0 or a failed step: bisect; a midpoint's step is half the bracket
                c, hh, e = nan, 0.0625 * (b - a) * (b - a), 1e-15 * abs(y)
                end = nx <= a == pa and y - ga <= e or nx >= b == pb and gb - y <= e  # past a pushed end where g is y
                nx, pa, pb = ((a if nx <= a else b), nan, nan) if end else (0.5 * (a + b), pa, pb)
            # a run's first point (x is NaN before it), a midpoint, is kept; Horner gives -0.0 and 0.0 one result
            v, d, h = g_d2(nx) if x == x else memo.get(nx) or memo.setdefault(nx, g_d2(nx))
            x = nx
            if v > y:
                b, gb = x, v
            else:  # below every later y's root, or this y's root
                a = x
                if v == y:
                    break
        yield nx


def _pushed(memo, s, g, start, y):
    """An unbounded end pushed from start in the direction s by steps max(1, |start|),
    doubling, to the first point where s * g > s * y, and g there; s * inf, with g at the
    point before, when a step reaches it.  The points walked, g at each, are kept under
    memo[s * inf] in a tuple grown by rebinding: at most the ~1,025 doublings of the float
    range.  Two threads may walk a step twice; either keeps a prefix of the one walk."""
    ladder, x, step = memo.get(s * math.inf) or ((), start, max(1.0, abs(start)))
    for p, gp in ladder:
        if not s * gp <= s * y:
            return p, gp
    while x != s * math.inf and (not ladder or s * ladder[-1][1] <= s * y):
        ladder += ((x, g.eval_float(x)),)
        x, step = x + s * step, 2.0 * step
    memo[s * math.inf] = ladder, x, step
    return ladder[-1] if not s * ladder[-1][1] <= s * y else (x, ladder[-1][1])


class Neg(PLMap):
    """t -> -inner(t)."""

    __slots__ = ("inner",)

    def __init__(self, inner: PLMap):
        self.inner = inner

    def slope_power(self) -> tuple[int, RealAlg, int]:
        sgn, R, n = self.inner.slope_power()
        return -sgn, R, n

    def inverse(self) -> "PLMap":
        return Compose(self.inner.inverse(), Affine(Fraction(-1), Fraction(0)))

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        return [-u for u in self.inner.eval_floats(ts)]


class NegConj(PLMap):
    """t -> -inner(-t); preserves orientation and limit slope."""

    __slots__ = ("inner",)

    def __init__(self, inner: PLMap):
        self.inner = inner

    def slope_power(self) -> tuple[int, RealAlg, int]:
        return self.inner.slope_power()

    def inverse(self) -> "PLMap":
        return NegConj(self.inner.inverse())

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        return [-u for u in self.inner.eval_floats([-t for t in ts])]


class Compose(PLMap):
    """t -> outer(inner(t)); closure node for the group operation."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: PLMap, inner: PLMap):
        self.outer, self.inner = outer, inner

    def slope_power(self) -> tuple[int, RealAlg, int]:
        (so, ro, no), (si, ri, ni) = self.outer.slope_power(), self.inner.slope_power()
        return so * si, mul(pow_int(ro, ni), pow_int(ri, no)), no * ni

    def inverse(self) -> "PLMap":
        return Compose(self.inner.inverse(), self.outer.inverse())

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        return self.outer.eval_floats(self.inner.eval_floats(ts))


# ---------------------------------------------------------------------------
# The group
# ---------------------------------------------------------------------------


class _Zygothety(NamedTuple):
    lam1: RealAlg
    lam2: RealAlg
    phi1: PLMap
    phi2: PLMap

    @property
    def lam_sign(self) -> int:
        return self.lam1.sign()


class Zygothety(_Zygothety):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lam1.sign() * self.lam2.sign() <= 0:
            raise ArithmeticError("zygothety scales do not share a sign; internal bug")
        return self


def identity() -> Zygothety:
    one = RealAlg.from_rational(1)
    return Zygothety(one, one, identity_map(), identity_map())


def compose(outer: Zygothety, inner: Zygothety) -> Zygothety:
    """Zygothetic product (outer after inner); swaps outer components when
    the inner scales are negative."""
    k = inner.lam_sign  # a step of -1 reverses each pair
    (mu1, mu2), (psi1, psi2) = (outer.lam1, outer.lam2)[::k], (outer.phi1, outer.phi2)[::k]
    return Zygothety(mul(inner.lam1, mu1), mul(inner.lam2, mu2), Compose(psi1, inner.phi1), Compose(psi2, inner.phi2))


def inverse(z: Zygothety) -> Zygothety:
    """The group inverse; swaps the components when the scales are negative."""
    k = z.lam_sign  # a step of -1 reverses each pair
    (lam1, lam2), (phi1, phi2) = (z.lam1, z.lam2)[::k], (z.phi1, z.phi2)[::k]
    return Zygothety(alg_inverse(lam1), alg_inverse(lam2), phi1.inverse(), phi2.inverse())


def is_beta_regular(z: Zygothety, r: int, s: int) -> bool:
    """Exact test of |lam1|^beta * L1 == |lam2|^beta * L2 with beta = r/s.

    With L_i = sign_i * R_i**(1/n_i) and N = lcm(n1, n2), both sides are
    raised to the power s*N, so no root is taken; signs are compared
    separately.  When lam2 is lam1 and phi2 is phi1 or its NegConj, which
    keeps the limit slope, both sides are one number: L1 must be nonzero.
    """
    same_slope = z.phi2 is z.phi1 or (isinstance(z.phi2, NegConj) and z.phi2.inner is z.phi1)
    if z.lam2 is z.lam1 and same_slope:
        return z.phi1.slope_power()[0] != 0
    (s1, R1, n1), (s2, R2, n2) = z.phi1.slope_power(), z.phi2.slope_power()
    if s1 == 0 or s1 != s2:
        return False
    N = math.lcm(n1, n2)
    lhs = mul(pow_int(abs_alg(z.lam1), r * N), pow_int(R1, s * N // n1))
    rhs = mul(pow_int(abs_alg(z.lam2), r * N), pow_int(R2, s * N // n2))
    return compare(lhs, rhs) == 0


# ---------------------------------------------------------------------------
# Constructions that realize a pairing as a beta-regular zygothety
# ---------------------------------------------------------------------------


def _lambda_from_c(c: RealAlg, d: int, lam_sign: int) -> RealAlg:
    lam = alg_inverse(nth_root_pos(c, d))
    return lam if lam_sign > 0 else neg(lam)


def _branch_map(c: RealAlg, orientation: Orientation, f: UniPoly, g: UniPoly) -> PLMap:
    df = critical_data(f)
    dg = critical_data(g)
    return BranchMap(
        c, orientation is Orientation.INCREASING, f, g, df.points, dg.points
    )


def make_regular(option, F) -> Zygothety | None:
    """Build a beta-regular zygothety realizing a pairing option for (F, G).

    The pairing option supplies an admissible scale sign, the (F height,
    G height) pair of each side and one 1-D pairing per side; the parity of
    (r, s) picks the construction.  With r odd, s even and X dividing F,
    both sides take one common constant, and None is returned when their
    constant sets share none; otherwise each side picks its own.
    """
    r, s, d, e = F.r, F.s, F.d, F.e
    sgn = option.lambda_sign
    (f1, g1), (f2, g2) = option.sides
    p1, p2 = option.plus, option.minus

    if r % 2 == 0 or s % 2 == 1:
        # duplicate the (+)-side data; the (-)-side identity follows from
        # the parity relations between the height functions
        c1 = p1.c_set.pick()
        phi1 = _branch_map(c1, p1.orientation, f1, g1)
        lam1 = _lambda_from_c(c1, d, sgn)
        phi2 = phi1 if r % 2 == 0 else NegConj(phi1)
        z = Zygothety(lam1, lam1, phi1, phi2)
    else:
        # r odd, s even: scales must agree unless X divides neither side
        if e != 0:
            c1 = c2 = p1.c_set.compatible_common_value(p2.c_set)
            if c1 is None:
                return None
        else:
            c1, c2 = p1.c_set.pick(), p2.c_set.pick()
        phi1 = _branch_map(c1, p1.orientation, f1, g1)
        phi2 = _branch_map(c2, p2.orientation, f2, g2)
        if p1.orientation is not p2.orientation:
            # height functions are even here, so flipping the second map
            # preserves its pairing identity while fixing coherence
            phi2 = Neg(phi2)
        z = Zygothety(_lambda_from_c(c1, d, sgn), _lambda_from_c(c2, d, sgn), phi1, phi2)
    if not is_beta_regular(z, r, s):
        raise ArithmeticError("constructed zygothety is not beta-regular; internal bug")
    return z


#: sample points of the action spot-check, and the seed that draws them
RESIDUAL_SAMPLES = 50
RESIDUAL_SEED = 20240901
_rng = random.Random(RESIDUAL_SEED)
_RESIDUAL_POINTS = tuple(_rng.randint(-300, 300) / 100 for _ in range(RESIDUAL_SAMPLES))
del _rng


def action_residual(z: Zygothety, d: int, sides: tuple[tuple[UniPoly, UniPoly], ...]) -> float:
    """Spot-check |lam_i|^d * g_i(phi_i(t)) = f_i(t) on random points.

    `sides` holds the (f_i, g_i) height pair of each component, as a
    pairing option carries it; returns the maximum relative float residual
    over the sample set.  A second component with the first one's scale,
    map and heights would repeat its floats, so it is checked once.
    """
    components = list(zip((z.lam1, z.lam2), (z.phi1, z.phi2), sides))
    if z.lam2 is z.lam1 and z.phi2 is z.phi1 and sides[1] == sides[0]:
        components = components[:1]
    worst = 0.0
    for lam, phi, (ff, gg) in components:
        scale = abs(lam.to_float()) ** d
        for t in _RESIDUAL_POINTS:
            lhs = scale * gg.eval_float(phi.eval_float(t))
            rhs = ff.eval_float(t)
            err = abs(lhs - rhs) / max(1.0, abs(rhs))
            worst = max(worst, err)
    return worst
