"""Zygotheties: the witness group for pairing height functions.

A zygothety is a pair of nonzero scale factors with equal signs together
with a pair of bi-Lipschitz self-maps of the line, composed with a twist
when the scales are negative.  The maps are symbolic descriptors evaluated
on demand; exact data (scales, limit slopes, the constants c) drives every
verdict, while numeric evaluation only feeds the witness harness.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from .lipclass import Orientation, critical_data
from .polyalg import UniPoly
from .realalg import RealAlg, abs_alg, compare, inverse as alg_inverse, nth_root_pos, pow_int


class PLMap:
    """Monotone bijection of the reals, described symbolically."""

    def limit_slope(self) -> RealAlg:
        """The common two-sided limit of m(t)/t, exact."""
        raise NotImplementedError

    def slope_sign(self) -> int:
        """The sign of limit_slope()."""
        return self.limit_slope().sign()

    def inverse(self) -> "PLMap":
        raise NotImplementedError

    def eval_float(self, t: float) -> float:
        raise NotImplementedError

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        return [self.eval_float(t) for t in ts]


@dataclass(frozen=True)
class Affine(PLMap):
    """t -> a*t + b with rational a != 0, b."""

    a: Fraction
    b: Fraction

    def limit_slope(self) -> RealAlg:
        return RealAlg.from_rational(self.a)

    def inverse(self) -> "PLMap":
        return Affine(1 / self.a, -self.b / self.a)

    def eval_float(self, t: float) -> float:
        return float(self.a) * t + float(self.b)


def identity_map() -> Affine:
    return Affine(Fraction(1), Fraction(0))


class BranchMap(PLMap):
    """phi = (g restricted to a branch)^-1 o (c * f), branch by branch.

    The i-th interval cut out of the line by the critical points of f maps
    onto the matching interval of g: the i-th one for an increasing map, the
    mirror one for a decreasing map.  Inversion of g on a monotone branch is
    numeric (bracketing, then Newton safeguarded by bisection) with exact
    interval endpoints.
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

    def _slope_ratio(self) -> RealAlg:
        """c*lc(f)/lc(g), whose |.|**(1/deg) is |limit_slope()|, after
        checking that it fits the degrees and the orientation."""
        deg = self.f.degree
        if deg != self.g.degree or deg < 1:
            raise ArithmeticError("branch map between heights of different or zero degree; internal bug")
        ratio = self.c * Fraction(self.f.leading, self.g.leading)
        if deg % 2 == 1:
            if (ratio.sign() > 0) != self.increasing:
                raise ArithmeticError("odd branch map against the sign of c*lc(f)/lc(g); internal bug")
        elif ratio.sign() <= 0:
            raise ArithmeticError("even branch map with c*lc(f)/lc(g) not positive; internal bug")
        return ratio

    def limit_slope(self) -> RealAlg:
        mag = nth_root_pos(abs_alg(self._slope_ratio()), self.f.degree)
        return mag if self.increasing else -mag

    def slope_sign(self) -> int:
        """The orientation's sign, once the ratio passes limit_slope's
        checks; the root is not taken."""
        self._slope_ratio()
        return 1 if self.increasing else -1

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
        if self._flt is None:
            cf = [x.to_float() for x in self.crits_f]
            cg = [x.to_float() for x in self.crits_g]
            self._flt = (self.c.to_float(), cf, cg)
        return self._flt

    def eval_float(self, t: float) -> float:
        cflt, cf, cg = self._floats()
        p = len(cf)
        i = bisect.bisect_left(cf, t)
        j = i if self.increasing else p - i
        y = cflt * self.f.eval_float(t)
        return _invert_on_branch(self.g, cg, j, y)

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        """eval_float at each of ts: from the (x, g, g', g'') its branch last evaluated, a value steps to
        x + q - g''q^2/2g' (q = (y - g)/g'), then returns x + q once q shrinks and |q| or K q^2 is <= 1e-16 s,
        K = (the larger |g''| at the step's two ends) / 2|g'|."""
        cflt, cf, cg = self._floats()
        g, cs, f_at, g_d2 = self.g, self.crits_g, self.f.eval_float, self.g.eval_float_d2
        ys = [cflt * f_at(t) for t in ts]
        js = [bisect.bisect_left(cf, t) for t in ts] if cf else [0] * len(ts)
        js = js if self.increasing else [len(cf) - i for i in js]
        # g rises on a branch where g' > 0 at a rational inside it: between the
        # isolating boxes of its critical ends, or one past the outer box
        inner = [cs[0].lo - 1, *((a.hi + b.lo) / 2 for a, b in zip(cs, cs[1:])), cs[-1].hi + 1] if cs else [0]
        rising = [g.derivative().sign_at(q) > 0 for q in inner]
        keys = [y if rising[j] else -y for j, y in zip(js, ys)]
        out, ends = [0.0] * len(ts), [-math.inf, *cg, math.inf]
        order = sorted(range(len(ts)), key=keys.__getitem__)
        for j in range(len(inner)):  # (x, v, d, h) carries (x, g, g', g'') along branch j
            lo, hi, d = ends[j], ends[j + 1], 0.0  # g' = 0: the branch's first value falls back
            for k in [k for k in order if js[k] == j]:
                y, u = ys[k], None
                if d:
                    q = (y - v) / d
                    nx = x + q
                    u = x if nx == x else None  # y is g(x) up to rounding
                    nx -= h / (2.0 * d) * q * q
                    p, n = nx - x, 0
                    while u is None and lo < nx < hi and n < 5:
                        c, x = h, nx
                        v, d, h = g_d2(x)
                        q = (y - v) / d if d else math.nan  # g' = 0: no step shrinks
                        if not -p < q < p and not p < q < -p:
                            break
                        nx = x + q
                        e = 1e-16 * (nx if nx > 1.0 else -nx if nx < -1.0 else 1.0)
                        a, r = q * q, 2.0 * e * (d if d > 0.0 else -d)  # K q^2 <= e: |g''| q^2 at both ends <= r
                        if nx == x or -e <= q <= e or -r <= c * a <= r and -r <= h * a <= r:
                            u = nx
                        p, n = q, n + 1
                if u is None:  # a step that does not shrink or leaves the branch, g' = 0, or a sixth step
                    x, v, d, h = (u := _invert_on_branch(g, cg, j, y)), *g_d2(u)
                out[k] = u
        return out


def _invert_on_branch(g: UniPoly, crit_floats: list[float], j: int, y: float) -> float:
    """Solve g(u) = y for u in the j-th branch interval.

    Brackets the root by signs, then iterates Newton safeguarded by
    bisection inside the bracket (rtsafe; Press et al., Numerical Recipes,
    section 9.4), with g and g' from one Horner pass per iterate.
    """
    p = len(crit_floats)
    unbounded_lo, unbounded_hi = j == 0, j == p
    lo = crit_floats[j - 1] if j >= 1 else crit_floats[0] - 1.0 if p else -1.0
    hi = crit_floats[j] if j < p else crit_floats[p - 1] + 1.0 if p else 1.0
    flo, fhi = g.eval_float(lo) - y, g.eval_float(hi) - y
    step = max(1.0, abs(lo), abs(hi))
    for _ in range(600):
        if flo == 0.0 or fhi == 0.0 or (flo < 0.0) != (fhi < 0.0):
            break
        # y can sit a rounding error outside the image of the branch; as g
        # is monotone there, that shows as a critical (finite) end nearer to
        # y than the other end, and that end is the answer
        if not (unbounded_lo or unbounded_hi):
            return lo if abs(flo) <= abs(fhi) else hi
        if not unbounded_lo and abs(flo) < abs(fhi):
            return lo
        if not unbounded_hi and abs(fhi) < abs(flo):
            return hi
        if unbounded_lo and (not unbounded_hi or abs(flo) < abs(fhi)):
            lo -= step
            flo = g.eval_float(lo) - y
        else:
            hi += step
            fhi = g.eval_float(hi) - y
        step *= 2.0
    else:
        raise ArithmeticError(f"no preimage of {y!r} found on branch {j} of {g!r}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # decide by signs: the product of two tiny values underflows to -0.0
    # and would keep the wrong half
    lo_negative, g_d = flo < 0.0, g.eval_float_d
    x, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    v, d = g_d(x)
    # v is g(x), compared with y: g(x) - y has the same sign and zeros
    for _ in range(200):
        if v != y:
            if (v < y) == lo_negative:
                lo = x
            else:
                hi = x
            width = hi - lo
            narrow = width <= 1e-15 or width <= 1e-15 * (hi if hi >= -lo else -lo)
            # Newton's step only if it stays strictly inside the bracket and at
            # most half the previous step; near a multiple root it shrinks
            # slowly, so the bracket width, not the step, decides the stop
            if d != 0.0 and not narrow:
                nx = x - (v - y) / d
                dx = nx - x
                if lo < nx < hi and -half <= dx <= half:
                    half, x, (v, d) = 0.5 * dx if dx >= 0.0 else -0.5 * dx, nx, g_d(nx)
                    continue
        mid = 0.5 * (lo + hi)
        # stop at a root; at a narrow bracket, on its midpoint; at x when a step of rounding
        # size fails the halving test, as every later one would; or when no midpoint is left
        if v == y or narrow or (d != 0.0 and abs(dx) <= 1e-15 * abs(x)) or not (lo < mid < hi):
            return mid if v != y and narrow else x
        half, x, (v, d) = 0.5 * abs(mid - x), mid, g_d(mid)
    return x


@dataclass(frozen=True)
class Neg(PLMap):
    """t -> -inner(t)."""

    inner: PLMap

    def limit_slope(self) -> RealAlg:
        return -self.inner.limit_slope()

    def inverse(self) -> "PLMap":
        return Compose(self.inner.inverse(), Affine(Fraction(-1), Fraction(0)))

    def eval_float(self, t: float) -> float:
        return -self.inner.eval_float(t)

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        return [-u for u in self.inner.eval_floats(ts)]


@dataclass(frozen=True)
class NegConj(PLMap):
    """t -> -inner(-t); preserves orientation and limit slope."""

    inner: PLMap

    def limit_slope(self) -> RealAlg:
        return self.inner.limit_slope()

    def inverse(self) -> "PLMap":
        return NegConj(self.inner.inverse())

    def eval_float(self, t: float) -> float:
        return -self.inner.eval_float(-t)

    def eval_floats(self, ts: Sequence[float]) -> list[float]:
        return [-u for u in self.inner.eval_floats([-t for t in ts])]


@dataclass(frozen=True)
class Compose(PLMap):
    """t -> outer(inner(t)); closure node for the group operation."""

    outer: PLMap
    inner: PLMap

    def limit_slope(self) -> RealAlg:
        return self.outer.limit_slope() * self.inner.limit_slope()

    def inverse(self) -> "PLMap":
        return Compose(self.inner.inverse(), self.outer.inverse())

    def eval_float(self, t: float) -> float:
        return self.outer.eval_float(self.inner.eval_float(t))


# ---------------------------------------------------------------------------
# The group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Zygothety:
    lam1: RealAlg
    lam2: RealAlg
    phi1: PLMap
    phi2: PLMap

    def __post_init__(self):
        if self.lam1.sign() * self.lam2.sign() <= 0:
            raise ArithmeticError("zygothety scales do not share a sign; internal bug")

    @property
    def lam_sign(self) -> int:
        return self.lam1.sign()


def identity() -> Zygothety:
    one = RealAlg.from_rational(1)
    return Zygothety(one, one, identity_map(), identity_map())


def compose(outer: Zygothety, inner: Zygothety) -> Zygothety:
    """Zygothetic product (outer after inner); swaps outer components when
    the inner scales are negative."""
    if inner.lam_sign > 0:
        return Zygothety(
            inner.lam1 * outer.lam1,
            inner.lam2 * outer.lam2,
            Compose(outer.phi1, inner.phi1),
            Compose(outer.phi2, inner.phi2),
        )
    return Zygothety(
        inner.lam1 * outer.lam2,
        inner.lam2 * outer.lam1,
        Compose(outer.phi2, inner.phi1),
        Compose(outer.phi1, inner.phi2),
    )


def inverse(z: Zygothety) -> Zygothety:
    if z.lam_sign > 0:
        return Zygothety(
            alg_inverse(z.lam1),
            alg_inverse(z.lam2),
            z.phi1.inverse(),
            z.phi2.inverse(),
        )
    return Zygothety(
        alg_inverse(z.lam2),
        alg_inverse(z.lam1),
        z.phi2.inverse(),
        z.phi1.inverse(),
    )


def is_beta_regular(z: Zygothety, r: int, s: int) -> bool:
    """Exact test of |lam1|^beta * L1 == |lam2|^beta * L2 with beta = r/s.

    Both sides are raised to the s-th power so the comparison stays inside
    real algebraic arithmetic; signs are compared separately.  When lam2 is
    lam1 and phi2 is phi1 or its NegConj, which keeps the limit slope, both
    sides are one number, and the test is that L1 is nonzero.
    """
    same_slope = z.phi2 is z.phi1 or (isinstance(z.phi2, NegConj) and z.phi2.inner is z.phi1)
    if z.lam2 is z.lam1 and same_slope:
        return z.phi1.slope_sign() != 0
    L1 = z.phi1.limit_slope()
    L2 = z.phi2.limit_slope()
    s1, s2 = L1.sign(), L2.sign()
    if s1 == 0 or s2 == 0 or s1 != s2:
        return False
    lhs = pow_int(abs_alg(z.lam1), r) * pow_int(abs_alg(L1), s)
    rhs = pow_int(abs_alg(z.lam2), r) * pow_int(abs_alg(L2), s)
    return compare(lhs, rhs) == 0


# ---------------------------------------------------------------------------
# Constructions that realize a pairing as a beta-regular zygothety
# ---------------------------------------------------------------------------


def _lambda_from_c(c: RealAlg, d: int, lam_sign: int) -> RealAlg:
    lam = alg_inverse(nth_root_pos(c, d))
    return lam if lam_sign > 0 else -lam


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
