"""Executable bi-Lipschitz witnesses and their numeric verification.

A regular zygothety determines a plane map fiberwise: on the half-plane
x > 0 the fiber parameter t = y / |x|^beta is pushed through the first map,
on x < 0 through the second, and the vertical axis moves by the common
weighted slope.  The conjugacy G o Phi = F is an exact theorem; the harness
here samples it in floating point and reports residuals, empirical
Lipschitz ratios, and the asymptotic shape of the one-dimensional maps.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import NamedTuple

from .qhdecide import QHPoly, heights
from .zygothety import PLMap, Zygothety, is_beta_regular

#: both checks sample the fiber parameter t = y / |x|^beta in [-T_WINDOW, T_WINDOW];
#: the conjugacy grid takes T_COUNT evenly spaced values of t, and |x| from X_MIN up
T_WINDOW = 2.0
T_COUNT = 100
X_MIN = 1e-6
#: the number and seed of verify_lipschitz's random point pairs
LIPSCHITZ_SAMPLES = 2000
LIPSCHITZ_SEED = 20240901


class VerificationReport(NamedTuple):
    max_rel_residual: float
    tol: float
    lipschitz_ratio_min: float
    lipschitz_ratio_max: float
    # (lambda_est, k_est, alpha_tail_max, shell_1e4, shell_1e6)
    asymptotic: tuple[float, float, float, float, float]
    samples: int
    delta: float

    @property
    def conjugacy_pass(self) -> bool:
        return self.max_rel_residual <= self.tol


class InverseBetaTransform:
    """The plane map built fiberwise from a beta-regular zygothety; beta,
    lam1, lam2, lam1_beta, lam2_beta (|lam_i|^beta) and axis_slope
    (|lam_i|^beta * L_i, the slope the vertical axis moves by) are floats."""

    __slots__ = ("z", "beta", "lam1", "lam2", "lam1_beta", "lam2_beta", "axis_slope")

    def __init__(self, z: Zygothety, r: int, s: int):
        if not is_beta_regular(z, r, s):
            raise ValueError("zygothety is not beta-regular")
        self.z = z
        self.beta = r / s
        self.lam1 = z.lam1.to_float()
        self.lam2 = z.lam2.to_float()
        self.lam1_beta = abs(self.lam1) ** self.beta
        self.lam2_beta = abs(self.lam2) ** self.beta
        # |lam1|^beta * L1 == |lam2|^beta * L2; float both sides and average
        # out the last-bit disagreement for the axis slope
        v1 = self.lam1_beta * z.phi1.limit_slope().to_float()
        v2 = self.lam2_beta * z.phi2.limit_slope().to_float()
        self.axis_slope = 0.5 * (v1 + v2)

    def on_fiber(self, x: float, ax_b: float, phi_t: float) -> tuple[float, float]:
        """The image of a point (x, t * ax_b) with x != 0 and ax_b = |x|^beta,
        given phi_t, the fiber parameter t pushed through x's map."""
        if x > 0.0:
            return (self.lam1 * x, self.lam1_beta * phi_t * ax_b)
        return (self.lam2 * x, self.lam2_beta * phi_t * ax_b)

    def eval(self, point: tuple[float, float]) -> tuple[float, float]:
        x, y = point
        if x == 0.0:
            return (0.0, self.axis_slope * y)
        phi = self.z.phi1 if x > 0.0 else self.z.phi2
        ax_b = abs(x) ** self.beta
        return self.on_fiber(x, ax_b, phi.eval_float(y / ax_b))


def verify(
    F: QHPoly, G: QHPoly, z: Zygothety, samples: int, delta: float, tol: float
) -> VerificationReport:
    """The whole witness check of G o Phi = F for the inverse beta-transform
    Phi of z: the conjugacy residual over the smallest grid of at least
    `samples` points in the strip |x| <= delta, the Lipschitz ratios, and
    the asymptotic shape of phi1."""
    T = InverseBetaTransform(z, F.r, F.s)
    x_count = max(1, -(-(samples - T_COUNT) // (2 * T_COUNT)))  # (2 * x_count + 1) * T_COUNT points
    residual, count = verify_conjugacy(F, G, T, x_count, delta)
    rmin, rmax = verify_lipschitz(T, delta)
    return VerificationReport(residual, tol, rmin, rmax, verify_asymptotic(z.phi1), count, delta)


def _log_spaced(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [hi]
    if not lo:  # X_MIN * delta for a delta near the float minimum
        raise OverflowError(f"the grid's lowest |x| underflows to 0 below {hi!r}")
    ratio = math.log(hi / lo)
    return [lo * math.exp(ratio * k / (count - 1)) for k in range(count)]


def verify_conjugacy(
    F: QHPoly, G: QHPoly, T: InverseBetaTransform, x_count: int, delta: float
) -> tuple[float, int]:
    """Sample |G(Phi(p)) - F(p)| / max(1, |F(p)|) over the fiber grid, linear in t and
    log-spaced in |x| up to delta from X_MIN, or from X_MIN * delta when delta <= X_MIN;
    returns the largest residual over all (2 * x_count + 1) * T_COUNT points, and that
    count.  F and G are evaluated in the plane on the axis and each side's outermost and
    innermost rows (at |x| = 1 a wrong beta would not show); on the row |x| = xi of the
    others, F and G of one degree d give xi^d |D(t)| / max(1, xi^d |f(t)|), with
    D = |lam|^d g o phi - f, f and g the heights at sgn x and sgn(lam x)."""
    xs = [min(x, delta) for x in _log_spaced(X_MIN if delta > X_MIN else X_MIN * delta, delta, x_count)]
    step = 2 * T_WINDOW / (T_COUNT - 1)
    ts = [-T_WINDOW + step * k for k in range(T_COUNT)]
    hf, hg, xi_ds = heights(F), heights(G), [_power(xi, F.d, "|x|^d") for xi in xs]
    worst, phi_ts = 0.0, T.z.phi1.eval_floats(ts)
    sides = ((1.0, T.z.phi1, T.lam1, hf.f_plus), (-1.0, T.z.phi2, T.lam2, hf.f_minus))
    # one phi and lam, and F and G even in X: the x < 0 rows repeat the x > 0 rows bit for bit
    even = all(i % 2 == 0 for P in (F, G) for _, i, _ in P.poly.float_terms())
    for sgn, phi, lam, f in sides[:1] if T.z.phi2 is T.z.phi1 and T.lam2 == T.lam1 and even else sides:
        if phi is not T.z.phi1:  # phi2 is phi1 itself when r is even
            phi_ts = phi.eval_floats(ts)
        g, lam_d = hg.f_plus if lam * sgn > 0.0 else hg.f_minus, abs(lam) ** F.d
        gaps = [(abs(lam_d * g.eval_float(u) - fv), abs(fv)) for u, fv in zip(phi_ts, map(f.eval_float, ts))]
        for k, (xi, xi_d) in enumerate(zip(xs, xi_ds)):
            x, ax_b = sgn * xi, _power(xi, T.beta, "|x|^beta")
            if k == 0 or k == len(xs) - 1:
                errs = _plane_residuals(F, G, T, x, ax_b, ts, phi_ts)
            else:
                errs = [xi_d * gap / (xi_d * af if xi_d * af > 1.0 else 1.0) for gap, af in gaps]
            for t, err in zip(ts, errs):
                if not err <= worst:
                    worst = _finite(err, (x, t * ax_b))
    for y in ts:
        px, py = T.eval((0.0, y))
        fv = F.poly.eval_float(0.0, y)
        err = abs(G.poly.eval_float(px, py) - fv) / max(1.0, abs(fv))
        if not err <= worst:
            worst = _finite(err, (0.0, y))
    return worst, (2 * len(xs) + 1) * T_COUNT


def _plane_residuals(F, G, T, x, ax_b, ts, phi_ts) -> list[float]:
    """The residuals of F at (x, t * ax_b) against G at T.on_fiber(x, ax_b, phi(t)) for t
    in ts; c * x**i is folded once per row, and BiPoly.eval_float's bits kept."""
    px, errs = T.on_fiber(x, ax_b, 0.0)[0], []
    try:
        fc = [(c * x**i, j) for c, i, j in F.poly.float_terms()]
        gc = [(c * px**i, j) for c, i, j in G.poly.float_terms()]
        for t, u in zip(ts, phi_ts):
            y, py = t * ax_b, T.on_fiber(x, ax_b, u)[1]
            fv = gv = 0.0
            for c, j in fc:
                fv += c * y**j
            for c, j in gc:
                gv += c * py**j
            afv = abs(fv)
            errs.append(abs(gv - fv) / (afv if afv > 1.0 else 1.0))
    except OverflowError:
        raise OverflowError(f"a term of F or G leaves the float range on the row |x| = {abs(x)!r}") from None
    return errs


def _power(x: float, e: float, name: str) -> float:
    try:
        return x**e
    except OverflowError:  # whose message is only "(34, 'Numerical result out of range')"
        raise OverflowError(f"{name} leaves the float range at |x| = {x!r}") from None


def _finite(v: float, point: tuple[float, float] | float) -> float:
    """A residual or ratio v of the sample at point, or a deviation of the
    asymptotic check at t; an infinity or a NaN, which no comparison would
    keep, raises OverflowError (AsymptoticOverflowError at a t)."""
    if math.isfinite(v):
        return v
    if isinstance(point, tuple):
        raise OverflowError(f"the float witness check reached {v!r} at {point!r}")
    raise AsymptoticOverflowError(f"the asymptotic check reached {v!r} at |t| = {abs(point)!r}")


def verify_lipschitz(T: InverseBetaTransform, delta: float) -> tuple[float, float]:
    """Empirical bi-Lipschitz ratios over random point pairs in the strip.
    All pairs are drawn first, each point filed with its half-plane; each map
    then takes its half-plane's fiber parameters in one eval_floats call, or
    phi1 takes both half-planes' in one call when phi2 is phi1."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    beta, n = T.beta, 2 * LIPSCHITZ_SAMPLES
    cutoff = min(1e-9, delta / 2)  # at least half of the draws pass it
    _power(delta, beta, "|x|^beta")  # no |x| drawn is above delta
    xs, ys, ax_bs, ix, iy = (array("d", bytes(8 * n)) for _ in range(5))
    upper, lower = (array("l"), array("d")), (array("l"), array("d"))  # each side's indices, fiber parameters
    rnd = random.Random(LIPSCHITZ_SEED).random  # rng.uniform(a, b) is a + (b - a) * rng.random()
    span, t_lo, window = delta - -delta, -T_WINDOW, T_WINDOW - -T_WINDOW
    for k in range(n):
        x = 0.0
        while -cutoff < x < cutoff:
            x = -delta + span * rnd()
        ax_b = (x if x > 0.0 else -x) ** beta
        if not ax_b:  # each fiber parameter divides by it
            raise OverflowError(f"|x|^beta underflows to 0 at x = {x!r}")
        xs[k], ax_bs[k] = x, ax_b
        ys[k] = y = (t_lo + window * rnd()) * ax_b
        ks, ts = upper if x > 0.0 else lower
        ks.append(k)
        ts.append(y / ax_b)  # the fiber parameter as T.eval computes it
    phi1, phi2 = T.z.phi1, T.z.phi2  # one map: both half-planes make one batch
    us = iter(phi1.eval_floats(upper[1] + lower[1]) if phi2 is phi1 else
              phi1.eval_floats(upper[1]) + phi2.eval_floats(lower[1]))
    for ks, lam, lam_b in ((upper[0], T.lam1, T.lam1_beta), (lower[0], T.lam2, T.lam2_beta)):
        for k, u in zip(ks, us):  # T.on_fiber's expressions
            ix[k] = lam * xs[k]
            iy[k] = lam_b * u * ax_bs[k]
    ratio_min, ratio_max = math.inf, 0.0
    too_close = min(1e-12, 1e-3 * delta)  # pair distances below it are skipped
    for x, x1, y, y1, u, u1, v, v1 in zip(xs[::2], xs[1::2], ys[::2], ys[1::2], ix[::2], ix[1::2], iy[::2], iy[1::2]):
        dx, dy = x - x1, y - y1
        dist = (dx * dx + dy * dy) ** 0.5
        if dist < too_close:
            continue
        dix, diy = u - u1, v - v1
        ratio = (dix * dix + diy * diy) ** 0.5 / dist
        if not ratio_min <= ratio <= ratio_max:  # a new extreme, an infinity or a NaN
            _finite(ratio, (x, y))
            ratio_min = ratio if ratio < ratio_min else ratio_min
            ratio_max = ratio if ratio > ratio_max else ratio_max
    if ratio_min == math.inf:  # no pair was kept, as kept ratios are finite
        raise OverflowError(f"every drawn pair is closer than {too_close!r}, so no ratio is measured")
    return (ratio_min, ratio_max)


_SHELL_INNER = 1e4
_SHELL_OUTER = 1e6
_SHELL_POINTS = 25


class AsymptoticOverflowError(OverflowError):
    """An infinity or a NaN in the asymptotic check, at an |t| that no strip width moves."""


def verify_asymptotic(m: PLMap) -> tuple[float, float, float, float, float]:
    """Estimate the straight-line shape of a map at infinity.

    Returns (lambda_est, k_est, alpha_tail_max, shell_1e4, shell_1e6): the
    exact limit slope rounded to a double, the offset estimated at
    |t| = 1e6, the largest deviation from the line over |t| in [1e4, 1e6],
    and the deviations on the two shells (asymptotic_shell_decay).  Every
    point, each |t| taken with both signs, is in one eval_floats batch; an
    offset or deviation that is not finite raises AsymptoticOverflowError.
    """
    lam = m.limit_slope().to_float()
    shells = [u * r for r in (_SHELL_INNER, _SHELL_OUTER) for u in (1.0, 1.25, 1.5)]
    tail = _log_spaced(_SHELL_INNER, _SHELL_OUTER, _SHELL_POINTS)
    ts = [t for u in (_SHELL_OUTER, *tail, *shells) for t in (u, -u)]
    us = m.eval_floats(ts)
    up, down = (_finite(u - lam * t, t) for t, u in zip(ts[:2], us))
    k_est = 0.5 * (up + down)
    devs = [_finite(abs(u - lam * t - k_est), t) for t, u in zip(ts[2:], us[2:])]
    return (lam, k_est, max(devs[:-12]), *asymptotic_shell_decay(devs[-12:]))


def asymptotic_shell_decay(devs: list[float]) -> tuple[float, float]:
    """Max |phi(t) - lam t - k_est| on the |t|=1e4 and |t|=1e6 shells, from
    the six deviations of each that verify_asymptotic measured."""
    return (max(devs[:6]), max(devs[6:]))
