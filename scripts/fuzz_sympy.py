"""Differential check of qhlip's exact kernel against sympy.

Compares, on seeded random inputs:

* ``polyalg.resultant`` on pairs of polynomials in t with integer
  coefficients in x, given as integer rows, against ``sympy.resultant``
  (up to sign: for example sympy gives ``resultant(t, t**3 + 1, t) == -1``
  where the Sylvester determinant, and qhlip, give 1);
* ``polyalg.poly_gcd`` and ``polyalg.square_free_part`` against
  ``sympy.gcd`` and ``sympy.sqf_part``, both made primitive in Z[t] with a
  positive leading coefficient (qhlip's form, with content 1), on pairs of
  rational polynomials that share a factor, sometimes a repeated one;
* ``polyalg.poly_gcd`` and ``polyalg.square_free_part`` against
  ``sympy.gcd`` and ``sympy.sqf_part``, in the same form, on integer
  polynomials of degree 20 to 31 with a shared factor of degree 5 to 8 and
  coefficients above 2**100, the sizes where the heuristic gcd's evaluation
  points are large;
* ``lipclass.critical_data(p).zero_count``, read off the signs of the
  critical values, against the Sturm count of sympy's square-free part;
* ``realalg.isolate_real_roots``: as many roots as sympy counts, strictly
  increasing, each rational root a root of p and each isolating interval
  holding exactly one root of p by sympy's count;
* ``realalg.compare`` on the roots of two polynomials, which share a
  factor in about half the pairs, against the order of the same roots
  among sympy's sorted real roots of the square-free part of the product
  (sympy 1.14 canonicalises shared factors, so
  ``CRootOf((t**2 - 2)*(t**2 - 3), 2) == CRootOf(t**2 - 2, 1)``);
* the certified images ``mul(a, b)``, ``eval_alg(p, a)`` and
  ``nth_root_pos(abs_alg(a), n)`` for real roots a and b of integer
  polynomials of degree at most 3 and an integer polynomial p, which
  shares a's polynomial as a factor about half the time: each box holds
  the exact value's ``evalf(50)`` and exactly one real root of its
  defpoly by sympy's count, and each defpoly is divisible by sympy's
  ``minimal_polynomial`` of the value, unless the value is stored as that
  rational; and ``realalg.sign_at(p, a)`` against the exact sign, zero
  exactly when the minimal polynomial of a divides p;
* ``nth_root_pos`` of a rational p/q, each of p and q up to 300 bits and a
  fifth of the time (u/v)**n, at an order n from 2 to 100: the box holds
  (p/q)**(1/n) to 50 digits beyond its width and exactly one real root of its
  defpoly by sympy's count, a rational result is that root exactly, and
  ``to_float`` is at most one ulp from the root;
* ``UniPoly.sign_at`` at seeded rationals (zero, integers, small
  fractions, denominators above 2**200, and the polynomial's own rational
  roots) against the sign of sympy's exact value;
* ``RealAlg.to_float`` of every isolated root against
  ``CRootOf(...).evalf(40)``: at most one ulp apart; and the same for each
  irrational root scaled exactly by 2**-k, k drawn from [-300, 300], so
  that magnitudes far from 1 are checked against the exact value;
* ``BranchMap.eval_float`` of a map that inverts g on its j-th branch
  (built as for the batch check below), at a float (so rational)
  y = g(u0) rounded, with u0 inside the j-th branch of g between its
  critical points: within the stopping width 2e-15 * max(1, |u|) of the
  root of g - y that sympy's ``real_roots`` puts in that branch, evaluated
  to 30 digits.  Where g is so flat that float evaluation cannot tell g
  from y over a wider interval, |g(u) - y| must instead be within Horner's
  rounding bound gamma_2n * sum |c_i| |u|^i (exact); the last line counts
  these ill-conditioned inversions;
* the batch path ``BranchMap.eval_floats`` on 40 values of one branch of
  g, sorted and then shuffled with a repeat (each value steps from the
  last point its branch evaluated): every preimage by the same
  criterion as above;
* ``lipclass.similar`` on the critical data of f and g, for f of degree 3
  to 5 with two or more critical points and g = c * f((u - b) / a)
  (planted) or that g moved by a small constant or a small multiple of a
  power of u (perturbed), against sympy's exact critical values: each way
  (direct, reverse) is similar exactly when the multiplicities match, the
  zeros match and sympy's ratios b_j / a_j of the nonzero values are one
  number.  Every ratio is a root of one resultant in y, and two ratios are
  one root when a box around both holds one root of it by sympy's exact
  count; the constant qhlip reports must be that root;
* ``parser.parse_bi`` on seeded expression text (sums, differences,
  products and powers of small rational polynomials in X and Y, some
  behind a prefix minus) against ``sympy.expand`` of the same text, term
  by term, and the heights ``BiPoly.height(1)`` and ``height(-1)`` against
  ``subs(X, 1)`` and ``subs(X, -1)`` of the expansion; and the same on
  seeded families whose coefficients read a parameter l, each parsed at
  three values of l in one process (so all but the first evaluate a cached
  program) against sympy's expansion after substituting the value.  A text
  the parser refuses with InputTooLargeError passes only when sympy's
  expansion breaks MAX_TERMS, MAX_DEGREE or MAX_COEFF_BITS; any other
  refusal is a mismatch, and the last line counts the refusals;
* ``div(b, a)`` for the real roots a != 0 of an integer polynomial A of degree
  at most 3, and b each real root of c**n A(t/c) for a random rational
  c != 0 (planted scaled conjugates, one of which is c*a) or of a random
  polynomial: a rational quotient must be sympy's exact quotient, and
  any other must hold it as ``mul(a, b)`` is held above;
* the quasihomogeneous identity ``F(x, t |x|^beta) = |x|^d F(sgn x, t)``,
  on which ``witness.verify_conjugacy`` takes its inner grid rows from the
  heights: for seeded F with weights beta = r/s, sympy's expansion of F at
  (sgn z, t z^beta), z a positive symbol, against z^d times qhlip's height
  ``qhdecide.heights`` on that side, with qhlip's d;
* ``zygothety.is_beta_regular`` on the zygotheties that ``decide`` builds
  (through ``make_regular``) for seeded F against F(aX, bY), on their
  inverses, on one built with distinct scales, limit slopes and root
  orders that balance, and on each with its second scale doubled, against
  the regularity condition in sympy: L1 and L2 of one nonzero sign, and
  |lam1|^beta L1 = |lam2|^beta L2 exactly, where each limit slope L is
  read off the map's fields with sympy's ``Rational`` and ``root`` (at a
  branch map, the orientation's sign times the deg f-th root of
  |c lc(f) / lc(g)|) and equality is a minimal polynomial of the
  difference equal to x;
* ``qhlip classify2`` and ``qhlip witness``, run in-process through
  ``cli.main``, on planted pairs F against F(2^k X, bY), and G against F,
  drawn as the test suite draws them (``helpers.planted_scaling``: F from
  ``rand_qhpoly``, k in {0, 2, 4, 6, 8}, b in {1, 2, 3}): each must exit 0
  with the verdict Equivalent;
* ``polyalg.count_roots_between(p, a, c, m)`` on integer boxes (a/m, c/m)
  for the square-free part of a seeded p, against sympy's ``count_roots``
  of its ``sqf_part`` on the closed interval, with m = 1, 2, a power of
  two, a small m or one above 2**60; a box with an end on p's rational
  roots must raise ArithmeticError, and an empty one, a point box
  included, ValueError.

Needs sympy.  The test suite runs 20 cases (seed 1) where sympy is
installed; run more from the repository root:

    PYTHONPATH=src python3 scripts/fuzz_sympy.py --cases 200 --seed 1

Exits 1 on the first mismatch, 0 when every case agrees.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import sympy

from qhlip import cli
from qhlip.lipclass import critical_data, similar
from qhlip.parser import MAX_COEFF_BITS, MAX_DEGREE, MAX_TERMS, InputTooLargeError, ParseError, parse_bi
from qhlip.polyalg import BiPoly, UniPoly, count_roots_between, poly_gcd, resultant, square_free_part
from qhlip.qhdecide import QHPoly, decide, heights, validate_qh
from qhlip.realalg import RealAlg, abs_alg, compare, div, eval_alg, isolate_real_roots, mul, nth_root_pos, sign_at
from qhlip.zygothety import Affine, BranchMap, Neg, NegConj, Zygothety, inverse, is_beta_regular

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from helpers import planted_scaling  # noqa: E402  (the test suite's draw)

X, T = sympy.symbols("x t")
BX, BY, BL = sympy.symbols("X Y l")
Z = sympy.Symbol("z", positive=True)


def product(*ps: UniPoly) -> UniPoly:
    """The product of the polynomials, by convolution of their coefficients."""
    out = [Fraction(1)]
    for p in ps:
        acc = [Fraction(0)] * (len(out) + p.degree)
        for i, x in enumerate(out):
            for j, y in enumerate(p.coeffs):
                acc[i + j] += x * y
        out = acc
    return UniPoly(out)


def rand_uni(rng: random.Random, max_deg: int) -> UniPoly:
    """Nonconstant integer polynomial, sometimes with a repeated factor."""
    while True:
        p = UniPoly(rng.randint(-6, 6) for _ in range(rng.randint(2, max_deg + 1)))
        if p.degree >= 1:
            break
    if rng.random() < 0.3:
        q = UniPoly((rng.randint(-3, 3), rng.choice((-1, 1, 2))))
        p = product(p, q, q)
    return p


def rand_tpoly(rng: random.Random) -> tuple[list[int], ...]:
    """Polynomial in t of degree 0-4, as the integer rows `resultant` takes:
    its coefficients lowest power first, each a polynomial in x of degree
    0-2 given by its integer coefficients, lowest power first."""

    def row() -> list[int]:
        return [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]

    lead = row()
    while not any(lead):
        lead = row()
    return tuple(row() for _ in range(rng.randint(0, 4))) + (lead,)


def uni_expr(p: UniPoly, var: sympy.Symbol) -> sympy.Expr:
    return sum(sympy.Rational(c.numerator, c.denominator) * var**i for i, c in enumerate(p.coeffs))


def tpoly_expr(A: tuple[list[int], ...]) -> sympy.Expr:
    return sum(c * X**i * T**k for k, row in enumerate(A) for i, c in enumerate(row))


def check_resultant(A: tuple[list[int], ...], B: tuple[list[int], ...]) -> str | None:
    ours = uni_expr(resultant(A, B), X)
    theirs = sympy.resultant(tpoly_expr(A), tpoly_expr(B), T)
    if sympy.expand(ours - theirs) == 0 or sympy.expand(ours + theirs) == 0:
        return None
    return f"resultant of {A} and {B}: qhlip {ours}, sympy {theirs}"


def primitive_expr(p: sympy.Expr) -> sympy.Expr:
    """p scaled by a nonzero rational to coprime integer coefficients with a
    positive leading one."""
    P = sympy.Poly(p, T).clear_denoms(convert=True)[1].primitive()[1]
    return (P if P.LC() > 0 else -P).as_expr()


def same_form(ours: UniPoly, theirs: sympy.Expr) -> bool:
    """ours has content 1 and is primitive_expr(theirs), coefficient by coefficient."""
    return ours.content == 1 and sympy.expand(uni_expr(ours, T) - primitive_expr(theirs)) == 0


def check_gcd(p: UniPoly, q: UniPoly) -> str | None:
    pe, qe = uni_expr(p, T), uni_expr(q, T)
    ours, theirs = poly_gcd(p, q), sympy.gcd(pe, qe)
    if not same_form(ours, theirs):
        return f"poly_gcd({p}, {q}) = {ours}, sympy {theirs}"
    for f, fe in ((p, pe), (q, qe)):
        ours, theirs = square_free_part(f), sympy.sqf_part(fe)
        if not same_form(ours, theirs):
            return f"square_free_part({f}) = {ours}, sympy {theirs}"
    return None


def rand_big_pair(rng: random.Random) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(p, q, shared): p and q of degree 20 to 31 share the factor shared of
    degree 5 to 8, whose coefficients reach above 2**100."""

    def big_poly(lo: int, hi: int, bits: int) -> UniPoly:
        cs = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(lo, hi))]
        return UniPoly(cs + [rng.choice((-1, 1)) * rng.randint(2 ** (bits - 1), 2**bits)])

    shared = big_poly(5, 8, 110)
    return product(big_poly(15, 23, 40), shared), product(big_poly(15, 23, 40), shared), shared


def check_big_gcd(p: UniPoly, q: UniPoly, shared: UniPoly) -> str | None:
    pe, qe = uni_expr(p, T), uni_expr(q, T)
    ours, theirs = poly_gcd(p, q), sympy.gcd(pe, qe)
    if sympy.Poly(theirs, T).degree() < shared.degree or not same_form(ours, theirs):
        return f"degree-{p.degree} poly_gcd: qhlip {ours}, sympy {theirs}"
    f = product(p, shared)  # shared is a repeated factor of f
    ours, theirs = square_free_part(f), sympy.sqf_part(uni_expr(f, T))
    if not same_form(ours, theirs):
        return f"degree-{f.degree} square_free_part: qhlip {ours}, sympy {theirs}"
    return None


def rand_rational_pair(rng: random.Random) -> tuple[UniPoly, UniPoly]:
    """Two polynomials with rational coefficients, times a shared factor
    that is squared a third of the time."""

    def rat_poly(max_deg: int) -> UniPoly:
        """Degree 1 to max_deg, leading coefficient of either sign."""
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, max_deg))]
        return UniPoly(cs + [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))])

    shared = rat_poly(2)
    if rng.random() < 1 / 3:
        shared = product(shared, shared)
    return product(rat_poly(4), shared), product(rat_poly(3), shared)


def check_roots(p: UniPoly) -> str | None:
    sqf = sympy.Poly(uni_expr(p, T), T).sqf_part()
    want = sqf.count_roots()
    got = critical_data(p).zero_count
    if got != want:
        return f"critical_data({p}).zero_count = {got}, sympy {want}"
    roots = isolate_real_roots(p)
    if len(roots) != want:
        return f"isolate_real_roots({p}) gave {len(roots)} roots, sympy counts {want}"
    for prev, cur in zip(roots, roots[1:]):
        if not prev.hi <= cur.lo:
            return f"isolate_real_roots({p}): {prev} and {cur} overlap or are out of order"
    for r in roots:
        lo, hi = sympy.Rational(str(r.lo)), sympy.Rational(str(r.hi))
        if r.is_rational and sqf.eval(lo) != 0:
            return f"isolate_real_roots({p}): {r.lo} is not a root"
        if not r.is_rational and sqf.count_roots(lo, hi) != 1:
            return f"isolate_real_roots({p}): ({r.lo}, {r.hi}) does not isolate one root"
    return None


def check_count_roots(rng: random.Random, root_ends: list[int]) -> str | None:
    """count_roots_between on integer boxes (a/m, c/m) against sympy's count
    on the closed interval, over m = 1, 2, a power of two, a small m or a
    huge one; some boxes are empty or a point, and some have an end on the
    k/2 grid where rand_uni plants its rational roots: an end that is a
    root must raise ArithmeticError, an empty box or a point ValueError."""
    p = rand_uni(rng, 6)
    q, sqf = square_free_part(p), sympy.Poly(uni_expr(p, T), T).sqf_part()
    for _ in range(6):
        m = rng.choice((1, 2, 2 ** rng.randint(2, 40), rng.randint(3, 99), rng.randint(2**60, 2**70)))
        a = rng.randint(-8 * m, 8 * m) if rng.random() < 0.7 else m * rng.randint(-8, 8) // 2
        c = a + rng.randint(-m // 4, 8 * m)
        lo, hi = sympy.Rational(a, m), sympy.Rational(c, m)
        if a >= c:  # the open box is empty
            want = "ValueError"
        elif sqf.eval(lo) == 0 or sqf.eval(hi) == 0:
            want = "ArithmeticError"
            root_ends.append(1)
        else:
            want = sqf.count_roots(lo, hi)
        try:
            got = count_roots_between(q, a, c, m)
        except (ValueError, ArithmeticError) as exc:
            got = type(exc).__name__
        if got != want:
            return f"count_roots_between({q}, {a}, {c}, {m}) = {got}, sympy {want}"
    return None


def rand_points(rng: random.Random, p: UniPoly) -> list[Fraction]:
    """Zero, an integer, a small fraction, a huge-denominator rational, and
    p's roots among k/2 for |k| <= 6 (where rand_uni plants its repeated
    factors)."""
    points = [
        Fraction(0),
        Fraction(rng.randint(-9, 9)),
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        Fraction(rng.randint(-(2**300), 2**300), rng.randint(2**200, 2**260)),
    ]
    points += [Fraction(k, 2) for k in range(-6, 7) if p(Fraction(k, 2)) == 0]
    return points


def check_sign_at(p: UniPoly, points: list[Fraction]) -> str | None:
    expr = uni_expr(p, T)
    for x in points:
        want = sympy.sign(expr.subs(T, sympy.Rational(x.numerator, x.denominator)))
        if p.sign_at(x) != want:
            return f"{p}.sign_at({x}) = {p.sign_at(x)}, sympy {want}"
    return None


def check_floats(rng: random.Random, p: UniPoly) -> str | None:
    sqf = sympy.Poly(uni_expr(p, T), T).sqf_part()
    for i, r in enumerate(isolate_real_roots(p)):
        for k in (0,) if r.is_rational else (0, rng.randint(-300, 300)):
            ours = (mul(r, RealAlg.from_rational(Fraction(2) ** -k)) if k else r).to_float()
            exact = (sympy.CRootOf(sqf.as_expr(), i) * sympy.Integer(2) ** -k).evalf(40)
            if abs(sympy.Float(ours, 40) - exact) > math.ulp(ours):
                return f"root {i} of {p} times 2**{-k}: to_float {ours!r}, sympy {exact}"
    return None


def check_compare(p: UniPoly, q: UniPoly) -> str | None:
    def real_roots(f: UniPoly) -> list[sympy.Expr]:
        return sympy.Poly(uni_expr(f, T), T).sqf_part().real_roots()

    # position of each of p's and q's roots among the sorted roots of p*q
    both = real_roots(product(p, q))
    at_p = [both.index(r) for r in real_roots(p)]
    at_q = [both.index(r) for r in real_roots(q)]
    for i, a in enumerate(isolate_real_roots(p)):
        for j, b in enumerate(isolate_real_roots(q)):
            want = (at_p[i] > at_q[j]) - (at_p[i] < at_q[j])
            if compare(a, b) != want:
                return f"compare(root {i} of {p}, root {j} of {q}) = {compare(a, b)}, sympy {want}"
    return None


def real_roots(p: UniPoly) -> list[tuple[RealAlg, sympy.Expr]]:
    """p's real roots, each with sympy's exact value, in increasing order."""
    return list(zip(isolate_real_roots(p), sympy.Poly(uni_expr(p, T), T).sqf_part().real_roots()))


def check_value(what: str, v: RealAlg, exact: sympy.Expr) -> str | None:
    minpoly = sympy.Poly(sympy.minimal_polynomial(exact, T), T)
    if v.is_rational:
        if minpoly.degree() != 1 or minpoly.eval(sympy.Rational(str(v.lo))) != 0:
            return f"{what} = {v}, sympy's minimal polynomial {minpoly.as_expr()}"
        return None
    lo, hi = sympy.Rational(str(v.lo)), sympy.Rational(str(v.hi))
    if not lo < exact.evalf(50) < hi:
        return f"{what} = {v} misses {exact.evalf(50)}"
    D = sympy.Poly(uni_expr(v.defpoly, T), T)
    if D.count_roots(lo, hi) != 1:
        return f"{what} = {v}: the box holds {D.count_roots(lo, hi)} roots of the defpoly"
    if not D.rem(minpoly).is_zero:
        return f"{what} = {v}: the defpoly is not divisible by {minpoly.as_expr()}"
    return None


def check_images(rng: random.Random) -> str | None:
    pa, pb, p = rand_uni(rng, 3), rand_uni(rng, 3), rand_uni(rng, 3)
    if rng.random() < 0.5:
        p = product(p, pa)
    pe = uni_expr(p, T)
    for a, ae in real_roots(pa):
        minpoly = sympy.Poly(sympy.minimal_polynomial(ae, T), T)
        want = 0 if sympy.Poly(pe, T).rem(minpoly).is_zero else sympy.sign(pe.subs(T, ae).evalf(50))
        if sign_at(p, a) != want:
            return f"sign_at({p}, {a}) = {sign_at(p, a)}, sympy {want}"
        values = [(f"eval_alg({p}, {a})", eval_alg(p, a), pe.subs(T, ae))]
        if a.sign():
            n = rng.randint(2, 3)
            values.append((f"nth_root_pos(|{a}|, {n})", nth_root_pos(abs_alg(a), n), sympy.root(abs(ae), n)))
        values += [(f"mul({a}, {b})", mul(a, b), ae * be) for b, be in real_roots(pb)]
        for what, v, exact in values:
            problem = check_value(what, v, exact)
            if problem:
                return problem
    return None


def check_rational_root(rng: random.Random) -> str | None:
    """nth_root_pos(p/q, n) against the unevaluated power (p/q)**(1/n): sympy.root
    would first factor p and q, which takes seconds at 200 bits."""
    n = rng.randint(2, 100)
    if rng.random() < 0.2:
        u, v = (rng.randint(1, 2 ** max(1, 300 // n)) for _ in range(2))
        q = Fraction(u, v) ** n
    else:
        q = Fraction(*(rng.randint(1, 2 ** rng.randint(1, 300)) for _ in range(2)))
    root, what = nth_root_pos(RealAlg.from_rational(q), n), f"nth_root_pos({q}, {n})"
    radicand = sympy.Rational(q.numerator, q.denominator)
    if root.is_rational:
        return None if sympy.Rational(str(root.lo)) ** n == radicand else f"{what} = {root}"
    # 50 digits beyond the box's relative width, which the probes can take far below 2**-62
    width = root.lo / (root.hi - root.lo)
    exact = sympy.Pow(radicand, sympy.Rational(1, n), evaluate=False).evalf(
        50 + (width.numerator.bit_length() - width.denominator.bit_length()) * 3 // 10
    )
    lo, hi = sympy.Rational(str(root.lo)), sympy.Rational(str(root.hi))
    if not lo < exact < hi:
        return f"{what} = {root} misses {exact}"
    if sympy.Poly(uni_expr(root.defpoly, T), T).count_roots(lo, hi) != 1:
        return f"{what} = {root}: the box does not hold exactly one root of the defpoly"
    ours = root.to_float()
    if abs(sympy.Float(ours, 40) - exact) > math.ulp(ours):
        return f"{what}: to_float {ours!r}, sympy {exact}"
    return None


def check_division(rng: random.Random, rational: list[int]) -> str | None:
    """div(b, a) for the real roots a != 0 of an integer polynomial A of degree
    at most 3 and b each real root of c**n A(t/c), for a random rational
    c != 0 (planted: one b is c*a), and of a random polynomial; rational
    counts the irrational pairs whose quotient came out rational."""
    pa = rand_uni(rng, 3)
    c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    n = pa.degree
    planted = UniPoly(x * c ** (n - i) for i, x in enumerate(pa.coeffs))
    pairs = real_roots(planted) + real_roots(rand_uni(rng, 3))
    for a, ae in real_roots(pa):
        if not a.sign():
            continue
        for b, be in pairs:
            q = div(b, a)
            problem = check_value(f"div({b}, {a})", q, be / ae)
            if problem:
                return problem
            if q.is_rational and not (a.is_rational or b.is_rational):
                rational.append(1)
    return None


def branch_point(rng: random.Random, crits: list[float], j: int) -> float:
    """A float inside the j-th branch between the critical points."""
    p, s = len(crits), rng.randint(1, 63) / 64
    if p == 0:
        return 16 * s - 8
    if j == 0:
        return crits[0] - 8 * s
    if j == p:
        return crits[-1] + 8 * s
    return crits[j - 1] + s * (crits[j] - crits[j - 1])


@functools.lru_cache(maxsize=None)
def roots_between(g: UniPoly, lo: float, hi: float, y: float) -> tuple[sympy.Float, ...]:
    """sympy's real roots of g - y in [lo, hi], to 30 digits."""
    Y = Fraction(y)
    roots = sympy.real_roots(uni_expr(g, T) - sympy.Rational(Y.numerator, Y.denominator))
    return tuple(r.evalf(30) for r in roots if lo <= r.evalf(30) <= hi)


def check_preimage(g: UniPoly, crits: list[float], j: int, y: float, u: float, flat: list[int]) -> str | None:
    """u against the root of g - y that sympy puts in the j-th branch."""
    lo = crits[j - 1] if j >= 1 else -math.inf
    hi = crits[j] if j < len(crits) else math.inf
    Y = Fraction(y)
    inside = roots_between(g, lo, hi, y)
    if len(set(inside)) != 1:
        return f"g = {g}, y = {y!r}: sympy finds {inside} on branch {j} ({lo}, {hi})"
    if abs(sympy.Float(u, 30) - inside[0]) <= 2e-15 * max(1.0, abs(u)):
        return None
    U, unit = Fraction(u), Fraction(1, 2**53)
    gamma = 2 * g.degree * unit / (1 - 2 * g.degree * unit)
    if abs(g(U) - Y) <= gamma * sum(abs(c) * abs(U) ** i for i, c in enumerate(g.coeffs)):
        flat.append(1)
        return None
    return f"preimage of {y!r} under {g} on branch {j} of {crits}: {u!r}, sympy {inside[0]}"


def branch_inverse(g: UniPoly, j: int) -> tuple[list[float], BranchMap]:
    """g's critical points as floats, and a BranchMap inverting g on its j-th
    branch: its f is t itself, and its cut points for f put every value on
    branch j."""
    points = critical_data(g).points
    far = [RealAlg.from_rational(-(10**30))] * j + [RealAlg.from_rational(10**30)] * (len(points) - j)
    return [c.to_float() for c in points], BranchMap(RealAlg.from_rational(1), True, UniPoly([0, 1]), g, far, points)


def check_inversion(rng: random.Random, g: UniPoly, flat: list[int]) -> str | None:
    j = rng.randint(0, critical_data(g).count)
    crits, inverse = branch_inverse(g, j)
    y = float(g(Fraction(branch_point(rng, crits, j))))
    return check_preimage(g, crits, j, y, inverse.eval_float(y), flat)


def check_batch_inversion(rng: random.Random, g: UniPoly, flat: list[int]) -> str | None:
    """BranchMap.eval_floats on a dense batch of 40 values of one branch of g,
    sorted and then shuffled with a repeat, so that the carry from one value
    to the next, its stop rule and its bisections meet sympy's roots."""
    j = rng.randint(0, critical_data(g).count)
    crits, inverse = branch_inverse(g, j)
    ys = sorted(float(g(Fraction(branch_point(rng, crits, j)))) for _ in range(40))
    shuffled = ys + [ys[0]]
    rng.shuffle(shuffled)
    for batch in (ys, shuffled):
        for y, u in zip(batch, inverse.eval_floats(batch)):
            problem = check_preimage(g, crits, j, y, u, flat)
            if problem:
                return problem
    return None


def rand_similar_pair(rng: random.Random) -> tuple[UniPoly, UniPoly]:
    """f of degree 3 to 5 with two or more critical points, and g planted as
    c * f((u - b) / a) with c > 0, or that g perturbed (half the time)."""
    while True:
        f = UniPoly(rng.randint(-4, 4) for _ in range(rng.randint(4, 6)))
        if f.degree >= 3 and critical_data(f).count >= 2:
            break
    a = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
    b, c = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 4), rng.randint(1, 3))
    g = f.compose(UniPoly((-b / a, 1 / a))).scale(c)
    if rng.random() < 0.5:
        k = rng.randint(0, g.degree - 1)
        bump = [0] * k + [Fraction(rng.choice((-1, 1)), rng.choice((1, 10, 1000)))]
        g = UniPoly(x + y for x, y in itertools.zip_longest(g.coeffs, bump, fillvalue=0))
    return f, g


Y = sympy.Symbol("y")


def exact_symbol(p: UniPoly) -> tuple[sympy.Expr, list[tuple[sympy.Expr, bool]], list[int]]:
    """(p's expression, the critical points in increasing order each with
    whether p vanishes there, their multiplicities): sympy's real roots of
    p', each counted once; a point's multiplicity is its multiplicity in
    p' + 1, and p vanishes there exactly when it is a root of gcd(p, p')."""
    pe = uni_expr(p, T)
    dp = sympy.Poly(sympy.diff(pe, T), T)
    points = dp.real_roots()
    common = sympy.Poly(sympy.gcd(pe, dp.as_expr()), T)
    zeros = set(common.real_roots()) if common.degree() > 0 else set()
    distinct = sorted(set(points), key=lambda r: r.evalf(50))
    return pe, [(r, r in zeros) for r in distinct], [points.count(r) + 1 for r in distinct]


def ratio_poly(fe: sympy.Expr, ge: sympy.Expr) -> sympy.Poly:
    """The square-free polynomial in y whose roots are the ratios g(s)/f(r)
    over the critical points r of f and s of g where f and g are nonzero:
    Res_r(f1(r), Res_s(g1(s), g(s) - y*f(r))), with f1 = sqf(f') over its
    gcd with f, and g1 likewise."""

    def nonzero_crit(e: sympy.Expr) -> sympy.Expr:
        d = sympy.sqf_part(sympy.diff(e, T))
        return sympy.quo(d, sympy.gcd(d, e), T)

    R, S = sympy.symbols("r s")
    inner = sympy.resultant(nonzero_crit(ge).subs(T, S), ge.subs(T, S) - Y * fe.subs(T, R), S)
    return sympy.Poly(sympy.resultant(nonzero_crit(fe).subs(T, R), inner, R), Y).sqf_part()


def root_box(P: sympy.Poly, value: sympy.Expr) -> tuple[sympy.Rational, sympy.Rational] | None:
    """A rational box around value, a root of P, that holds exactly one root
    of P by sympy's exact count, or None when 40 digits cannot tell it from
    the other roots."""
    mid = sympy.Rational(str(value.evalf(60)))
    eps = sympy.Rational(1, 10**40) * max(1, abs(mid))
    lo, hi = mid - eps, mid + eps
    return (lo, hi) if P.count_roots(lo, hi) == 1 else None


def exact_similar(fe, ge, fpts, gpts, P: sympy.Poly) -> tuple[bool, tuple | None] | str:
    """(similar, box): whether g's critical values are c times f's (in the
    given order) for one c > 0, zeros matching, with a box that isolates c
    among the roots of P (None when every value is zero); a message when
    sympy's numbers cannot be separated."""
    box = None
    for (r, rz), (s, sz) in zip(fpts, gpts):
        if rz or sz:
            if rz != sz:
                return False, None
            continue
        ratio = ge.subs(T, s) / fe.subs(T, r)
        this = root_box(P, ratio)
        if this is None:
            return f"cannot isolate the ratio {ratio} among the roots of {P.as_expr()}"
        if box is None:
            if this[1] < 0:
                return False, None
            box = this
        elif P.count_roots(min(box[0], this[0]), max(box[1], this[1])) != 1:
            return False, None
    return True, box


def check_similar(f: UniPoly, g: UniPoly) -> str | None:
    A, B = critical_data(f), critical_data(g)
    if A.count != B.count:
        return None
    (fe, fpts, ma), (ge, gpts, mb) = exact_symbol(f), exact_symbol(g)
    if (ma, mb) != (list(A.mults), list(B.mults)):
        return f"multiplicities of {f} and {g}: qhlip {A.mults} {B.mults}, sympy {ma} {mb}"
    P = ratio_poly(fe, ge)
    direct, reverse = similar(A, B)
    for way, cset, pts, mults in (("direct", direct, fpts, ma), ("reverse", reverse, fpts[::-1], ma[::-1])):
        got = exact_similar(fe, ge, pts, gpts, P) if mults == mb else (False, None)
        if isinstance(got, str):
            return f"similar({f}, {g}) {way}: {got}"
        ok, box = got
        if (cset is not None) != ok:
            return f"similar({f}, {g}) {way}: qhlip {cset}, sympy {'similar' if ok else 'not similar'}"
        if ok and (cset.c is None) != (box is None):
            return f"similar({f}, {g}) {way}: qhlip constant {cset.c}, sympy box {box}"
        if ok and box is not None:
            # c is the one root of P in box; qhlip's c is the one root of its
            # defpoly in its own box: equal when the gcd has a root on both
            c = cset.c
            D = sympy.Poly(uni_expr(c.defpoly, T).subs(T, Y), Y)
            lo = max(box[0], sympy.Rational(str(c.lo)))
            hi = min(box[1], sympy.Rational(str(c.hi)))
            G = sympy.Poly(sympy.gcd(D.as_expr(), P.as_expr()), Y)
            if not (lo <= hi and G.degree() > 0 and G.count_roots(lo, hi) == 1):
                return f"similar({f}, {g}) {way}: qhlip constant {c}, sympy's in {box}"
    return None


def rand_pair(rng: random.Random) -> tuple[UniPoly, UniPoly]:
    """Two polynomials that share a random factor about half the time."""
    p, q = rand_uni(rng, 5), rand_uni(rng, 5)
    if rng.random() < 0.5:
        shared = rand_uni(rng, 3)
        p, q = product(p, shared), product(q, shared)
    return p, q


def rand_bi_text(rng: random.Random, depth: int, param: bool = False) -> str:
    """Expression text in X and Y: a small rational polynomial at depth 0,
    else a sum, difference, product or power of smaller expressions, in
    parentheses, sometimes behind a prefix minus.  With param, a term's
    coefficient sometimes reads the parameter l."""
    if depth == 0 or rng.random() < 0.25:
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}"
            if param and rng.random() < 0.5:
                c = f"{c}*l^{rng.randint(1, 2)}"
            terms.append(f"{c}*X^{rng.randint(0, 2)}*Y^{rng.randint(0, 2)}")
        return " + ".join(terms)
    op = rng.choice("+-*^")
    left = f"({rand_bi_text(rng, depth - 1, param)})"
    if op == "^":
        text = f"{left}^{rng.randint(0, 3)}"
    else:
        text = f"{left} {op} ({rand_bi_text(rng, depth - 1, param)})"
    return f"-({text})" if rng.random() < 0.2 else text


def beyond_limits(terms: dict) -> bool:
    """Whether a polynomial, as sympy's nonzero terms, breaks one of the
    parser's limits on terms, degree and coefficient bits."""
    return (
        len(terms) > MAX_TERMS
        or max((i + j for i, j in terms), default=0) > MAX_DEGREE
        or any(max(abs(c.p), c.q).bit_length() > MAX_COEFF_BITS for c in terms.values())
    )


def check_parser(text: str, refused: list[str], l: Fraction | None = None) -> str | None:
    """parse_bi(text) against sympy's expansion, with l bound to the value l
    if given; a refusal passes, and joins refused, only where the expansion
    is beyond the parser's limits."""
    expr = sympy.sympify(text.replace("^", "**"), locals={"X": BX, "Y": BY, "l": BL})
    expr = sympy.expand(expr if l is None else expr.subs(BL, sympy.Rational(l.numerator, l.denominator)))
    theirs = {k: v for k, v in sympy.Poly(expr, BX, BY).as_dict().items() if v}
    try:
        ours = parse_bi(text, None if l is None else {"l": l})
    except ParseError as exc:
        if isinstance(exc, InputTooLargeError) and beyond_limits(theirs):
            refused.append(text)
            return None
        return f"parse_bi({text!r}) at l = {l} refused ({exc}), sympy's expansion is within the limits"
    if {k: sympy.Rational(c.numerator, c.denominator) for k, c in ours.terms.items()} != theirs:
        return f"parse_bi({text!r}) at l = {l}: qhlip {ours}, sympy {expr}"
    for side in (1, -1):
        if sympy.expand(uni_expr(ours.height(side), BY) - expr.subs(BX, side)) != 0:
            return f"height({side}) of {text!r}: qhlip {ours.height(side)}, sympy {expr.subs(BX, side)}"
    return None


def check_family(rng: random.Random, refused: list[str]) -> str | None:
    """One family in l parsed at three values, zero and negatives included."""
    text = rand_bi_text(rng, 3, param=True)
    for l in (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)):
        problem = check_parser(text, refused, l)
        if problem:
            return problem
    return None


def rand_qh(rng: random.Random) -> QHPoly:
    """c_k X^(d - r k) Y^(s k) summed over k = 0..n, for coprime r > s and
    d = r n + e: quasihomogeneous of weights (r, s) and degree d."""
    r, s = rng.choice(((2, 1), (3, 1), (3, 2), (5, 2), (5, 3)))
    n, e = rng.randint(1, 3), rng.randint(0, 2)
    terms = {(e + r * (n - k), s * k): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for k in range(n)}
    terms[(e, s * n)] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
    return validate_qh(BiPoly(terms), r, s)


def check_qh_identity(Q: QHPoly) -> str | None:
    expr = sum(sympy.Rational(c.numerator, c.denominator) * BX**i * BY**j for (i, j), c in Q.poly.terms.items())
    pair = heights(Q)
    for sgn, height in ((1, pair.f_plus), (-1, pair.f_minus)):
        at = {BX: sgn * Z, BY: T * Z ** sympy.Rational(Q.r, Q.s)}
        row = sympy.expand(expr.subs(at, simultaneous=True))
        if sympy.expand(row - Z**Q.d * uni_expr(height, T)) != 0:
            return f"F = {Q.poly}, beta = {Q.r}/{Q.s}: F(sgn z, t z^beta) = {row}, not z^{Q.d} ({height})"
    return None


def sym_number(a: RealAlg) -> sympy.Expr:
    """a in sympy: a Rational, or the real root of a's defpoly in its box."""
    if a.is_rational:
        return sympy.Rational(str(a.lo))
    lo, hi = sympy.Rational(str(a.lo)), sympy.Rational(str(a.hi))
    return next(r for r in sympy.Poly(uni_expr(a.defpoly, T), T).real_roots() if lo < r < hi)


def sym_slope(m) -> sympy.Expr:
    """The limit slope of a line map, read off its fields in sympy."""
    if isinstance(m, Affine):
        return sympy.Rational(str(m.a))
    if isinstance(m, BranchMap):
        ratio = sym_number(m.c) * sympy.Rational(str(m.f.leading / m.g.leading))
        return (1 if m.increasing else -1) * sympy.root(abs(ratio), m.f.degree)
    if isinstance(m, Neg):
        return -sym_slope(m.inner)
    if isinstance(m, NegConj):
        return sym_slope(m.inner)
    return sym_slope(m.outer) * sym_slope(m.inner)


def check_beta_regular(rng: random.Random, irrational: list[int]) -> str | None:
    Q = rand_qh(rng)
    a, b = (Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in range(2))
    G = Q.poly.scale_vars(a, b)
    cert = decide(Q, validate_qh(G, Q.r, Q.s)).certificate
    if cert is None:
        return None
    z, beta = cert.zygothety, sympy.Rational(Q.r, Q.s)
    irrational += [not z.lam1.is_rational]
    # scales u^s and v^s, and maps t^n -> t^n scaled by (v^r w)^n1 and
    # (u^r w)^n2, with limit slopes v^r w and u^r w: regular, with distinct
    # scales, slopes and root orders
    u, v, w = (Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(3))
    n1, n2 = rng.choices(range(1, 5), k=2)
    t1, t2 = UniPoly([0] * n1 + [1]), UniPoly([0] * n2 + [1])
    balanced = Zygothety(
        RealAlg.from_rational(u**Q.s),
        RealAlg.from_rational(v**Q.s),
        BranchMap(RealAlg.from_rational((v**Q.r * w) ** n1), True, t1, t1, (), ()),
        BranchMap(RealAlg.from_rational((u**Q.r * w) ** n2), True, t2, t2, (), ()),
    )
    two = RealAlg.from_rational(2)
    for what, y, want in (
        ("z", z, True),
        ("z^-1", inverse(z), True),
        ("z with lam2 doubled", Zygothety(z.lam1, mul(z.lam2, two), z.phi1, z.phi2), False),
        (f"balanced, u = {u}, v = {v}, n = {n1}, {n2}", balanced, True),
        ("balanced, lam2 doubled", Zygothety(balanced.lam1, mul(balanced.lam2, two), balanced.phi1, balanced.phi2), False),
    ):
        L1, L2 = sym_slope(y.phi1), sym_slope(y.phi2)
        gap = abs(sym_number(y.lam1)) ** beta * L1 - abs(sym_number(y.lam2)) ** beta * L2
        exact = sympy.sign(L1) == sympy.sign(L2) != 0 and sympy.minimal_polynomial(gap, X) == X
        if is_beta_regular(y, Q.r, Q.s) is not exact or exact is not want:
            return f"{what} for F = {Q.poly}, G = {G}, beta = {beta}: qhlip {not exact}, sympy {exact}"
    return None


def check_planted(rng: random.Random) -> str | None:
    q, g = planted_scaling(rng)
    for pair in ((str(q.poly), str(g)), (str(g), str(q.poly))):
        args = ["--beta", f"{q.r}/{q.s}", "--", *pair]
        for cmd in ("classify2", "witness"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([cmd, *args])
            if code != 0 or json.loads(out.getvalue())["verdict"] != "Equivalent":
                return f"qhlip {cmd} {' '.join(args)} exited {code}: {err.getvalue().strip()}"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    # the batch check draws from its own generator, so that the other
    # checks see the inputs they saw before it was added
    batch_rng = random.Random(f"batch {args.seed}")
    similar_rng = random.Random(f"similar {args.seed}")
    parse_rng = random.Random(f"parse {args.seed}")
    family_rng = random.Random(f"family {args.seed}")
    division_rng = random.Random(f"division {args.seed}")
    qh_rng = random.Random(f"qh {args.seed}")
    beta_rng = random.Random(f"beta {args.seed}")
    count_rng = random.Random(f"count {args.seed}")
    planted_rng = random.Random(f"planted {args.seed}")
    floats_rng = random.Random(f"floats {args.seed}")
    roots_rng = random.Random(f"roots {args.seed}")
    flat: list[int] = []
    rational: list[int] = []
    irrational: list[int] = []
    root_ends: list[int] = []
    refused: list[str] = []
    for i in range(args.cases):
        A, B, p = rand_tpoly(rng), rand_tpoly(rng), rand_uni(rng, 8)
        problem = (
            check_resultant(A, B)
            or check_gcd(*rand_rational_pair(rng))
            or check_roots(p)
            or check_sign_at(p, rand_points(rng, p))
            or check_floats(floats_rng, p)
            or check_compare(*rand_pair(rng))
            or check_inversion(rng, p, flat)
            or check_batch_inversion(batch_rng, p, flat)
            or check_big_gcd(*rand_big_pair(rng))
            or check_images(rng)
            or check_similar(*rand_similar_pair(similar_rng))
            or check_parser(rand_bi_text(parse_rng, 3), refused)
            or check_family(family_rng, refused)
            or check_division(division_rng, rational)
            or check_qh_identity(rand_qh(qh_rng))
            or check_beta_regular(beta_rng, irrational)
            or check_count_roots(count_rng, root_ends)
            or check_planted(planted_rng)
            or check_rational_root(roots_rng)
        )
        if problem:
            print(f"case {i}: MISMATCH {problem}")
            return 1
    print(
        f"{args.cases} cases agree with sympy {sympy.__version__} (seed {args.seed}; "
        f"{len(flat)} inversions within the rounding bound, not the width; "
        f"{len(rational)} quotients of irrationals rational; "
        f"{sum(irrational)} of {len(irrational)} regularity checks with an irrational scale; "
        f"{len(root_ends)} Sturm boxes with a root at an end; "
        f"{len(refused)} parser texts refused beyond the limits)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
