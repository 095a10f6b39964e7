import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import qhlip
from qhlip import cli, jsonio, realalg
from qhlip.lipclass import critical_data
from qhlip.polyalg import UniPoly, count_roots_between, sign, square_free_part
from qhlip.realalg import (
    RealAlg,
    abs_alg,
    add,
    compare,
    div,
    eval_alg,
    inverse,
    isolate_real_roots,
    mul,
    neg,
    nth_root_pos,
    pow_int,
    sign_at,
)
from qhlip.zygothety import BranchMap

from helpers import (
    box,
    brute_force_real_root_count,
    frac_interval_eval,
    frac_root_bracket,
    frac_simplest_between,
    gcd_count_compare,
    gcd_count_sign_at,
    rand_nonzero_rational,
    rand_unipoly,
    rebuilt_alg,
    ref_to_float,
    uni_add,
    uni_mul,
)


def P(*coeffs):
    return UniPoly(coeffs)


def sqrt2():
    return nth_root_pos(RealAlg.from_rational(2), 2)


class TestIsolation:
    def test_rational_roots(self):
        roots = isolate_real_roots(P(-3, 0, 3))
        assert all(r.is_rational for r in roots)
        assert [r.lo for r in roots] == [-1, 1]

    def test_no_real_roots(self):
        assert isolate_real_roots(P(1, 0, 1)) == []

    def test_family_critical_points(self):
        roots = isolate_real_roots(P(-12, 0, 3))
        assert all(r.is_rational for r in roots)
        assert [r.lo for r in roots] == [-2, 2]

    def test_cubic_ordering(self):
        roots = isolate_real_roots(P(1, -3, 0, 1))
        floats = [r.to_float() for r in roots]
        assert len(floats) == 3
        assert floats == sorted(floats)
        assert abs(floats[1] - 0.34729635533386) < 1e-10

    def test_counts_match_oracle(self):
        rng = random.Random(99)
        for _ in range(60):
            p = rand_unipoly(rng, 8)
            expected = brute_force_real_root_count(p)
            assert len(isolate_real_roots(p)) == expected

    def test_certified_interval_invariant(self):
        rng = random.Random(100)
        for _ in range(25):
            p = rand_unipoly(rng, 7)
            for root in isolate_real_roots(p):
                if root.is_rational:
                    assert root.defpoly(root.lo) == 0
                else:
                    assert count_roots_between(root.defpoly, *box(root.lo, root.hi)) == 1
                    assert root.defpoly(root.lo) != 0
                    assert root.defpoly(root.hi) != 0

    def test_rational_midpoint_root_comes_out_between_the_halves(self):
        # t^3 - t: the first midpoint, 0, is a root
        assert [r.to_float() for r in isolate_real_roots(P(0, -1, 0, 1))] == [-1.0, 0.0, 1.0]

    def test_clustered_roots_take_no_recursion(self):
        # 3 * 2^2001 (t - 1)^2 - 3 has its roots 1 +- 2^-1000.5 about a thousand
        # halvings below the root bound, past Python's default recursion limit
        c = 3 * 2**2001
        low, high = isolate_real_roots(P(c - 3, -2 * c, c))
        assert low.hi <= 1 <= high.lo
        assert count_roots_between(low.defpoly, *box(1 - F(1, 2**1000), F(1))) == 1
        assert count_roots_between(high.defpoly, *box(F(1), 1 + F(1, 2**1000))) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(UniPoly())

    def test_root_of_a_linear_defpoly_is_rational(self):
        # the probes stop at 3 on (-7, 7), so the box (3, 7) is left
        (six,) = isolate_real_roots(P(-6, 1))
        assert six.is_rational and six.lo == 6

    def test_stripping_a_zero_root_to_a_linear_defpoly_gives_a_rational(self):
        six = realalg._avoid_zero(RealAlg(P(0, -6, 1), *box(F(3), F(7))))
        assert six.is_rational and six.lo == 6

    @pytest.mark.parametrize("lo, hi", [(F(-1), F(2)), (F(-1, 3), F(2, 3))])
    def test_zero_in_interval_form(self, lo, hi):
        # bisection from these boxes never lands on 0
        zero = RealAlg(P(0, -5, 1), *box(lo, hi))
        assert zero.sign() == 0
        product = mul(zero, sqrt2())
        assert product.is_rational and product.lo == 0
        with pytest.raises(ZeroDivisionError):
            div(sqrt2(), zero)


class TestCompare:
    def test_sqrt2_vs_decimal(self):
        assert compare(sqrt2(), RealAlg.from_rational(F(141, 100))) == 1

    def test_equal_independent_constructions(self):
        other = isolate_real_roots(P(-2, 0, 1))[1]
        assert compare(sqrt2(), other) == 0

    def test_cubic_root_below_half(self):
        root = isolate_real_roots(P(1, -3, 0, 1))[1]
        assert compare(root, RealAlg.from_rational(F(1, 2))) == -1

    def test_total_order_random(self):
        rng = random.Random(101)
        values = []
        for _ in range(8):
            p = rand_unipoly(rng, 5)
            values.extend(isolate_real_roots(p))
        values = values[:12]
        floats = [v.to_float() for v in values]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                c = compare(a, b)
                assert c == -compare(b, a)
                if abs(floats[i] - floats[j]) > 1e-9:
                    assert c == (1 if floats[i] > floats[j] else -1)
        # transitivity on sorted order
        order = sorted(range(len(values)), key=lambda k: floats[k])
        for i, j in zip(order, order[1:]):
            assert compare(values[i], values[j]) <= 0


class TestCompareOverlap:
    """Two irrational boxes that overlap: equal exactly when the gcd of the
    defpolys has a root on the overlap."""

    def test_equal_values_partly_overlapping_boxes(self):
        a = RealAlg(P(-2, 0, 1), *box(F(1), F(29, 20)))  # sqrt2 on (1, 1.45)
        b = RealAlg(P(6, 0, -5, 0, 1), *box(F(13, 10), F(3, 2)))  # (t^2-2)(t^2-3), sqrt2 on (1.3, 1.5)
        assert compare(a, b) == 0
        assert compare(b, a) == 0
        assert a == b

    def test_shared_root_outside_the_overlap(self):
        # gcd t^2 - 2 has the root sqrt2 in a's box (1, 1.5) but not on the
        # overlap (1.45, 1.5) with b's box around sqrt3
        a = RealAlg(P(-2, 0, 1), *box(F(1), F(3, 2)))
        b = RealAlg(P(6, 0, -5, 0, 1), *box(F(29, 20), F(9, 5)))
        assert compare(a, b) == -1
        assert compare(b, a) == 1
        # and the other way round: the shared root sqrt3 lies in b's box only
        c = RealAlg(P(-3, 0, 1), *box(F(3, 2), F(2)))
        d = RealAlg(P(6, 0, -5, 0, 1), *box(F(13, 10), F(8, 5)))
        assert compare(d, c) == -1
        assert compare(c, d) == 1


class TestSignAt:
    def test_positive(self):
        assert sign_at(P(-3, 0, 3), sqrt2()) == 1

    def test_zero(self):
        assert sign_at(P(-2, 0, 1), sqrt2()) == 0

    def test_second_derivative_at_critical_point(self):
        minus_one = isolate_real_roots(P(-3, 0, 3))[0]
        assert sign_at(P(0, 6), minus_one) == -1

    def test_nonzero_sign_makes_no_sturm_count(self, monkeypatch):
        a = isolate_real_roots(P(6, 0, -5, 0, 1))[3]  # sqrt3
        calls = []
        inner = realalg.count_roots_between

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(realalg, "count_roots_between", counted)
        realalg._count_pair.cache_clear()
        assert sign_at(P(-3, 1), a) == -1  # gcd 1: no count at all
        assert calls == []
        assert sign_at(uni_mul(P(-2, 0, 1), P(-17, 10)), a) == 1  # the gcd keeps its sign
        assert calls == []


class TestEvalAlg:
    def test_critical_values_of_family(self):
        f = P(1, -3, 0, 1)
        crits = isolate_real_roots(P(-3, 0, 3))
        assert eval_alg(f, crits[0]) == RealAlg.from_rational(3)
        assert eval_alg(f, crits[1]) == RealAlg.from_rational(-1)

    def test_rational_point(self):
        f = P(1, -3, 0, 1)
        out = eval_alg(f, RealAlg.from_rational(F(1, 2)))
        assert out.is_rational and out.lo == f(F(1, 2))

    def test_interval_containment_random(self):
        rng = random.Random(102)
        for _ in range(20):
            p = rand_unipoly(rng, 5)
            q = rand_unipoly(rng, 4)
            for a in isolate_real_roots(p)[:2]:
                val = eval_alg(q, a)
                ref = q.eval_float(a.to_float())
                assert abs(val.to_float() - ref) < 1e-6

    def test_exact_containment_in_interval_extension(self):
        rng = random.Random(105)
        for _ in range(10):
            p = rand_unipoly(rng, 5)
            q = rand_unipoly(rng, 4)
            for a in isolate_real_roots(p)[:2]:
                val = eval_alg(q, a)
                lo, hi = frac_interval_eval(q, a.lo, a.hi)
                assert compare(RealAlg.from_rational(lo), val) <= 0
                assert compare(val, RealAlg.from_rational(hi)) <= 0


class TestFieldOps:
    def test_sqrt2_squared(self):
        assert mul(sqrt2(), sqrt2()) == RealAlg.from_rational(2)

    def test_rational_division(self):
        out = div(RealAlg.from_rational(17), RealAlg.from_rational(3))
        assert out.is_rational and out.lo == F(17, 3)

    def test_nth_root_of_square(self):
        assert nth_root_pos(RealAlg.from_rational(4), 2) == RealAlg.from_rational(2)

    def test_nth_root_round_trip(self):
        rng = random.Random(103)
        for _ in range(10):
            v = RealAlg.from_rational(F(rng.randint(1, 50), rng.randint(1, 9)))
            n = rng.randint(2, 4)
            root = nth_root_pos(v, n)
            assert pow_int(root, n) == v

    def test_nth_root_of_huge_integers(self):
        # far above the float range, where n ** (1/k) overflows
        cube_root = nth_root_pos(RealAlg.from_rational(10**402), 3)
        assert cube_root.is_rational and cube_root.lo == 10**134
        exact = nth_root_pos(RealAlg.from_rational(F(3**500, 7**300)), 100)
        assert exact.is_rational and exact.lo == F(3**5, 7**3)
        root = nth_root_pos(RealAlg.from_rational(10**400), 3)
        assert not root.is_rational
        assert pow_int(root, 3) == RealAlg.from_rational(10**400)

    def test_nth_root_of_a_huge_irrational_beside_another_root(self):
        # both roots of p are near 2**72 and their 16th roots near 22; 64
        # halvings of (1, 2**72) leave a bracket 2**8 wide around both, so a
        # bracket that stopped there never separated them
        for r in isolate_real_roots(UniPoly([7 * 2**140, -6 * 2**70, 1])):
            assert pow_int(nth_root_pos(r, 16), 16) == r

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.fractions(min_value=F(1, 10**6), max_value=10**6),
        st.fractions(min_value=0, max_value=1),
        st.integers(2, 7),
    )
    def test_root_bracket_matches_fraction_bisection(self, lo, gap, n):
        # a rational radicand (gap 0) and an interval of radicands
        for hi in (lo, lo + gap):
            a, c, m = realalg._root_bracket(*box(lo, hi), n)
            assert (F(a, m), F(c, m)) == frac_root_bracket(lo, hi, n)

    def test_pow_int_needs_a_positive_exponent(self):
        root = nth_root_pos(RealAlg.from_rational(2), 2)
        for x in (root, RealAlg.from_rational(3)):
            for k in (0, -1):
                with pytest.raises(ValueError, match="k >= 1"):
                    pow_int(x, k)

    def test_exact_int_nth_root(self):
        for k in range(1, 6):
            powers = {x**k: x for x in range(2000)}
            for n in range(2000):
                assert realalg._exact_int_nth_root(n, k) == powers.get(n)
        assert realalg._exact_int_nth_root(2**1000 + 1, 2) is None
        assert realalg._exact_int_nth_root((10**300 + 7) ** 4, 4) == 10**300 + 7

    def test_nonpositive_radicand_rejected(self):
        with pytest.raises(ValueError):
            nth_root_pos(RealAlg.from_rational(-1), 2)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            div(RealAlg.from_rational(1), RealAlg.from_rational(0))

    def test_commutative_associative_random(self):
        rng = random.Random(104)
        pool = [
            sqrt2(),
            nth_root_pos(RealAlg.from_rational(3), 2),
            nth_root_pos(RealAlg.from_rational(2), 3),
            RealAlg.from_rational(F(-5, 3)),
        ]
        for _ in range(6):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_abs_and_neg(self):
        s = sqrt2()
        assert abs_alg(neg(s)) == s
        assert neg(s).sign() == -1

    def test_the_functions_are_the_only_arithmetic(self):
        # one entry per operation: RealAlg defines == and nothing that computes
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__abs__", "__float__"):
            assert not hasattr(RealAlg, name), name
        assert RealAlg.__hash__ is None


#: an irrational real root of an integer polynomial of degree 2 to 5
irrational_roots = (
    st.lists(st.integers(-9, 9), min_size=3, max_size=6)
    .filter(lambda cs: cs[-1] != 0)
    .map(lambda cs: [r for r in isolate_real_roots(UniPoly(cs)) if not r.is_rational])
    .filter(bool)
    .flatmap(st.sampled_from)
)


class TestDivision:
    """b / a reads a rational quotient of scaled conjugates off the
    defpolys' coefficients and certifies it by one comparison; every other
    quotient comes from the product resultant, as mul(b, inverse(a))."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(irrational_roots, st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool))
    def test_scaled_conjugate_quotient_is_rational(self, a, c):
        b = mul(a, RealAlg.from_rational(c))
        got = div(b, a)
        assert got.is_rational and got.lo == c
        assert div(b, a.refine(3)) == RealAlg.from_rational(c)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(irrational_roots, irrational_roots)
    def test_matches_the_product_resultant_quotient(self, a, b):
        assume(a.sign() != 0)
        assert compare(div(b, a), mul(b, realalg.inverse(a))) == 0

    def test_scaled_conjugates_build_no_product_resultant(self, monkeypatch):
        def refuse(A, B):
            raise AssertionError("product resultant built")

        a = isolate_real_roots(P(1, -3, 0, 1))[1]
        monkeypatch.setattr(realalg, "_product_defpoly", refuse)
        for c in (F(3), F(-2, 7), F(1)):
            assert div(mul(a, RealAlg.from_rational(c)), a) == RealAlg.from_rational(c)
        # conjugates that no rational scales into each other fall through
        other = isolate_real_roots(P(1, -3, 0, 1))[2]
        with pytest.raises(AssertionError, match="product resultant"):
            div(other, a)

    def test_zero_in_interval_form(self):
        # 0 as the root of t^2 - t in (-1/2, 1/2), a defpoly of sqrt(2)'s degree
        zero = RealAlg(P(0, -1, 1), *box(F(-1, 2), F(1, 2)))
        with pytest.raises(ZeroDivisionError):
            div(sqrt2(), zero)
        assert div(zero, sqrt2()) == RealAlg.from_rational(0)

    @pytest.mark.parametrize(
        "argv,path,rational",
        [
            (["classify1", "-3*t^3 + 2*t^2", "3/16*t^3 + 1/4*t^2"], ("pairings", 0, "c"), "1/2"),
            (
                [
                    "classify2",
                    "X^7 - 3*X^5*Y - X^3*Y^2 + 3*X*Y^3",
                    "128*X^7 + 288*X^5*Y - 72*X^3*Y^2 - 162*X*Y^3",
                    "--beta",
                    "2/1",
                ],
                ("certificate", "zygothety", "phi1", "c"),
                "128",
            ),
        ],
    )
    def test_cli_prints_rational_constants(self, capsys, argv, path, rational):
        assert cli.main(argv) == 0
        node = json.loads(capsys.readouterr().out)
        for key in path:
            node = node[key]
        assert node == {"rational": rational, "approx": float(F(rational))}


class TestRefineAndFloat:
    def test_refine_width(self):
        s = sqrt2()
        r = s.refine(10)
        assert r.hi - r.lo == (s.hi - s.lo) / 2**10 <= F(1, 1000)
        assert F(1414, 1000) < r.lo and r.hi < F(1415, 1000)

    def test_constructor_takes_an_integer_box(self):
        assert RealAlg(P(-2, 0, 1), 8, 12, 8) == sqrt2()  # (1, 3/2), stored as (2/2, 3/2)
        for a, c in ((3, 3), (3, 2)):
            with pytest.raises(ValueError):
                RealAlg(P(-2, 0, 1), a, c, 2)
        with pytest.raises(TypeError):
            RealAlg(P(-2, 0, 1), F(1), F(3, 2), 1)

    def test_float_of_rational(self):
        assert RealAlg.from_rational(2).to_float() == 2.0

    def test_float_of_sqrt2(self):
        assert sqrt2().to_float() == pytest.approx(2**0.5, abs=5e-16)

    def test_repr(self):
        # scripts/fuzz_sympy.py prints numbers this way in its failure messages
        assert repr(RealAlg.from_rational(F(-3, 2))) == "RealAlg(-3/2)"
        root = RealAlg(P(-2, 0, 1), *box(F(4, 3), F(3, 2)))
        assert repr(root) == "RealAlg(UniPoly(t^2 - 2) on (4/3, 3/2))"


def count_refines(monkeypatch):
    """Record the number each RealAlg.refine call is made on, and the box
    of each Sturm count, with the count cache emptied first."""
    calls, counts = [], []
    inner, inner_count = RealAlg.refine, realalg.count_roots_between

    def counted(self, *args, **kwargs):
        calls.append(self)
        return inner(self, *args, **kwargs)

    def counted_sturm(p, a, c, m):
        counts.append((p, F(a, m), F(c, m)))
        return inner_count(p, a, c, m)

    realalg._count_pair.cache_clear()
    monkeypatch.setattr(RealAlg, "refine", counted)
    monkeypatch.setattr(realalg, "count_roots_between", counted_sturm)
    return calls, counts


class TestFloatMemo:
    """to_float rounds once per number, with at most one Sturm count, and
    keeps lo and hi."""

    def test_two_calls_make_one_refine(self, monkeypatch):
        # a certified rounding refines once, by one halving that makes
        # refine's entry check; the box is Sturm-counted once, and the
        # second call reads the kept float
        root = isolate_real_roots(P(1, -3, 0, 1))[0]
        calls, counts = count_refines(monkeypatch)
        first = root.to_float()
        assert [c is root for c in calls] == [True] and counts == [(root.defpoly, root.lo, root.hi)]
        assert first.hex() == root.to_float().hex()
        assert len(calls) == len(counts) == 1

    def test_memo_matches_a_fresh_number(self):
        rng = random.Random(109)
        checked = 0
        for _ in range(30):
            for root in isolate_real_roots(rand_squarefree(rng, 6)):
                fresh = rebuilt_alg(root)
                want = ref_to_float(root)
                assert fresh.to_float().hex() == want.hex()
                assert root.to_float().hex() == want.hex()
                assert root.to_float().hex() == want.hex()
                checked += not root.is_rational
        assert checked >= 20

    def test_lo_and_hi_unchanged(self):
        root = sqrt2()
        lo, hi = root.lo, root.hi
        assert hi - lo > F(1, 2**80)
        root.to_float()
        assert (root.lo, root.hi) == (lo, hi)
        assert jsonio.alg_json(root)["interval"] == [str(lo), str(hi)]

    def test_branch_map_and_inverse_refine_shared_points_once(self, monkeypatch):
        # t^3 - 2t and t^3 - 5t: critical points ±sqrt(2/3) and ±sqrt(5/3),
        # fresh numbers that no earlier test has rounded
        f, g = P(0, -2, 0, 1), P(0, -5, 0, 1)
        cf, cg = tuple(isolate_real_roots(f.derivative())), tuple(isolate_real_roots(g.derivative()))
        assert not any(x.is_rational for x in cf + cg)
        m = BranchMap(RealAlg.from_rational(1), True, f, g, cf, cg)
        calls, counts = count_refines(monkeypatch)
        for t in (-2.0, 0.25, 3.0):
            m.eval_float(t)
            m.inverse().eval_float(t)
        for x in cf + cg:
            assert sum(c is x for c in calls) == 1
            assert counts.count((x.defpoly, x.lo, x.hi)) == 1


#: non-squares, for square roots that are irrational
NON_SQUARES = (2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15)


@st.composite
def near_ties(draw):
    """The root of (t - m)(t - m - 1) - e near m, about m - e, where
    m = (x + next)/2 is the rounding boundary above a double x and
    |e| = j * 2**-90 < 2**-75, on the box between m and m - 2e widened by up
    to 2**-70 on each side, so that refining's midpoints fall anywhere
    within 2**-81 of the root.  The root is simple, with slope about -1, so
    Newton's float root is accurate, and its distance from m decides
    whether rounding is certified."""
    x = draw(st.floats(min_value=2.0**-20, max_value=2.0**40)) * draw(st.sampled_from((-1, 1)))
    m = (F(x) + F(math.nextafter(x, math.inf))) / 2
    e = F(draw(st.integers(1, 2**15 - 1)), 2**90) * draw(st.sampled_from((-1, 1)))
    w1, w2 = (F(draw(st.integers(0, 2**20)), 2**90) for _ in range(2))
    return RealAlg(P(m * (m + 1) - e, -2 * m - 1, 1), *box(min(m, m - 2 * e) - w1, max(m, m - 2 * e) + w2))


def scaled_root(c: int, k: int) -> RealAlg:
    """sqrt(c) * 2**k on its box from nth_root_pos."""
    return nth_root_pos(RealAlg.from_rational(F(c) * F(4) ** k), 2)


class TestCertifiedRounding:
    """to_float gives the bits of refine-then-round (helpers.ref_to_float) on
    every number, whether the rounding is certified or falls back."""

    @staticmethod
    def assert_reference_bits(a: RealAlg):
        fresh = rebuilt_alg(a)
        assert fresh.to_float().hex() == ref_to_float(a).hex(), a

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=9), st.integers(0, 8))
    def test_roots_of_drawn_polynomials(self, coeffs, j):
        roots = [r for r in isolate_real_roots(P(*coeffs)) if not r.is_rational] if any(coeffs[1:]) else []
        assume(roots)
        self.assert_reference_bits(roots[j % len(roots)])

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(near_ties())
    def test_near_ties(self, a):
        self.assert_reference_bits(a)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(NON_SQUARES),
        st.one_of(st.integers(990, 1010), st.integers(-1010, -990), st.integers(-1070, -1030)),
    )
    def test_extreme_magnitudes_and_subnormals(self, c, k):
        # sqrt(c) * 2**k near 2**1000 and 2**-1000, and in the subnormal range;
        # below 2**-28 no double is certified, and refining decides
        self.assert_reference_bits(scaled_root(c, k))

    def test_beyond_the_float_range_raises(self):
        huge = scaled_root(2, 1030)
        for f in (ref_to_float, lambda a: rebuilt_alg(a).to_float()):
            with pytest.raises(OverflowError):
                f(huge)

    def test_a_tie_falls_back(self, monkeypatch):
        # the root is about 2**-90 above the rounding boundary between 1 and
        # its successor: no double is certified, and refining a's own box,
        # 2**-70 wide, below 2**-80 decides, after the halving
        m = 1 + F(1, 2**53)
        e = -F(1, 2**90)
        a = RealAlg(P(m * (m + 1) - e, -2 * m - 1, 1), *box(m, m + F(1, 2**70)))
        want = ref_to_float(rebuilt_alg(a))
        calls, counts = count_refines(monkeypatch)
        assert a.to_float() == want == 1.0000000000000002
        assert [c is a for c in calls] == [True, True] and len(counts) == 1


def simplest_between(lo, hi):
    """realalg._simplest on the box (lo, hi), as a Fraction."""
    return F(*realalg._simplest(*box(lo, hi)))


class TestSimplestBetween:
    @pytest.mark.parametrize(
        "lo,hi,expected",
        [
            (F(0), F(5), F(1)),
            (F(1), F(5), F(2)),
            (F(2), F(3), F(5, 2)),
            (F(-1, 2), F(1, 2), F(0)),
            (F(3, 10), F(2, 5), F(1, 3)),
            (F(-5), F(-3), F(-4)),
        ],
    )
    def test_examples(self, lo, hi, expected):
        got = simplest_between(lo, hi)
        assert got == expected
        assert lo < got < hi

    #: integer, small rational and huge-denominator endpoints of either sign
    endpoints = st.one_of(
        st.integers(-20, 20).map(F),
        st.fractions(min_value=-20, max_value=20, max_denominator=50),
        st.builds(F, st.integers(-(2**90), 2**90), st.integers(2**80, 2**85)),
    )
    widths = st.one_of(
        st.integers(1, 5).map(F),
        st.fractions(min_value=F(1, 10**6), max_value=3),
        st.builds(F, st.integers(1, 9), st.integers(2**80, 2**90)),
    )

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(endpoints, widths, st.booleans())
    def test_matches_fraction_recursion(self, lo, width, from_integer):
        if from_integer:
            lo = F(lo.numerator // lo.denominator)
        hi = lo + width
        h, k = realalg._simplest(*box(lo, hi))
        assert k > 0 and math.gcd(h, k) == 1
        got = F(h, k)
        assert got == frac_simplest_between(lo, hi)
        assert lo < got < hi


def sturm_refine(a, halvings):
    """Reference refinement: bisect a's box by Sturm counts on each half."""
    lo, hi = a.lo, a.hi
    for _ in range(halvings):
        mid = (lo + hi) / 2
        if a.defpoly(mid) == 0:
            return mid, mid
        if count_roots_between(a.defpoly, *box(lo, mid)) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def sturm_sign_minus(a, r):
    """Reference sign(a - r) for an irrational a: one Sturm count on (lo, r)."""
    if r <= a.lo:
        return 1
    if r >= a.hi:
        return -1
    if a.defpoly(r) == 0:
        return 0
    return -1 if count_roots_between(a.defpoly, *box(a.lo, r)) == 1 else 1


def rand_squarefree(rng, max_deg):
    while True:
        q = square_free_part(rand_unipoly(rng, max_deg))
        if q.degree >= 1:
            return q


def probe_points(a):
    """Rationals inside, on and just outside a's isolating box."""
    lo, hi = a.lo, a.hi
    w = hi - lo
    inside = [lo + w * k / 7 for k in range(1, 7)]
    return inside + [(lo + hi) / 2, simplest_between(lo, hi), lo, hi, lo - w, hi + w]


class TestSignBisection:
    def test_refine_matches_sturm_bisection(self):
        rng = random.Random(106)
        checked = 0
        for _ in range(40):
            for root in isolate_real_roots(rand_squarefree(rng, 7)):
                if root.is_rational:
                    continue
                got = root.refine(100)
                assert (got.lo, got.hi) == sturm_refine(root, 100)
                assert got.defpoly == root.defpoly
                checked += 1
        assert checked >= 20

    def test_compare_and_sign_at_rational_points(self):
        rng = random.Random(107)
        checked = 0
        for _ in range(30):
            q = rand_squarefree(rng, 6)
            for root in isolate_real_roots(q):
                if root.is_rational:
                    continue
                dq = root.defpoly.derivative()
                s_lo = sign(root.defpoly(root.lo))
                # a simple root crossing from s_lo to -s_lo
                assert sign_at(dq, root) == -s_lo
                assert sign_at(root.defpoly, root) == 0
                for r in probe_points(root):
                    want = sturm_sign_minus(root, r)
                    assert compare(root, RealAlg.from_rational(r)) == want
                    assert compare(RealAlg.from_rational(r), root) == -want
                    assert sign_at(P(-r, 1), root) == want
                    checked += 1
        assert checked >= 200

    def test_compare_with_rational_roots_in_box(self):
        # (t - 1/3)(t^2 - 2); the box (0, 1) isolates the rational root 1/3
        p = P(F(2, 3), -2, F(-1, 3), 1)
        roots = isolate_real_roots(p)
        assert [r.is_rational for r in roots] == [False, True, False]
        assert roots[1].lo == F(1, 3)
        wide = RealAlg(p, *box(F(0), F(1)))
        assert compare(wide, RealAlg.from_rational(F(1, 3))) == 0
        assert compare(wide, RealAlg.from_rational(F(1, 4))) == 1
        assert compare(wide, RealAlg.from_rational(F(1, 2))) == -1

    def test_count_real_roots_matches_oracle(self):
        # the zero count read off the critical data against an exact grid scan
        rng = random.Random(108)
        for k in range(60):
            p = rand_unipoly(rng, 5)
            if k % 3 == 1:
                p = uni_mul(p, p, rand_unipoly(rng, 2))  # repeated roots
            elif k % 3 == 2:
                a = F(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3)):
                    p = uni_mul(p, P(-a, 1))  # rational root, maybe repeated
            if p.degree >= 1:
                assert critical_data(p).zero_count == brute_force_real_root_count(p), p

    def test_count_real_roots_edge_cases(self):
        cases = (
            (uni_mul(P(-1, 0, 1), P(-1, 0, 1), P(-1, 0, 1)), 2),
            (P(0, 0, 0, 1), 1),  # t^3: critical value 0, no sign change
            (P(1, 0, -2, 0, 1), 2),  # (t^2 - 1)^2: two critical values 0
            (P(-1, 0, 1, 0, -1), 0),  # -(t^4 - t^2 + 1): negative leading
            (P(0, 3, 0, -1), 3),  # 3t - t^3: negative leading, odd degree
            (P(3, -2), 1),  # degree 1: no critical points
            (P(1, 0, 1), 0),
        )
        for p, want in cases:
            assert critical_data(p).zero_count == want == brute_force_real_root_count(p), p
        for constant in (P(5), UniPoly()):
            with pytest.raises(ValueError):
                critical_data(constant)

    def test_to_float_makes_at_most_one_sturm_count(self, monkeypatch):
        root = isolate_real_roots(P(1, -3, 0, 1))[0]
        assert not root.is_rational
        realalg._count_pair.cache_clear()
        calls = []
        inner = realalg.count_roots_between

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(realalg, "count_roots_between", counted)
        value = root.to_float()
        assert len(calls) <= 1
        # a comparison with a rational inside the box is one sign test
        mid = (root.lo + root.hi) / 2
        assert compare(root, RealAlg.from_rational(mid)) in (-1, 1)
        assert len(calls) <= 1
        assert abs(root.defpoly.eval_float(value)) < 1e-9


def test_invariants_hold_under_python_O():
    script = textwrap.dedent(
        """
        import contextlib
        import io
        from fractions import Fraction
        from qhlip import cli
        from qhlip.parser import parse_bi
        from qhlip.polyalg import BiPoly, UniPoly, count_roots_between
        from qhlip.lipclass import CSet
        from qhlip.qhdecide import QHPoly, TheoremTag, _certify, heights, pairing_search, validate_qh
        from qhlip.realalg import RealAlg, neg
        from qhlip.zygothety import BranchMap, Zygothety, identity_map, make_regular
        print("debug", __debug__)
        boxes = [
            RealAlg(UniPoly((-2, 0, 1)), -2, 2, 1),  # two roots
            RealAlg(UniPoly((1, -2, 1)), 0, 2, 1),  # double root
        ]
        for a in boxes:
            try:
                a.refine(3)
            except ArithmeticError as exc:
                print("raised", exc)
            else:
                print("accepted", a)
        try:
            count_roots_between(UniPoly((-1, 0, 1)), -1, 2, 1)
        except ArithmeticError as exc:
            print("raised", exc)
        else:
            print("accepted endpoint root")
        one = RealAlg.from_rational(1)
        ident = identity_map()
        cubic, square = UniPoly((0, 0, 0, 1)), UniPoly((0, 0, 1))
        F = validate_qh(parse_bi("X^6-3*X^4*Y+Y^3"), 2, 1)
        option = pairing_search(F, F).options[0]
        # c = 2 maps the middle branch of t^3 - 3t + 1 past its image
        wrong_c = option._replace(plus=option.plus._replace(c_set=CSet(RealAlg.from_rational(2))))
        for build in (
            lambda: CSet(RealAlg.from_rational(-1)),
            lambda: Zygothety(one, neg(one), ident, ident),
            lambda: BranchMap(one, True, cubic, square, (), ()).limit_slope(),
            lambda: heights(F._replace(n=2)),
            lambda: heights(QHPoly(BiPoly({(1, 1): 1, (0, 1): 1}), 2, 1, 3, 0, 1)),
            lambda: pairing_search(F, F._replace(e=F.e + 1)),
            lambda: _certify(wrong_c, make_regular(wrong_c, F), F, TheoremTag.SUFF_A_PARITY),
        ):
            try:
                build()
            except ArithmeticError as exc:
                print("raised", exc)
            else:
                print("accepted", build)

        # scan's transitivity check, fed verdicts that are not transitive
        class Kind:
            def __init__(self, kind):
                self.kind = kind

        kinds = iter(["equivalent", "not_equivalent", "equivalent"])
        cli.decide = lambda f, g: Kind(next(kinds))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["scan", "X^6-3*l*X^4*Y+Y^3", "--param", "l", "--values=1,2,3", "--beta", "2/1"])
        if code == 3 and "ArithmeticError" in err.getvalue():
            print("raised", err.getvalue().strip())
        else:
            print("accepted", code, err.getvalue())
        """
    )
    src = str(Path(qhlip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "debug False"
    assert [line.split()[0] for line in lines[1:]] == ["raised"] * 11, out.stdout


def from_roots(roots):
    return uni_mul(*(UniPoly((-r, 1)) for r in roots))


class TestResultantDefpolys:
    """The sum, product and image defpolys of numbers with known rational
    roots are the monic products of (x - value) over the distinct values."""

    def test_sum_product_and_image_defpolys(self):
        rng = random.Random(120)
        for _ in range(20):
            ra = [rand_nonzero_rational(rng, 5, 3) for _ in range(rng.randint(1, 3))]
            rb = [rand_nonzero_rational(rng, 5, 3) for _ in range(rng.randint(1, 3))]
            A, B = from_roots(ra), from_roots(rb)
            p = rand_unipoly(rng, 3)
            assert realalg._sum_defpoly(A, B) == from_roots({x + y for x in ra for y in rb})
            assert realalg._product_defpoly(A, B) == from_roots({x * y for x in ra for y in rb})
            assert realalg._eval_defpoly(A, p) == from_roots({p(x) for x in ra})

    def test_sum_of_square_roots(self):
        s2, s3 = sqrt2(), nth_root_pos(RealAlg.from_rational(3), 2)
        assert realalg._sum_defpoly(s2.defpoly, s3.defpoly) == P(1, 0, -10, 0, 1)
        total = add(s2, s3)
        assert total.to_float() == pytest.approx(2**0.5 + 3**0.5, abs=1e-15)
        assert add(total, neg(s3)) == s2


@st.composite
def real_algs(draw):
    """A real root of a random integer quadratic."""
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=3, max_size=3))
    assume(coeffs[-1] != 0)
    roots = isolate_real_roots(UniPoly(coeffs))
    assume(roots)
    return roots[draw(st.integers(0, len(roots) - 1))]


#: few, reproducible examples: each one runs exact resultant arithmetic
few_examples = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def monic_quadratics(draw):
    """t^2 + b*t + c with small integer b, c."""
    return UniPoly((draw(st.integers(-5, 5)), draw(st.integers(-4, 4)), 1))


class TestSignAtProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        monic_quadratics(),
        monic_quadratics(),
        st.integers(0, 3),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.booleans(),
        st.sampled_from([F(0), F(1, 1000), F(-1, 1000)]),
    )
    def test_sign_at_matches_eval_alg(self, q1, q2, k, coeffs, share, eps):
        # a is an irrational root of q1*q2, and p may share the factor q1
        # with a's defpoly, whether or not a is a root of q1; the shift eps
        # turns a zero p(a) into a small nonzero one, which the bisection
        # must narrow the box to see
        roots = isolate_real_roots(uni_mul(q1, q2))
        assume(roots)
        a = roots[k % len(roots)]
        assume(not a.is_rational)
        p = uni_add(uni_mul(UniPoly(coeffs), q1) if share else UniPoly(coeffs), UniPoly((eps,)))
        assert sign_at(p, a) == eval_alg(p, a).sign()


@st.composite
def int_polys(draw, max_degree):
    """An integer polynomial of degree 1 to max_degree."""
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=max_degree + 1))
    assume(coeffs[-1] != 0)
    return UniPoly(coeffs)


class TestCertification:
    def test_sign_change_over_three_roots_is_refused(self):
        D = uni_mul(P(-1, 1), P(-2, 1), P(-3, 1))  # D(0) < 0 < D(4), D' has two roots inside
        assert realalg._try_make(D, *box(F(0), F(4))) is None
        assert realalg._try_make(D, *box(F(29, 10), F(31, 10))).lo == 3

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        int_polys(6),
        st.fractions(-5, 5, max_denominator=8),
        st.fractions(F(1, 8), 6, max_denominator=8),
    )
    def test_accepted_box_holds_one_root(self, p, lo, width):
        # the Sturm count is the reference for the monotonicity test
        D, hi = square_free_part(p), lo + width
        made = realalg._try_make(D, *box(lo, hi))
        if made is None:
            return
        assert count_roots_between(D, *box(lo, hi)) == 1
        assert lo <= made.lo <= made.hi <= hi and (made.is_rational or made.lo < made.hi)
        assert sign_at(D, made) == 0


class TestGcdSignChangeProperty:
    """sign_at and compare decide zero and equality by a sign change of a
    gcd; the reference counts the gcd's roots in the box."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(int_polys(3), int_polys(3), int_polys(2), st.booleans())
    def test_sign_at_and_compare_match_gcd_count(self, p, q, shared, share):
        if share:
            p, q = uni_mul(p, shared), uni_mul(q, shared)
        roots_q = isolate_real_roots(q)
        for a in isolate_real_roots(p):
            assert sign_at(q, a) == gcd_count_sign_at(q, a)
            for b in roots_q:
                assert compare(a, b) == gcd_count_compare(a, b)
                assert compare(b, a) == gcd_count_compare(b, a)


class TestFieldLawsProperty:
    @few_examples
    @given(real_algs(), st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    def test_eval_alg_matches_horner(self, a, coeffs):
        p = UniPoly(coeffs)
        acc = RealAlg.from_rational(0)
        for c in reversed(p.coeffs):
            acc = add(mul(acc, a), RealAlg.from_rational(c))
        assert eval_alg(p, a) == acc

    @few_examples
    @given(real_algs(), real_algs())
    def test_product_then_quotient(self, a, b):
        assume(b.sign() != 0)
        assert div(mul(a, b), b) == a


def assert_box_invariant(x: RealAlg):
    """lo and hi are Fractions in lowest terms, and either lo < hi bound one
    root of the defpoly, at neither end, or lo == hi is the linear defpoly's
    root; the integer box is in its one form."""
    lo, hi = x.lo, x.hi
    assert type(lo) is F and type(hi) is F
    assert all(math.gcd(v.numerator, v.denominator) == 1 and v.denominator > 0 for v in (lo, hi))
    assert math.gcd(x._a, x._c, x._m) == 1 and x._m > 0
    D = x.defpoly
    if lo == hi:
        assert x.is_rational and D.degree == 1 and D(lo) == 0
    else:
        assert lo < hi and not x.is_rational
        assert D.sign_at(lo) != 0 and D.sign_at(hi) != 0
        assert count_roots_between(D, *box(lo, hi)) == 1


class TestBoxInvariantProperty:
    """Every constructor gives a number whose box satisfies the invariant."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        int_polys(4),
        int_polys(2),
        st.fractions(-3, 3, max_denominator=5),
        st.integers(0, 7),
        st.integers(2, 3),
    )
    def test_every_constructor(self, p, q, r, k, n):
        roots = isolate_real_roots(p)
        assume(roots)
        a, rat = roots[k % len(roots)], RealAlg.from_rational(r)
        b = nth_root_pos(RealAlg.from_rational(k + 2), 2)  # irrational unless k + 2 is a square
        made = [*roots, rat, b, rebuilt_alg(a), neg(a), mul(a, rat), mul(a, b), eval_alg(q, a)]
        made += [pow_int(a, n), a.refine(10), a.refine(halvings=5), realalg._avoid_zero(a)]
        if a.sign():
            made += [inverse(a), div(b, a), div(mul(a, RealAlg.from_rational(3)), a)]
        if a.sign() > 0:
            made.append(nth_root_pos(a, n))
        if r > 0:
            made.append(nth_root_pos(rat, n))
        for x in made:
            assert_box_invariant(x)
