import copy
import math
import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qhlip
from qhlip import parser, polyalg
from qhlip.parser import parse_bi, parse_uni
from qhlip.polyalg import (
    BiPoly,
    UniPoly,
    count_roots_between,
    is_cxd,
    poly_gcd,
    resultant,
    sign,
    square_free_part,
    sturm_sequence,
    x_multiplicity,
    y_divides,
)

from helpers import (
    brute_force_real_root_count,
    frac_divmod,
    frac_interval_eval,
    frac_gcd,
    frac_resultant,
    frac_square_free_part,
    frac_sturm_sequence,
    prs_gcd,
    rand_tpoly,
    rand_unipoly,
    ref_bi,
    ref_bi_add,
    ref_bi_height,
    ref_bi_mul,
    ref_bi_scale_vars,
    ref_compose,
    ref_derivative,
    ref_eval,
    ref_interval_eval,
    ref_monic,
    ref_scale,
    ref_stretch,
    ref_trim,
    sylvester_resultant,
    uni_add,
    uni_mul,
    uni_sub,
)

T = UniPoly((0, 1))


def P(*coeffs):
    return UniPoly(coeffs)


class TestArith:
    def test_eval(self):
        assert P(1, -3, 0, 1)(0) == 1

    def test_height_substitution_matches_family(self):
        F6 = BiPoly({(6, 0): 1, (4, 1): -3, (0, 3): 1})
        assert F6.height(1) == P(1, -3, 0, 1)
        assert F6.height(-1) == P(1, -3, 0, 1)  # X appears in even powers only
        assert BiPoly({(3, 0): 2, (1, 1): 1}).height(-1) == P(-2, -1)

    def test_mul_scalar_and_neg(self):
        p = P(1, 2, 3)
        assert p.scale(F(1, 2)) == P(F(1, 2), 1, F(3, 2))
        assert -p == P(-1, -2, -3)

    def test_bipoly_eval(self):
        F6 = BiPoly({(6, 0): 1, (4, 1): -3, (0, 3): 1})
        assert F6.height(1)(2) == 1 - 6 + 8
        assert F6.scale_vars(F(1, 2), 1).height(1)(1) == F(1, 64) - F(3, 16) + 1

    def test_bipoly_ring_axioms_random(self):
        rng = random.Random(43)

        def rand_bi():
            return BiPoly(
                {
                    (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)
                    for _ in range(4)
                }
            )

        for _ in range(30):
            a, b, c = rand_bi(), rand_bi(), rand_bi()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)


class TestDerivative:
    def test_cubic(self):
        assert P(1, -3, 0, 1).derivative() == P(-3, 0, 3)

    def test_constant(self):
        assert P(5).derivative() == UniPoly()

    def test_power(self):
        assert P(0, 0, 0, 0, 0, 0, 1).derivative() == P(0, 0, 0, 0, 0, 6)


class TestGcd:
    def test_linear_factor(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_coprime(self):
        assert poly_gcd(P(1, 0, 1), P(0, 1)) == UniPoly((1,))

    def test_euclidean_example(self):
        assert poly_gcd(P(1, 0, -2, 0, 1), P(0, -1, 0, 1)) == P(-1, 0, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(UniPoly(), UniPoly())

    def test_divides_exactly_random(self):
        rng = random.Random(44)
        for _ in range(40):
            p, q = rand_unipoly(rng, 5), rand_unipoly(rng, 5)
            g = poly_gcd(p, q)
            assert frac_divmod(p, g)[1].is_zero
            assert frac_divmod(q, g)[1].is_zero


class TestSquareFree:
    def test_double_root(self):
        assert square_free_part(P(1, -2, 1)) == P(-1, 1)

    def test_already_square_free(self):
        # discriminant of t^3 - 3t + 1 is 81 - 27*... nonzero; stays put
        assert square_free_part(P(1, -3, 0, 1)) == P(1, -3, 0, 1)

    def test_pure_power(self):
        assert square_free_part(P(0, 0, 0, 0, 1)) == P(0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            square_free_part(UniPoly())

    def test_coprime_with_derivative_random(self):
        rng = random.Random(45)
        for _ in range(40):
            p = rand_unipoly(rng, 6)
            q = square_free_part(uni_mul(p, p))
            assert poly_gcd(q, q.derivative()).degree == 0


class TestSturm:
    def test_sqrt2_interval(self):
        assert count_roots_between(P(-2, 0, 1), 0, 2, 1) == 1

    def test_no_real_roots(self):
        assert count_roots_between(P(1, 0, 1), -10, 10, 1) == 0

    def test_three_roots(self):
        assert count_roots_between(P(1, -3, 0, 1), -2, 2, 1) == 3

    @pytest.mark.parametrize("a, c, m", [(3, 2, 1), (1, 1, 1), (2, 2, 2), (5, 5, 3), (0, 0, 7)])
    def test_empty_box_raises(self, a, c, m):
        # the open box (a/m, c/m) is empty for a >= c, a point too, whether
        # or not p vanishes there: t^2 - 1 at 1 and at 5/3, t at 0
        for p in (P(-1, 0, 1), P(0, 1)):
            with pytest.raises(ValueError, match="empty interval"):
                count_roots_between(p, a, c, m)

    def test_chain_shape(self):
        chain = sturm_sequence(P(-2, 0, 1))
        assert chain[0] == P(-2, 0, 1)
        assert chain[1] == P(0, 2)

    def test_counts_match_brute_force(self):
        rng = random.Random(46)
        for _ in range(60):
            p = square_free_part(rand_unipoly(rng, 8))
            if p.degree == 0:
                continue
            bound_counts = brute_force_real_root_count(p)
            # huge window holds every root (coefficients are small)
            assert count_roots_between(p, -(10**6), 10**6, 1) == bound_counts


def x_degree(A):
    """Degree in x of a polynomial in t given by its rows in x."""
    return max(UniPoly(r).degree for r in A)


class TestResultant:
    X_MINUS_T = ([0, 1], [-1])

    def test_identity_map(self):
        assert resultant(P(-2, 0, 1), self.X_MINUS_T) == P(-2, 0, 1)

    def test_square_map(self):
        q = ([0, 1], [], [-1])
        assert resultant(P(-2, 0, 1), q) == P(4, -4, 1)

    def test_critical_values_of_cubic(self):
        # image of the critical points of t^3 - 3t + 1 under the cubic
        q = ([-1, 1], [3], [], [-1])
        res = resultant(P(-3, 0, 3), q)
        assert res == P(-81, -54, 27)
        assert square_free_part(res) == P(-3, -2, 1)  # (x - 3)(x + 1)

    def test_identity_property_random(self):
        rng = random.Random(47)
        for _ in range(40):
            p = rand_unipoly(rng, 6)
            assert resultant(p, self.X_MINUS_T) == p

    def test_scalar_resultants(self):
        assert resultant(P(-2, 0, 1), P(-3, 0, 1)) == P(1)
        assert resultant(P(-1, 1), P(-2, 1)) == P(-1)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            resultant(UniPoly(), P(1, 1))
        with pytest.raises(ValueError):
            resultant(P(1, 1), ([], [0]))

    @staticmethod
    def sylvester_at(A, B, x0):
        return sylvester_resultant([UniPoly(r)(x0) for r in A], [UniPoly(r)(x0) for r in B])

    def test_matches_sylvester_at_rational_points(self):
        rng = random.Random(48)
        for _ in range(60):
            A, B = rand_tpoly(rng), rand_tpoly(rng)
            res = resultant(A, B)
            assert res.degree <= (len(A) - 1) * x_degree(B) + (len(B) - 1) * x_degree(A)
            for x0 in (F(0), F(1), F(2), F(-3, 2), F(rng.randint(-9, 9), rng.randint(1, 9))):
                assert res(x0) == self.sylvester_at(A, B, x0)

    def test_leading_coefficients_vanishing_at_first_points(self):
        # x(x - 1)(x - 2) and 3(x - 1) vanish at the first evaluation points,
        # which must be skipped; the formal Sylvester determinant still holds
        # there
        rng = random.Random(49)
        lead_a = [0, 2, -3, 1]
        lead_b = [-3, 3]
        for _ in range(30):
            A = rand_tpoly(rng, max_t=2) + (lead_a,)
            B = rand_tpoly(rng, max_t=2) + (rng.choice((lead_a, lead_b)),)
            res = resultant(A, B)
            for x0 in (F(0), F(1), F(2), F(3), F(5, 2), F(-7, 3)):
                assert res(x0) == self.sylvester_at(A, B, x0)

    def test_degree_zero_operands(self):
        rng = random.Random(50)
        for _ in range(20):
            a = ([rng.randint(-4, 4), rng.randint(-4, 4), rng.choice((1, -2))],)
            B = rand_tpoly(rng)
            power = P(1)
            for _ in range(len(B) - 1):
                power = uni_mul(power, UniPoly(a[0]))
            assert resultant(a, B) == power
            assert resultant(B, a) == power
            for x0 in (F(0), F(1), F(7, 2)):
                assert resultant(B, a)(x0) == self.sylvester_at(B, a, x0)
        assert resultant(P(3), P(5)) == P(1)
        assert resultant(P(3), P(1, 1, 1)) == P(9)
        assert resultant(P(1, 1, 1), P(-3)) == P(9)
        assert resultant(([0, 1],), P(-1, 0, 1)) == P(0, 0, 1)

    def test_sign_convention(self):
        # the Sylvester determinant: Res(t, t^3 + 1) = 1, and swapping the
        # operands multiplies by (-1)^(deg p deg q)
        assert resultant(T, P(1, 0, 0, 1)) == P(1)
        assert resultant(P(1, 0, 0, 1), T) == P(-1)
        assert resultant(P(0, 0, 1), P(-2, 1)) == P(4)
        rng = random.Random(51)
        for _ in range(30):
            A, B = rand_tpoly(rng), rand_tpoly(rng)
            swapped = resultant(B, A)
            odd = (len(A) - 1) * (len(B) - 1) % 2
            assert swapped == (-resultant(A, B) if odd else resultant(A, B))

    def test_inexact_interpolation_raises(self, monkeypatch):
        # Res_t(t^2 - 2, x - t) = x^2 - 2 is interpolated from x = 0, 1, 2;
        # a wrong value at x = 0 makes a divided difference a half, which
        # the interpolation in Z must not round away
        assert resultant(P(-2, 0, 1), self.X_MINUS_T) == P(-2, 0, 1)
        right = polyalg._resultant_q
        first = iter([1])
        monkeypatch.setattr(polyalg, "_resultant_q", lambda a, b: right(a, b) + next(first, 0))
        with pytest.raises(ArithmeticError, match="internal bug"):
            resultant(P(-2, 0, 1), self.X_MINUS_T)


class TestStructureQueries:
    def test_hp_polynomial(self):
        F6 = BiPoly({(6, 0): 1, (4, 1): -3, (0, 3): 1})
        assert x_multiplicity(F6) == 0
        assert not y_divides(F6)
        assert is_cxd(F6) is None

    def test_x_cubed_y(self):
        G = BiPoly({(3, 1): 1})
        assert x_multiplicity(G) == 3
        assert y_divides(G)
        assert is_cxd(G) is None

    def test_pure_power(self):
        H = BiPoly({(4, 0): 2})
        assert x_multiplicity(H) == 4
        assert not y_divides(H)
        assert is_cxd(H) == (F(2), 4)

    def test_exponents_must_be_ints(self):
        # int() read (1.5, 0) as X and ('2', 0) as X^2
        for key in ((1.5, 0), ("2", 0), (0, 2.0), (1, -1)):
            with pytest.raises(ValueError):
                BiPoly({key: 1})
        assert BiPoly({(2, 0): 1}) == parse_bi("X^2")


#: rationals of every size the kernel meets: small integers, small
#: fractions, and numerators and denominators of up to 200 bits
ref_coeffs = st.one_of(
    st.integers(-4, 4),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
)
#: coefficient lists, lowest power first: empty (the zero polynomial),
#: constants, trailing zeros, and leading coefficients of either sign
ref_lists = st.lists(ref_coeffs, max_size=6)
ref_examples = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def assert_stores(p, ref):
    """p is the polynomial with Fraction coefficients ref, stored as content
    times primitive integers, and equal, hash included, to UniPoly(ref)."""
    assert p.coeffs == ref
    assert all(type(c) is int for c in p.ints)
    assert type(p.content) is F and p.content > 0
    if p.ints:
        assert p.ints[-1] != 0 and math.gcd(*p.ints) == 1
    else:
        assert p.content == 1
    q = UniPoly(ref)
    assert p == q and hash(p) == hash(q)


class TestFractionReference:
    """Each UniPoly operation on content and integers gives what the same
    operation on Fraction coefficients gives."""

    @ref_examples
    @given(ref_lists, ref_lists)
    def test_ring_operations(self, a, b):
        # negation is the one operator: sums and products of UniPolys are
        # built on their coefficients
        p, q = UniPoly(a), UniPoly(b)
        a = ref_trim(a)
        assert_stores(p, a)
        assert_stores(-p, ref_scale(a, -1))
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, q)

    @ref_examples
    @given(ref_lists, ref_coeffs, st.integers(1, 3))
    def test_unary_operations(self, a, c, n):
        p, a = UniPoly(a), ref_trim(a)
        assert_stores(p.scale(c), ref_scale(a, c))
        assert_stores(p.derivative(), ref_derivative(a))
        assert_stores(p.monic(), ref_monic(a))
        assert_stores(p.stretch(n), ref_stretch(a, n))

    @ref_examples
    @given(st.lists(ref_coeffs, max_size=4), st.lists(ref_coeffs, max_size=3))
    def test_compose(self, a, b):
        assert_stores(UniPoly(a).compose(UniPoly(b)), ref_compose(ref_trim(a), ref_trim(b)))

    @ref_examples
    @given(ref_lists, ref_coeffs, ref_coeffs)
    def test_evaluation(self, a, x, y):
        p, a = UniPoly(a), ref_trim(a)
        assert p(x) == ref_eval(a, x)
        assert p.sign_at(F(x)) == sign(ref_eval(a, x))
        lo, hi = sorted((F(x), F(y)))
        assert frac_interval_eval(p, lo, hi) == ref_interval_eval(a, lo, hi)

    @ref_examples
    @given(ref_lists, ref_coeffs.filter(bool))
    def test_equality_does_not_depend_on_the_route(self, a, c):
        p = UniPoly(a)
        assert_stores(p.scale(c).scale(1 / F(c)), ref_trim(a))
        assert_stores(uni_sub(uni_add(p, UniPoly([c])), UniPoly([c])), ref_trim(a))
        assert_stores(p.compose(UniPoly([0, 1])), ref_trim(a))

    def test_equal_polynomials_built_apart(self):
        assert UniPoly([2, 4]) == UniPoly([1, 2]).scale(2)
        assert hash(UniPoly([2, 4])) == hash(UniPoly([1, 2]).scale(2))
        assert UniPoly([F(1, 2), 1]) == UniPoly([1, 2]).scale(F(1, 2))
        assert UniPoly([-3, -6]) == -UniPoly([3, 6]) == UniPoly([1, 2]).scale(-3)
        assert UniPoly([2, 4]).ints == (1, 2) and UniPoly([2, 4]).content == 2
        assert UniPoly([-1, F(-1, 2)]).ints == (-2, -1) and UniPoly([-1, F(-1, 2)]).content == F(1, 2)
        assert UniPoly([0, 0]) == UniPoly() == UniPoly([3]).scale(0)
        assert UniPoly().ints == () and UniPoly().content == 1

    @pytest.mark.parametrize("p", [UniPoly(), UniPoly([F(1, 2), -3])], ids=["zero", "nonzero"])
    def test_copies_are_equal_and_leave_the_original(self, p):
        # copy and pickle rebuild through UniPoly.__new__ with no arguments
        before = (p.ints, p.content)
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and (q.ints, q.content) == before
        assert (p.ints, p.content) == before and UniPoly().ints == ()


#: sparse terms with exponents up to 4: empty (the zero polynomial),
#: zero coefficients, and the coefficients of ref_coeffs
ref_terms = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), ref_coeffs, max_size=5)


def assert_bi_stores(p, ref):
    """p is the polynomial with Fraction terms ref, stored as content times
    coprime nonzero integers in sorted order, and equal, hash included, to
    BiPoly(ref); the parser's size check reads ref's bits from the integers."""
    assert p.terms == ref and all(type(c) is F for c in p.terms.values())
    bits = (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in ref.values())
    assert parser._coeff_bits(p) == max(bits, default=0)
    assert all(type(c) is int and c for c in p.ints.values())
    assert list(p.ints) == sorted(ref)
    assert type(p.content) is F and p.content > 0
    if p.ints:
        assert math.gcd(*p.ints.values()) == 1
    else:
        assert p.content == 1
    q = BiPoly(ref)
    assert p == q and hash(p) == hash(q)


class TestBiPolyFractionReference:
    """Each BiPoly operation on content and integers gives what the same
    operation on a dict of Fraction terms gives."""

    @ref_examples
    @given(ref_terms, ref_terms)
    def test_ring_operations(self, a, b):
        p, q = BiPoly(a), BiPoly(b)
        a, b = ref_bi(a), ref_bi(b)
        assert_bi_stores(p, a)
        assert_bi_stores(p + q, ref_bi_add(a, b))
        assert_bi_stores(p - q, ref_bi_add(a, {k: -c for k, c in b.items()}))
        assert_bi_stores(-p, {k: -c for k, c in a.items()})
        assert_bi_stores(p * q, ref_bi_mul(a, b))

    @ref_examples
    @given(ref_terms, ref_coeffs, ref_coeffs)
    def test_heights_and_scaling(self, a, u, v):
        p, a = BiPoly(a), ref_bi(a)
        assert_stores(p.height(1), ref_bi_height(a, 1))
        assert_stores(p.height(-1), ref_bi_height(a, -1))
        assert_bi_stores(p.scale_vars(u, v), ref_bi_scale_vars(a, u, v))

    def test_equal_polynomials_built_apart(self):
        for p, q in [
            (BiPoly({(1, 0): 2}), parse_bi("X+X")),
            (BiPoly({(2, 1): F(1, 2), (0, 3): F(-3, 4)}), parse_bi("1/2*X^2*Y - 3/4*Y^3")),
            (BiPoly(), parse_bi("X*Y - Y*X")),
            (BiPoly({(0, 2): -1, (2, 0): 1}), parse_bi("(X + Y)*(X - Y)")),
        ]:
            assert p == q and hash(p) == hash(q)
            assert (p.ints, p.content, p.terms) == (q.ints, q.content, q.terms)
        assert BiPoly({(1, 0): 2}).ints == {(1, 0): 1} and BiPoly({(1, 0): 2}).content == 2
        assert BiPoly().ints == {} and BiPoly().content == 1

    @ref_examples
    @given(ref_terms, ref_terms)
    def test_hashes_agree_across_routes(self, a, b):
        # the hash is kept in a slot on first use; it is the hash of the
        # stored integers and content, whichever route built the polynomial
        p, q = BiPoly(a), BiPoly(b)
        y_only = BiPoly({(0, j): c for (i, j), c in p.terms.items() if i == 0})
        u = UniPoly([y_only.terms.get((0, j), 0) for j in range(5)])
        bi_routes = [p, parse_bi(str(p)), (p + q) - q, -(-p), p * BiPoly({(0, 0): 1})]
        uni_routes = [u, parse_uni(str(u)), y_only.height(1), y_only.height(-1).compose(UniPoly([0, 1])), -(-u)]
        for routes, key in ((bi_routes, lambda r: r._key), (uni_routes, lambda r: r.ints)):
            want = hash((key(routes[0]), routes[0].content.numerator, routes[0].content.denominator))
            for r in routes:
                assert r == routes[0] and hash(r) == want
                assert hash(r) == want  # read again, from the slot


class TestIntervalEval:
    def test_contains_endpoint_values(self):
        rng = random.Random(48)
        for _ in range(30):
            p = rand_unipoly(rng, 6)
            lo, hi = F(-2), F(3, 2)
            a, b = frac_interval_eval(p, lo, hi)
            for x in (lo, hi, F(0), F(1, 3)):
                assert a <= p(x) <= b


fractions_ = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)
#: finite floats small enough that no power up to degree 6 overflows
floats_ = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def same_float(a, b):
    """Equal values, and equal signs when both are zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestEvalFloat:
    """eval_float converts the coefficients once and caches them; its results
    are the bits of converting every coefficient on every call."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(fractions_, max_size=7), floats_)
    def test_unipoly_matches_per_call_conversion(self, coeffs, x):
        p = UniPoly(coeffs)
        ref = 0.0
        for c in reversed(p.coeffs):
            ref = ref * x + float(c)
        assert same_float(p.eval_float(x), ref)
        assert same_float(p.eval_float(x), ref)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), fractions_, max_size=6),
        floats_,
        floats_,
    )
    def test_bipoly_matches_per_call_conversion(self, terms, x, y):
        p = BiPoly(terms)
        ref = sum(float(c) * x**i * y**j for (i, j), c in sorted(p.terms.items()))
        assert same_float(p.eval_float(x, y), ref)
        assert same_float(p.eval_float(x, y), ref)

    def test_filled_cache_keeps_equality_and_hash(self):
        p, q = P(1, F(1, 3), -2), P(1, F(1, 3), -2)
        p.eval_float(0.5)
        assert p == q and hash(p) == hash(q)
        B, C = BiPoly({(2, 1): F(1, 3), (0, 3): 1}), BiPoly({(2, 1): F(1, 3), (0, 3): 1})
        B.eval_float(0.5, -2.0)
        assert B == C and hash(B) == hash(C)

    def test_coefficient_beyond_float_range(self):
        # construction and exact evaluation never convert to float
        huge = 10**400
        p = P(huge, 1)
        assert p(2) == huge + 2
        B = BiPoly({(3, 0): huge, (0, 1): 1})
        assert B.height(1)(2) == huge + 2
        with pytest.raises(OverflowError):
            p.eval_float(2.0)
        with pytest.raises(OverflowError):
            B.eval_float(1.0, 2.0)


#: rationals with numerators up to 2**300 and denominators above 2**200
big_rationals = st.builds(F, st.integers(-(2**300), 2**300), st.integers(2**200, 2**260))
points_ = st.one_of(st.integers(-50, 50), fractions_, big_rationals)


class TestSignAt:
    """sign_at is sign(p(x)), found by Horner's rule on integers over a
    positive multiple of the coefficients."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(fractions_, max_size=8), points_)
    def test_matches_exact_evaluation(self, coeffs, x):
        p = UniPoly(coeffs)
        assert p.sign_at(x) == sign(p(x))
        assert p.sign_at(x) == sign(p(x))  # second call on the filled slot

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(fractions_, min_size=1, max_size=6), fractions_)
    def test_zero_at_a_planted_root(self, coeffs, r):
        p = uni_mul(UniPoly(coeffs), P(-r, 1))
        assert p.sign_at(r) == 0

    def test_zero_and_constant_polynomials(self):
        for x in (0, F(-7, 3), F(1, 2**201 + 1)):
            assert UniPoly().sign_at(x) == 0
            assert P(F(-2, 3)).sign_at(x) == -1
            assert P(5).sign_at(x) == 1

    def test_zero_and_negative_points(self):
        p = P(F(1, 3), -2, 0, 5)
        for x in (0, F(0), -3, F(-7, 2), F(-1, 2**201 + 1)):
            assert p.sign_at(x) == sign(p(x))
        assert P(0, 1).sign_at(0) == 0
        assert P(0, 0, 1).sign_at(F(-1, 3)) == 1

    def test_coefficient_of_10_to_the_400(self):
        # roots at ±10**200, far beyond the float range
        p = P(-(10**400), 0, 1)
        assert p.sign_at(10**200) == 0 and p.sign_at(-(10**200)) == 0
        assert p.sign_at(0) == -1
        below = F(10**200 * 2**201 - 1, 2**201)
        assert p.sign_at(below) == -1 and p.sign_at(-below) == -1
        assert p.sign_at(F(10**200 + 1)) == 1

    def test_large_denominator_next_to_a_root(self):
        r = F(3, 2**211 + 5)
        p = uni_mul(P(-r, 1), P(1, 0, 1))
        eps = F(1, 2**300)
        assert p.sign_at(r) == 0
        assert p.sign_at(r + eps) == 1
        assert p.sign_at(r - eps) == -1

    def test_ratio_form_ignores_common_factors(self):
        p = P(F(-1, 2), F(1, 3), 0, 1)
        for k in (1, 2, 3, 2**100):
            for a, b in ((3, 7), (-5, 4), (0, 1), (7, 9)):
                assert p.sign_at_ratio(a * k, b * k) == sign(p(F(a, b)))

    def test_integer_slot_keeps_equality_and_hash(self):
        p, q = P(1, F(1, 3), -2), P(1, F(1, 3), -2)
        p.sign_at(F(1, 2))
        assert p == q and hash(p) == hash(q)


#: zeros (sparse polynomials give remainders that skip degrees, where a
#: pseudo-remainder takes an odd number of steps), small integers, small
#: rationals, and integers of either sign near 10**400
kernel_coeffs = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(lambda s, k: s * (10**400 + k), st.sampled_from((-1, 1)), st.integers(-5, 5)),
)


def kernel_polys(min_size=0, max_size=5):
    """Polynomials with the coefficients above: zero and constants
    included, leading coefficients of either sign."""
    return st.lists(kernel_coeffs, min_size=min_size, max_size=max_size).map(UniPoly)


nonzero_polys = kernel_polys(min_size=1).filter(lambda p: not p.is_zero)

kernel_examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestIntegerKernel:
    """The remainder kernel over Z returns exactly what remainders over Q
    return: the same monic gcd and square-free part, the same Sturm chain
    element by element, and the same resultant."""

    @kernel_examples
    @given(kernel_polys(), kernel_polys(), kernel_polys(max_size=3))
    def test_gcd_matches_fraction_reference(self, a, b, c):
        p, q = uni_mul(a, c), uni_mul(b, c)  # c is a common factor
        if p.is_zero and q.is_zero:
            with pytest.raises(ValueError):
                poly_gcd(p, q)
            return
        assert poly_gcd(p, q) == frac_gcd(p, q)
        assert poly_gcd(q, p) == frac_gcd(p, q)

    def test_gcd_with_zero_and_constants(self):
        p = P(F(-3, 2), 0, F(3, 4))
        assert poly_gcd(p, UniPoly()) == P(-2, 0, 1)
        assert poly_gcd(UniPoly(), p) == P(-2, 0, 1)
        assert poly_gcd(UniPoly(), P(F(-5, 7))) == P(1)
        assert poly_gcd(p, P(-4)) == P(1)

    @kernel_examples
    @given(nonzero_polys, kernel_polys(min_size=2, max_size=3), st.integers(1, 3))
    def test_square_free_part_matches_fraction_reference(self, a, c, e):
        p = a
        for _ in range(e):
            p = uni_mul(p, c)  # c**e is a repeated factor when e >= 2
        if p.is_zero:
            return
        assert square_free_part(p) == frac_square_free_part(p)

    @kernel_examples
    @given(nonzero_polys, kernel_polys(max_size=3), st.booleans())
    def test_sturm_chain_matches_fraction_reference(self, a, c, square):
        p = uni_mul(a, c, c) if square and not c.is_zero else a
        assert sturm_sequence(p) == frac_sturm_sequence(p)

    def test_sturm_chain_with_odd_pseudo_remainder_steps(self):
        # negative leading coefficients where a remainder skips a degree:
        # one step of |lc| scaling, which a signed lc would turn into a sign
        # flip of the chain element
        for p in (P(1, 0, -1), P(-1, 3, 0, 0, -1), P(0, 1, 0, F(-1, 2)), P(2, 0, 0, -5)):
            assert sturm_sequence(p) == frac_sturm_sequence(p)
        assert sturm_sequence(P(1, 0, -1))[2] == P(-1)

    @kernel_examples
    @given(nonzero_polys, nonzero_polys, kernel_polys(max_size=2))
    def test_resultant_matches_references(self, a, b, c):
        # a shared factor c makes the resultant 0 when c is not constant;
        # operands constant in x give a constant resultant
        p, q = (uni_mul(a, c), uni_mul(b, c)) if not c.is_zero else (a, b)
        res = resultant(p, q)
        assert res.is_constant
        assert res.coeff(0) == frac_resultant(p, q)
        assert res.coeff(0) == sylvester_resultant(p.coeffs, q.coeffs)

    def test_resultant_negative_leading_coefficients(self):
        # Res(-2t^2 + 1, -3t^3 + t) by the Sylvester determinant
        p, q = P(1, 0, -2), P(0, 1, 0, -3)
        want = sylvester_resultant(p.coeffs, q.coeffs)
        assert resultant(p, q) == P(want) and want == frac_resultant(p, q)
        p, q = P(F(-1, 2), 0, F(-2, 3)), P(3, F(-5, 4))
        assert resultant(p, q) == P(frac_resultant(p, q))

    def test_coefficients_of_10_to_the_400(self):
        big = 10**400
        p = uni_mul(P(-big, 0, 1), P(1, 1))  # (t^2 - 10^400)(t + 1)
        q = uni_mul(P(big, 1), P(1, 1))
        assert poly_gcd(p, q) == P(1, 1)
        assert square_free_part(uni_mul(p, P(1, 1))) == p
        assert sturm_sequence(p) == frac_sturm_sequence(p)
        assert count_roots_between(p, -(10**201), 10**201, 1) == 3
        assert resultant(P(-big, 0, 1), P(big, 1)) == P(big**2 - big)

    def test_inexact_division_raises(self, monkeypatch):
        # square_free_part divides by the gcd exactly over Z; a wrong gcd
        # must not pass unnoticed, whether a quotient coefficient or the
        # final remainder is where the division fails
        monkeypatch.setattr(polyalg, "_zx_gcd", lambda a, b: [0, 2])
        with pytest.raises(ArithmeticError, match="inexact"):
            square_free_part(P(0, 0, 1))
        monkeypatch.setattr(polyalg, "_zx_gcd", lambda a, b: [1, 1])
        with pytest.raises(ArithmeticError, match="inexact"):
            square_free_part(P(1, 0, 1))


#: small integers, where the heuristic gcd's first point is small and its
#: integer gcd often holds spurious factors, and integers up to 2**64
zx_coeffs = st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64))


def zx_polys(max_degree):
    """Nonzero integer polynomials of degree up to max_degree."""
    return st.lists(zx_coeffs, min_size=1, max_size=max_degree + 1).filter(any).map(UniPoly)


def same_up_to_sign(g, h):
    return list(g) in (list(h), [-c for c in h])


def refuse(*args):
    raise AssertionError("called")


class TestHeuristicGcd:
    """_zx_gcd, the heuristic gcd, against the primitive remainder sequence
    it falls back to, on a = g*u and b = g*v."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(zx_polys(10), zx_polys(20), zx_polys(20))
    @example(UniPoly([5]), UniPoly([3]), UniPoly([1, 2, 3]))  # a constant operand
    @example(UniPoly([1]), UniPoly([1, 1]), UniPoly([2, 1]))  # coprime operands
    @example(UniPoly([-3, 0, 2]), UniPoly([7]), UniPoly([1, 0, 1]))  # a divides b
    def test_matches_remainder_sequence(self, g, u, v):
        p, q = uni_mul(g, u), uni_mul(g, v)
        a, b = p.ints, q.ints
        want = prs_gcd(a, b)
        assert same_up_to_sign(polyalg._zx_gcd(a, b), want)
        assert same_up_to_sign(polyalg._zx_gcd(b, a), want)
        assert poly_gcd(p, q) == UniPoly(want).monic()
        r = uni_mul(g, g, u)  # g is a repeated factor
        c = r.ints
        d = prs_gcd(c, polyalg._primitive([i * x for i, x in enumerate(c)][1:])[0])
        assert square_free_part(r) == UniPoly(polyalg._zx_quotient(list(c), d)).monic()

    def test_constant_operand_takes_no_remainder_step(self, monkeypatch):
        monkeypatch.setattr(polyalg, "_prem", refuse)
        monkeypatch.setattr(polyalg, "_horner", refuse)
        assert polyalg._zx_gcd([5], [1, 2, 3]) == [1]
        assert polyalg._zx_gcd([-1, 0, 1], [-2]) == [1]

    @pytest.mark.parametrize(
        "a, b",
        [
            ([-1, 3, -4, 2], [1, 1]),  # the first lift, x + 1, divides b only
            ([1, -1], [2, 0, -2, -3]),  # the first lift, x - 1, divides a only
        ],
    )
    def test_lift_must_divide_both_operands(self, a, b):
        assert polyalg._zx_gcd(a, b) in ([1], [-1])
        assert polyalg._zx_gcd(b, a) in ([1], [-1])

    def test_spurious_factor_grows_xi(self, monkeypatch):
        # at the first point, xi = 2 * min(10, 12) + 2 = 22, the integer gcd
        # holds a factor of the cofactors' values too, and its lift divides
        # neither operand; a larger point finds the gcd 2x^2 + 3x + 2
        a, b = [-8, -10, -9, -8, -10, -4], [-2, -9, -11, 2, 12, 8]
        points = []
        horner = polyalg._horner
        monkeypatch.setattr(polyalg, "_horner", lambda cs, x: points.append(x) or horner(cs, x))
        monkeypatch.setattr(polyalg, "_prem", refuse)
        assert same_up_to_sign(polyalg._zx_gcd(a, b), [2, 3, 2])
        assert points[0] == 22 and points[-1] > 22

    def test_falls_back_to_remainder_sequence(self, monkeypatch):
        monkeypatch.setattr(polyalg, "_HEU_ROUNDS", 0)
        monkeypatch.setattr(polyalg, "_horner", refuse)
        a, b = [-8, -10, -9, -8, -10, -4], [-2, -9, -11, 2, 12, 8]
        assert same_up_to_sign(polyalg._zx_gcd(a, b), [2, 3, 2])
        assert poly_gcd(UniPoly(a), UniPoly(b)) == P(1, F(3, 2), 1)


def test_differential_check_against_sympy():
    """scripts/fuzz_sympy.py, on 20 seeded cases: the kernel agrees with an
    independent implementation."""
    pytest.importorskip("sympy")
    src = Path(qhlip.__file__).resolve().parents[1]
    script = src.parent / "scripts" / "fuzz_sympy.py"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, str(script), "--cases", "20", "--seed", "1"], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stdout + out.stderr
