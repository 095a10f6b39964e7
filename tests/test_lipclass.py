import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qhlip import lipclass, polyalg, realalg
from qhlip.cli import main
from qhlip.lipclass import (
    CritData,
    Orientation,
    Reason1D,
    _proportional,
    classify_pair,
    critical_data,
    multiplicity_at,
    similar,
)
from qhlip.parser import parse_uni
from qhlip.polyalg import UniPoly
from qhlip.realalg import RealAlg, add, compare, isolate_real_roots, mul, nth_root_pos

from helpers import affine_conjugate, rand_nonzero_rational, rand_unipoly, ref_proportional


def P(*coeffs):
    return UniPoly(coeffs)


def ra(x):
    return RealAlg.from_rational(x)


def symbol(values, mults):
    """Critical data with the given multiplicity symbol; similar reads only
    the values, their signs and the multiplicities, so the other fields are
    placeholders."""
    return CritData((), tuple(mults), tuple(values), tuple(v.sign() for v in values), 0, 0)


def same_symbols(avals, bvals):
    """The critical data of two value tuples of the same length, every
    multiplicity 2."""
    return symbol(avals, (2,) * len(avals)), symbol(bvals, (2,) * len(bvals))


def hp_height(lam):
    """t^3 - 3*lam*t + 1."""
    return UniPoly([1, -3 * F(lam), 0, 1])


class TestCriticalData:
    def test_family_at_one(self):
        data = critical_data(hp_height(1))
        assert all(a.is_rational for a in data.points + data.values)
        assert [p.lo for p in data.points] == [-1, 1]
        assert data.mults == (2, 2)
        assert [v.lo for v in data.values] == [3, -1]

    def test_no_critical_points(self):
        data = critical_data(hp_height(-1))
        assert data.count == 0

    def test_quartic_power(self):
        data = critical_data(P(0, 0, 0, 0, 1))
        assert data.count == 1
        assert data.points[0].is_rational and data.points[0].lo == 0
        assert data.mults == (4,)
        assert data.values[0].is_rational and data.values[0].lo == 0

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            critical_data(P(5))

    def test_multiplicity_at(self):
        assert multiplicity_at(P(0, 0, 0, 0, 1), ra(0)) == 4
        assert multiplicity_at(P(0, 1), ra(7)) == 1

    def test_scan_signs_each_critical_value_once(self, monkeypatch, capsys):
        """Over one scan of the paper's family X^6 - 3*l*X^4*Y + Y^3, the sign
        of each critical value of each distinct height is computed once, by
        critical_data; the zero counts of the necessity conditions and the
        symbol tests read it from there."""
        signed = []  # every receiver, kept alive so that its id stays unique
        real_sign = RealAlg.sign

        def counting_sign(self):
            signed.append(self)
            return real_sign(self)

        monkeypatch.setattr(RealAlg, "sign", counting_sign)
        critical_data.cache_clear()
        lams = (F(1, 4), F(1, 2), F(1), F(2), F(4), F(-1), F(-2))
        argv = ["scan", "X^6 - 3*l*X^4*Y + Y^3", "--param", "l", "--beta", "2/1"]
        assert main(argv + ["--values=" + ",".join(map(str, lams))]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["partition"]) == 6  # the negative pair is the one equivalence
        calls = Counter(map(id, signed))
        # both heights of a member are t^3 - 3*l*t + 1, since X appears to even powers only
        values = [v for lam in lams for v in critical_data(hp_height(lam)).values]
        assert len(values) == 10
        assert [calls[id(v)] for v in values] == [1] * len(values)


class TestSimilar:
    def test_not_similar(self):
        A = symbol((ra(3), ra(-1)), (2, 2))
        B = symbol((ra(17), ra(-15)), (2, 2))
        assert similar(A, B) == (None, None)

    def test_directly_similar_with_constant(self):
        A = symbol((ra(3), ra(-1)), (2, 2))
        B = symbol((ra(6), ra(-2)), (2, 2))
        direct, reverse = similar(A, B)
        assert direct is not None
        assert direct.c == ra(2)
        assert reverse is None

    def test_zero_symbols(self):
        A = symbol((ra(0), ra(0)), (2, 3))
        direct, reverse = similar(A, A)
        assert direct is not None and not direct.is_unique
        assert reverse is None  # reversed multiplicities (3, 2) differ

    def test_reverse_similarity(self):
        A = symbol((ra(1), ra(-2)), (2, 3))
        B = symbol((ra(-4), ra(2)), (3, 2))
        direct, reverse = similar(A, B)
        assert direct is None
        assert reverse is not None
        assert reverse.c == ra(2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            similar(symbol((ra(1),), (2,)), symbol((ra(1), ra(2)), (2, 2)))


def cross_products_agree(A, B):
    """b_j * a_i == a_j * b_i for every pair of entries, by exact products."""
    pairs = list(zip(A.values, B.values))
    return all(compare(mul(bj, ai), mul(aj, bi)) == 0 for ai, bi in pairs for aj, bj in pairs)


class TestSimilarIrrationalConstant:
    """B = c*A for an irrational c: the ratios b_j / a_j all equal c."""

    A = symbol(
        (ra(3), nth_root_pos(ra(3), 2), ra(0), ra(F(-1, 2))),
        (2, 3, 2, 2),  # not a palindrome, so only direct similarity can hold
    )

    @pytest.mark.parametrize(
        "c",
        [
            nth_root_pos(ra(2), 2),
            isolate_real_roots(P(1, -3, 0, 1))[2],  # largest root of t^3 - 3t + 1
        ],
        ids=["sqrt2", "cubic_root"],
    )
    def test_direct_constant_and_perturbations(self, c):
        assert not c.is_rational
        B = symbol(tuple(mul(c, a) for a in self.A.values), self.A.mults)
        direct, reverse = similar(self.A, B)
        assert direct is not None and direct.c == c
        assert reverse is None
        assert cross_products_agree(self.A, B)
        for j, a in enumerate(self.A.values):
            if a.sign() == 0:
                continue
            values = list(B.values)
            values[j] = mul(values[j], ra(F(1001, 1000)))
            bent = symbol(tuple(values), B.mults)
            assert similar(self.A, bent)[0] is None
            assert not cross_products_agree(self.A, bent)

    def test_zero_entries_must_match(self):
        c = nth_root_pos(ra(2), 2)
        values = [mul(c, a) for a in self.A.values]
        values[2] = ra(1)
        assert similar(self.A, symbol(tuple(values), self.A.mults))[0] is None


#: the roots of t^3 - 3t + 1, about -1.88, 0.35 and 1.53
CUBIC_ROOTS = tuple(isolate_real_roots(P(1, -3, 0, 1)))

#: a critical value: zero, a rational, a signed square root or a cubic root
crit_values = st.one_of(
    st.just(ra(0)),
    st.fractions(-3, 3, max_denominator=4).filter(bool).map(ra),
    st.tuples(st.integers(2, 7), st.sampled_from((1, -1))).map(
        lambda t: mul(nth_root_pos(ra(t[0]), 2), ra(t[1]))
    ),
    st.sampled_from(CUBIC_ROOTS),
)
#: a positive constant c, rational or irrational
constants = st.one_of(
    st.fractions(F(1, 4), 4, max_denominator=4).filter(bool).map(ra),
    st.sampled_from((2, 3, 5)).map(lambda n: nth_root_pos(ra(n), 2)),
    st.just(CUBIC_ROOTS[2]),
)


@st.composite
def value_tuples(draw):
    """(a, c*a), or (a, c*a) with one nonzero entry of c*a moved: scaled by
    1 + 1/k, shifted by 1/k, or made c'*a_j for another constant c'."""
    avals = tuple(draw(st.lists(crit_values, min_size=1, max_size=4)))
    c = draw(constants)
    bvals = [mul(c, a) for a in avals]
    nonzero = [j for j, a in enumerate(avals) if a.sign() != 0]
    how = draw(st.sampled_from(("planted", "scale", "shift", "other_c")))
    if nonzero and how != "planted":
        j = draw(st.sampled_from(nonzero))
        k = draw(st.sampled_from((3, 1000, 10**6)))
        if how == "scale":
            bvals[j] = mul(bvals[j], ra(1 + F(1, k)))
        elif how == "shift":
            bvals[j] = add(bvals[j], ra(F(1, k)))
        else:
            bvals[j] = mul(draw(constants), avals[j])
    return avals, tuple(bvals)


def same_cset(x, y) -> bool:
    if x is None or y is None:
        return x is y
    if x.c is None or y.c is None:
        return x.c is y.c
    return compare(x.c, y.c) == 0


class TestProportionalBoxFilter:
    """_proportional refutes from the isolating boxes before it divides;
    every answer must be the one exact division and comparison give."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(value_tuples())
    def test_agrees_with_divide_and_compare(self, pair):
        avals, bvals = pair
        assert same_cset(_proportional(*same_symbols(avals, bvals)), ref_proportional(avals, bvals))

    def test_disjoint_ratio_boxes_refute_without_dividing(self, monkeypatch):
        # critical values (3, -1) of t^3 - 3t + 1 and (17, -15) of
        # t^3 - 12t + 1: ratios 17/3 and 15
        A, B = critical_data(hp_height(1)), critical_data(hp_height(4))

        def no_division(a, b):
            raise AssertionError("divided although the boxes refute")

        monkeypatch.setattr(lipclass, "div", no_division)
        assert similar(A, B) == (None, None)

    def test_overlapping_boxes_fall_through_to_division(self):
        r2 = nth_root_pos(ra(2), 2)
        avals = (r2, ra(1))
        bvals = (ra(2), r2)  # ratios sqrt 2 and sqrt 2
        got = _proportional(*same_symbols(avals, bvals))
        assert got is not None and got.c == r2


def small_polys(degree):
    """Polynomials of the given degree with small coefficients."""
    coeffs = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=3)
    lead = coeffs.filter(bool)
    return st.tuples(st.lists(coeffs, min_size=degree, max_size=degree), lead).map(
        lambda cl: UniPoly(cl[0] + [cl[1]])
    )


degrees = st.integers(0, 4)


#: the slope a, shift b and scale c > 0 of one affine conjugation
conjugations = st.tuples(
    st.fractions(-3, 3, max_denominator=3).filter(bool),
    st.fractions(-3, 3, max_denominator=3),
    st.fractions(F(1, 3), 3, max_denominator=3),
)


law_examples = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def verdict_of(v):
    return v.equivalent, v.reason, {p.orientation for p in v.pairings}


class TestClassifyPair:
    def test_hp_positive_moduli(self):
        v = classify_pair(hp_height(1), hp_height(4))
        assert not v.equivalent
        assert v.reason is Reason1D.SYMBOL_NOT_SIMILAR
        assert v.symbols == (critical_data(hp_height(1)), critical_data(hp_height(4)))

    def test_single_crit_multiplicity_mismatch(self):
        # t^4 has one critical point of multiplicity 4, t^4 + t^2 one of 2
        v = classify_pair(P(0, 0, 0, 0, 1), P(0, 0, 1, 0, 1))
        assert not v.equivalent
        assert v.reason is Reason1D.SYMBOL_NOT_SIMILAR
        assert v.symbols is None

    def test_no_critical_points_equivalent(self):
        v = classify_pair(P(1, 3, 0, 1), P(1, 6, 0, 1))
        assert v.equivalent
        assert v.pairings[0].orientation is Orientation.INCREASING

    def test_quartic_self(self):
        v = classify_pair(P(0, 0, 0, 0, 1), P(0, 0, 0, 0, 1))
        assert v.equivalent
        orientations = {p.orientation for p in v.pairings}
        assert orientations == {Orientation.INCREASING, Orientation.DECREASING}
        assert all(not p.c_set.is_unique for p in v.pairings)

    def test_constants(self):
        assert classify_pair(P(3), P(F(1, 7))).equivalent
        assert classify_pair(P(0), P(0)).equivalent
        v = classify_pair(P(3), P(-2))
        assert v.reason is Reason1D.CONSTANT_SIGN_MISMATCH
        v = classify_pair(P(3), P(0, 1))
        assert v.reason is Reason1D.DEGREE_MISMATCH

    def test_degree_mismatch(self):
        v = classify_pair(P(0, 1), P(0, 0, 0, 1))
        assert v.reason is Reason1D.DEGREE_MISMATCH

    def test_crit_count_mismatch(self):
        # t^3 has one critical point, t^3 + 3t has none
        v = classify_pair(P(0, 0, 0, 1), P(0, 3, 0, 1))
        assert v.reason is Reason1D.CRIT_COUNT_MISMATCH

    def test_sign_mismatch_single_crit(self):
        # minima at heights of opposite signs
        v = classify_pair(P(1, 0, 1), P(-1, 0, 1))
        assert v.reason is Reason1D.SIGN_MISMATCH

    def test_extremum_type_mismatch(self):
        v = classify_pair(P(1, 0, 1), P(1, 0, -1))
        assert v.reason is Reason1D.EXTREMUM_TYPE_MISMATCH

    def test_single_crit_unique_constant(self):
        v = classify_pair(P(1, 0, 1), P(5, 0, 1))
        assert v.equivalent
        assert all(p.c_set.is_unique and p.c_set.c == ra(5) for p in v.pairings)

    def test_reflexive_random(self):
        rng = random.Random(200)
        for _ in range(15):
            f = rand_unipoly(rng, 6)
            assert classify_pair(f, f).equivalent

    @law_examples
    @given(degrees.flatmap(small_polys))
    def test_reflexive_law(self, f):
        v = classify_pair(f, f)
        assert v.equivalent
        assert Orientation.INCREASING in {p.orientation for p in v.pairings}

    @law_examples
    @given(degrees.flatmap(lambda d: st.tuples(small_polys(d), small_polys(d))))
    def test_symmetric_law(self, pair):
        # one degree for both, so that every pair gets past the degree test
        f, g = pair
        assert verdict_of(classify_pair(f, g)) == verdict_of(classify_pair(g, f))

    @law_examples
    @given(degrees.flatmap(small_polys), conjugations, conjugations)
    def test_transitive_law(self, f, first, second):
        # h(phi2(phi1(t))) = c2 c1 f(t), with slope a1 a2
        g = affine_conjugate(f, *first)
        h = affine_conjugate(g, *second)
        for left, right in ((f, g), (g, h), (f, h)):
            assert classify_pair(left, right).equivalent
        want = Orientation.INCREASING if first[0] * second[0] > 0 else Orientation.DECREASING
        assert want in {p.orientation for p in classify_pair(f, h).pairings}

    def test_symmetric_with_reciprocal_constant(self):
        rng = random.Random(201)
        for _ in range(10):
            f = rand_unipoly(rng, 5)
            c = abs(rand_nonzero_rational(rng))
            g = affine_conjugate(f, rand_nonzero_rational(rng), F(1, 2), c)
            fg = classify_pair(f, g)
            gf = classify_pair(g, f)
            assert fg.equivalent and gf.equivalent
            ufg = [p.c_set.c for p in fg.pairings if p.c_set.is_unique]
            ugf = [p.c_set.c for p in gf.pairings if p.c_set.is_unique]
            for a in ufg:
                assert any(compare(mul(a, b), RealAlg.from_rational(1)) == 0 for b in ugf)

    def test_oracle_orientation_and_constant(self):
        rng = random.Random(202)
        for _ in range(25):
            f = rand_unipoly(rng, 6)
            a = rand_nonzero_rational(rng)
            b = F(rng.randint(-3, 3), rng.randint(1, 3))
            c = abs(rand_nonzero_rational(rng))
            g = affine_conjugate(f, a, b, c)
            v = classify_pair(f, g)
            assert v.equivalent
            want = Orientation.INCREASING if a > 0 else Orientation.DECREASING
            match = [p for p in v.pairings if p.orientation is want]
            assert match
            for p in match:
                if p.c_set.is_unique:
                    assert p.c_set.c == ra(c)

    def test_transitive_on_oracle_triples(self):
        rng = random.Random(203)
        for _ in range(8):
            f = rand_unipoly(rng, 5)
            g = affine_conjugate(
                f, rand_nonzero_rational(rng), F(1, 3), abs(rand_nonzero_rational(rng))
            )
            h = affine_conjugate(
                g, rand_nonzero_rational(rng), F(-2, 5), abs(rand_nonzero_rational(rng))
            )
            assert classify_pair(f, g).equivalent
            assert classify_pair(g, h).equivalent
            assert classify_pair(f, h).equivalent

    def test_reflection_gives_decreasing_pairing(self):
        f = hp_height(1)
        g = f.compose(P(0, -1))  # g(t) = f(-t)
        v = classify_pair(f, g)
        assert v.equivalent
        assert len(v.pairings) == 1
        p = v.pairings[0]
        assert p.orientation is Orientation.DECREASING
        assert p.c_set.is_unique and p.c_set.c == ra(1)


class TestPinnedPairs:
    def test_complex_critical_values_do_not_scale(self):
        # real critical values +-4 and +-14, so c = 7/2; the complex ones,
        # +-4i and +-48i, are not in ratio c, so a test on all roots of
        # Res_t(f'(t), y - f(t)) would refute this pair
        v = classify_pair(P(0, -5, 0, 0, 0, 1), P(0, -20, 0, 5, 0, 1))
        assert v.equivalent
        (p,) = v.pairings
        assert p.orientation is Orientation.INCREASING
        assert p.c_set.is_unique and p.c_set.c == ra(F(7, 2))

    def test_shared_defpoly_self_pair_builds_no_large_sturm_chain(self, monkeypatch):
        # the five critical values share one defpoly of degree 7, so the
        # ratios' product defpoly has degree 43; certifying a ratio needs no
        # Sturm chain of it
        f = parse_uni("t^8 + 3*t^7 - 12345*t^5 + 67890*t^3 - 4321*t + 17")
        degrees = []
        chain = polyalg.sturm_sequence

        def counted(p):
            degrees.append(p.degree)
            return chain(p)

        for cache in (chain, realalg._count_pair, critical_data):
            cache.cache_clear()
        monkeypatch.setattr(polyalg, "sturm_sequence", counted)
        v = classify_pair(f, f)
        assert v.equivalent
        (p,) = v.pairings
        assert p.orientation is Orientation.INCREASING
        assert p.c_set.is_unique and p.c_set.c == ra(1)
        assert degrees and max(degrees) <= 7
