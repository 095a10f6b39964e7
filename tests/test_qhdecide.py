import inspect
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from qhlip import qhdecide
from qhlip.jsonio import classify2_json
from qhlip.lipclass import Reason1D, critical_data
from qhlip.polyalg import BiPoly, UniPoly
from qhlip.qhdecide import (
    BetaMismatchError,
    BetaRangeError,
    DegreeMismatchError,
    NEKind,
    NotQuasihomogeneousError,
    TheoremTag,
    UnknownKind,
    VerdictKind,
    decide,
    heights,
    infer_beta,
    pairing_search,
    validate_qh,
)
from qhlip.witness import InverseBetaTransform, verify_conjugacy
from qhlip.zygothety import compose, is_beta_regular

from helpers import inexact_paths, library_caches, rand_qhpoly


#: a random valid quasihomogeneous polynomial, drawn by rand_qhpoly from a seed
qh_polys = st.integers(0, 2**32).map(lambda seed: rand_qhpoly(random.Random(seed)))
#: nonzero rationals a and b for the substitution F(aX, bY): each in [-4, 4]
#: with a denominator up to 3, and a also +-2**k / den for k up to 8
small_scalings = st.fractions(-4, 4, max_denominator=3).filter(bool)
wide_scalings = st.builds(
    lambda k, den, sgn: F(sgn * 2**k, den),
    st.sampled_from((2, 4, 6, 8)),
    st.sampled_from((1, 2, 3)),
    st.sampled_from((-1, 1)),
)
scalings = st.tuples(st.one_of(small_scalings, wide_scalings), small_scalings)
law_examples = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def qh_terms(draw):
    """Sum of c_k X^(e + r(n - k)) Y^(sk) over k = 0..n with c_n != 0, for
    coprime r > s; n = 0 gives a pure X-power, of degree 1 or 2 or odd up to
    7, whose scale's sign a certificate must keep."""
    r, s = draw(st.sampled_from(((2, 1), (3, 1), (3, 2), (5, 2), (5, 3))))
    n = draw(st.integers(0, 3))
    e = draw(st.integers(0, 2) if n else st.sampled_from((1, 2, 3, 5, 7)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    coeffs.append(draw(st.sampled_from((-2, -1, 1, 3))))
    return validate_qh(BiPoly({(e + r * (n - k), s * k): c for k, c in enumerate(coeffs) if c}), r, s)


#: a random polynomial or a short sum of terms, which may be a pure X-power
qh_polys_and_terms = st.one_of(qh_polys, qh_terms())


def scaled(q, a, b):
    """F(aX, bY), which has F's weights and degree."""
    return validate_qh(q.poly.scale_vars(a, b), q.r, q.s)


def sheared(q, c):
    """F(X, Y + cX^r) for s = 1, which has F's weights and degree."""
    terms = {}
    for (i, j), a in q.poly.terms.items():
        for k in range(j + 1):  # a C(j, k) X^i Y^(j - k) (cX^r)^k
            key = (i + q.r * k, j - k)
            terms[key] = terms.get(key, 0) + a * math.comb(j, k) * c**k
    return validate_qh(BiPoly(terms), q.r, q.s)


def quoted(v):
    """A NotEquivalent verdict's reason kind and necessity conditions, each
    with its zero counts as an unordered pair (a flip of X swaps the heights)."""
    return v.reason.kind, [(n.condition, n.zero_side, sorted(n.zeros)) for n in v.reason.necessity]


def hp(lam) -> "QHPoly":
    """Continuous-moduli family member X^6 - 3*lam*X^4*Y + Y^3 with beta = 2."""
    return validate_qh(BiPoly({(6, 0): 1, (4, 1): -3 * F(lam), (0, 3): 1}), 2, 1)


class TestValidate:
    def test_hp_member(self):
        q = hp(1)
        assert (q.d, q.e, q.n) == (6, 0, 3)

    def test_xy(self):
        q = validate_qh(BiPoly({(1, 1): 1}), 2, 1)
        assert (q.d, q.e, q.n) == (3, 1, 1)

    def test_parabola_like(self):
        q = validate_qh(BiPoly({(2, 0): 1, (0, 1): 1}), 2, 1)
        assert (q.d, q.e, q.n) == (2, 0, 1)

    def test_support_violation(self):
        with pytest.raises(NotQuasihomogeneousError):
            validate_qh(BiPoly({(2, 0): 1, (1, 1): 1}), 2, 1)

    def test_beta_range(self):
        with pytest.raises(BetaRangeError):
            validate_qh(BiPoly({(1, 1): 1}), 1, 2)
        with pytest.raises(BetaRangeError):
            validate_qh(BiPoly({(1, 1): 1}), 4, 2)

    def test_zero_rejected(self):
        with pytest.raises(NotQuasihomogeneousError):
            validate_qh(BiPoly(), 2, 1)

    @pytest.mark.parametrize(
        "terms, message",
        [
            # the first term sets the line, so it can fail only on its Y-exponent,
            # and it does so before any later term is checked
            ({(0, 3): 1, (5, 0): 1}, "Y-exponent 3 is not a multiple of s=2"),
            ({(0, 3): 1, (3, 1): 1}, "Y-exponent 3 is not a multiple of s=2"),
            # a later term off the line fails on the line, whatever its Y-exponent
            ({(0, 2): 1, (5, 0): 1}, r"support is not on a single line: X\^5\*Y\^0"),
            ({(0, 2): 1, (1, 3): 1}, r"support is not on a single line: X\^1\*Y\^3"),
        ],
    )
    def test_refusal_order(self, terms, message):
        with pytest.raises(NotQuasihomogeneousError, match=message):
            validate_qh(BiPoly(terms), 3, 2)

    @law_examples
    @given(qh_polys_and_terms, scalings)
    def test_invariants_of_validated_polys(self, q, ab):
        # e = d - r*n, both heights of degree s*n, and every critical point of
        # a height of multiplicity at least 2, on F and on F(aX, bY)
        for p in (q, scaled(q, *ab)):
            assert p.e == p.d - p.r * p.n
            pair = heights(p)
            assert pair.f_plus.degree == pair.f_minus.degree == p.s * p.n
            for h in pair if p.n else ():
                assert all(m >= 2 for m in critical_data(h).mults)


class TestInferBeta:
    def test_hp(self):
        out = infer_beta(hp(1).poly)
        assert out.matches == (hp(1),)
        assert not out.ambiguous

    def test_two_monomials(self):
        out = infer_beta(BiPoly({(6, 0): 1, (4, 1): -3}))
        assert out.matches == (validate_qh(BiPoly({(6, 0): 1, (4, 1): -3}), 2, 1),)

    def test_monomial_is_ambiguous(self):
        out = infer_beta(BiPoly({(3, 0): 1}))
        assert out.ambiguous
        assert out.matches == ()

    def test_no_valid_beta(self):
        out = infer_beta(BiPoly({(2, 0): 1, (0, 2): 1}))  # beta would be 1
        assert not out.ambiguous
        assert out.matches == ()


class TestHeights:
    def test_hp(self):
        h = heights(hp(1))
        assert h.f_plus == UniPoly([1, -3, 0, 1])
        assert h.f_minus == UniPoly([1, -3, 0, 1])

    def test_xy(self):
        h = heights(validate_qh(BiPoly({(1, 1): 1}), 2, 1))
        assert h.f_plus == UniPoly([0, 1])
        assert h.f_minus == UniPoly([0, -1])

    def test_negative_family_member(self):
        h = heights(hp(-1))
        assert h.f_plus == UniPoly([1, 3, 0, 1])


class TestPairingSearch:
    def test_negative_members_pair(self):
        opts = pairing_search(hp(-1), hp(-2)).options
        assert opts
        assert any(o.lambda_sign == 1 for o in opts)
        assert all(
            not o.plus.c_set.is_unique and not o.minus.c_set.is_unique for o in opts
        )

    def test_moduli_pair_is_empty(self):
        search = pairing_search(hp(1), hp(4))
        assert search.options == ()
        assert [f.lambda_sign for f in search.failures] == [1, -1]

    def test_identity_pairing_exists(self):
        assert pairing_search(hp(2), hp(2)).options

    def test_beta_mismatch_rejected(self):
        other = validate_qh(BiPoly({(6, 0): 1, (0, 2): 1}), 3, 1)
        with pytest.raises((BetaMismatchError,)):
            pairing_search(hp(1), other)

    def test_degree_mismatch_rejected(self):
        small = validate_qh(BiPoly({(2, 0): 1, (0, 1): 1}), 2, 1)
        with pytest.raises(DegreeMismatchError):
            pairing_search(hp(1), small)


class TestDecide:
    def test_hp_distinct_positive_not_equivalent(self):
        v = decide(hp(1), hp(4))
        assert v.kind == "not_equivalent"
        assert v.reason.kind is NEKind.HEIGHTS_NOT_PAIRABLE
        conditions = {entry.condition for entry in v.reason.necessity}
        assert "a" in conditions
        failures = v.reason.pairing_failures
        assert any(
            entry.plus.reason is Reason1D.SYMBOL_NOT_SIMILAR for entry in failures
        )

    @staticmethod
    def _counted_decide(monkeypatch, a, b):
        calls = []
        real = qhdecide.classify_pair

        def counting(f, g):
            calls.append((f, g))
            return real(f, g)

        monkeypatch.setattr(qhdecide, "classify_pair", counting)
        return decide(a, b), calls

    def test_not_equivalent_classifies_each_height_pair_once(self, monkeypatch):
        # the family has F(-1, t) = F(1, t), so all four sides are one pair
        v, calls = self._counted_decide(monkeypatch, hp(1), hp(4))
        assert v.kind == "not_equivalent"
        assert len(calls) == 1

    def test_not_equivalent_classifies_distinct_height_pairs(self, monkeypatch):
        # heights 2t^2 -+ t - 1 against -2t^2 -+ t - 2: four distinct pairs,
        # (+,+) and (+,-) in the search, then the two (-) sides it skipped
        a = validate_qh(BiPoly({(6, 0): -1, (3, 1): -1, (0, 2): 2}), 3, 1)
        b = validate_qh(BiPoly({(6, 0): -2, (3, 1): 1, (0, 2): -2}), 3, 1)
        ha, hb = heights(a), heights(b)
        assert ha.f_plus != ha.f_minus and hb.f_plus != hb.f_minus
        v, calls = self._counted_decide(monkeypatch, a, b)
        assert v.kind == "not_equivalent"
        assert v.reason.kind is NEKind.HEIGHTS_NOT_PAIRABLE
        assert len(calls) == 4 and len(set(calls)) == 4

    def test_necessity_counts_zeros_of_unclassified_heights(self):
        # heights 1 + t^2 against 1 + t: both sides fail with DegreeMismatch,
        # so the search never built the critical data the zero count reads
        a = validate_qh(BiPoly({(4, 0): 1, (0, 2): 1}), 2, 1)
        b = validate_qh(BiPoly({(4, 0): 1, (2, 1): 1}), 2, 1)
        critical_data.cache_clear()
        pairing_search(a, b)
        assert critical_data.cache_info().currsize == 0
        v = decide(a, b)
        assert v.kind == "not_equivalent"
        assert v.reason.kind is NEKind.HEIGHTS_NOT_PAIRABLE
        reasons = {f.plus.reason for f in v.reason.pairing_failures}
        assert reasons == {Reason1D.DEGREE_MISMATCH}
        assert critical_data.cache_info().currsize == 2  # 1 + t^2 and 1 + t
        [cond] = v.reason.necessity
        assert (cond.condition, cond.zero_side, cond.zeros) == ("a", "G", (1, 1))

    def test_hp_negative_equivalent(self):
        v = decide(hp(-1), hp(-2))
        assert v.kind == "equivalent"
        assert v.certificate.theorem_tag is TheoremTag.COR_NO_CRIT_POINTS
        assert is_beta_regular(v.certificate.zygothety, 2, 1)

    def test_pure_power_sign_mismatch(self):
        a = validate_qh(BiPoly({(4, 0): 2}), 2, 1)
        b = validate_qh(BiPoly({(4, 0): -3}), 2, 1)
        v = decide(a, b)
        assert v.kind == "not_equivalent"
        assert v.reason.kind is NEKind.CXD_SIGN_MISMATCH

    def test_pure_power_odd_degree(self):
        a = validate_qh(BiPoly({(3, 0): 2}), 2, 1)
        b = validate_qh(BiPoly({(3, 0): -3}), 2, 1)
        v = decide(a, b)
        assert v.kind == "equivalent"
        assert v.certificate.theorem_tag is TheoremTag.CXD_CASE

    @pytest.mark.parametrize(
        "d, a, b, r, s",
        [(4, 2, 3, 2, 1), (5, F(-1, 3), 7, 3, 2), (6, -5, F(-2, 9), 5, 3), (1, 1, 4, 3, 1), (3, 2, -3, 5, 2)],
    )
    def test_pure_power_certificate(self, d, a, b, r, s):
        # odd degree, or even with one sign: Equivalent, by a certificate
        # whose one scale (a/b)^(1/d), irrational but at d = 1 and 2, and
        # identity maps make it beta-regular and conjugate F to G
        f, g = validate_qh(BiPoly({(d, 0): a}), r, s), validate_qh(BiPoly({(d, 0): b}), r, s)
        v = decide(f, g)
        assert v.kind == "equivalent"
        assert v.certificate.theorem_tag is TheoremTag.CXD_CASE
        assert is_beta_regular(v.certificate.zygothety, r, s)
        assert verify_conjugacy(f, g, InverseBetaTransform(v.certificate.zygothety, r, s), 5, 1.0)[0] <= 1e-8

    def test_mixed_pure_power_is_unknown(self):
        a = validate_qh(BiPoly({(4, 0): 2}), 2, 1)
        b = validate_qh(BiPoly({(4, 0): 1, (2, 1): 1}), 2, 1)
        v = decide(a, b)
        assert v.kind == "unknown"
        assert v.reason is UnknownKind.MIXED_CXD_CASE

    def test_verdict_kinds_are_typed(self):
        # a kind is a VerdictKind, and still equals and hashes as its value,
        # which is how callers outside the package compare and count kinds
        a = validate_qh(BiPoly({(4, 0): 2}), 2, 1)
        b = validate_qh(BiPoly({(4, 0): -3}), 2, 1)
        c = validate_qh(BiPoly({(4, 0): 1, (2, 1): 1}), 2, 1)
        cases = ((a, VerdictKind.EQUIVALENT), (b, VerdictKind.NOT_EQUIVALENT), (c, VerdictKind.UNKNOWN))
        for g, kind in cases:
            v = decide(a, g)
            assert v.kind is kind
            assert v.kind == kind.value and hash(v.kind) == hash(kind.value)

    def test_reflexive_on_random(self):
        rng = random.Random(300)
        for _ in range(12):
            q = rand_qhpoly(rng)
            v = decide(q, q)
            assert v.kind == "equivalent", (q, v.reason)

    def test_symmetric_kind(self):
        rng = random.Random(301)
        pairs = [(hp(1), hp(4)), (hp(-1), hp(-3)), (hp(F(1, 4)), hp(1))]
        for _ in range(6):
            a = rand_qhpoly(rng)
            b_poly = a.poly.scale_vars(
                F(rng.randint(1, 3)), F(rng.choice([-2, -1, 1, 2]))
            )
            pairs.append((a, validate_qh(b_poly, a.r, a.s)))
        for a, b in pairs:
            assert decide(a, b).kind == decide(b, a).kind

    @law_examples
    @given(qh_polys_and_terms)
    def test_reflexive_law(self, q):
        assert decide(q, q).kind is VerdictKind.EQUIVALENT

    @law_examples
    @given(qh_polys_and_terms, scalings)
    def test_symmetric_law(self, q, ab):
        g = scaled(q, *ab)
        kind = decide(q, g).kind
        assert kind is not VerdictKind.NOT_EQUIVALENT
        assert decide(g, q).kind is kind

    @law_examples
    @given(qh_polys_and_terms, scalings, scalings)
    def test_transitive_law(self, q, ab, ab2):
        g, h = scaled(q, *ab), scaled(q, *ab2)
        kinds = [decide(x, y).kind for x, y in ((q, g), (g, h), (q, h))]
        assert VerdictKind.NOT_EQUIVALENT not in kinds
        if kinds[0] is kinds[1] is VerdictKind.EQUIVALENT:
            assert kinds[2] is VerdictKind.EQUIVALENT

    @law_examples
    @given(qh_polys_and_terms, scalings, scalings)
    def test_transitive_certificates(self, q, ab, ab2):
        # G = F o h1 and H = G o h2: the product of the two certificates is
        # beta-regular and conjugates F to H within the CLI's default --tol,
        # and so does decide's own certificate for (F, H)
        g = scaled(q, *ab)
        h = scaled(g, *ab2)
        v, w = decide(q, g), decide(g, h)
        assume(v.kind is w.kind is VerdictKind.EQUIVALENT)
        z = compose(w.certificate.zygothety, v.certificate.zygothety)
        assert is_beta_regular(z, q.r, q.s)
        composite, direct = (
            verify_conjugacy(q, h, InverseBetaTransform(y, q.r, q.s), 50, 1.0)[0]
            for y in (z, decide(q, h).certificate.zygothety)
        )
        assert composite <= 1e-8 and direct <= 1e-8, (composite, direct)

    @law_examples
    @given(qh_polys_and_terms, scalings)
    def test_planted_documents_are_exact(self, q, ab):
        # F against F(aX, bY), whose scales are often irrational: every float
        # in classify2's document is the "approx" of an exact number
        g = scaled(q, *ab)
        assert inexact_paths(classify2_json(q, g, decide(q, g))) == []

    def test_laws_on_independent_pairs(self):
        # verdicts are class functions, on pairs drawn independently from one
        # family, so that all three kinds occur: decide(G, F) has the kind of
        # decide(F, G), and so has the pair with h put into one side, where h
        # is (aX, bY), followed half the time when s = 1 by the shear
        # (X, Y + cX^r); a NotEquivalent pair quotes the same necessity
        # conditions after h
        rng, kinds, sheared_kinds = random.Random(5), set(), set()
        for _ in range(300):
            q = rand_qhpoly(rng)
            while (g := rand_qhpoly(rng, betas=((q.r, q.s),))).d != q.d:
                pass
            v = decide(q, g)
            assert decide(g, q).kind is v.kind, (q.poly, g.poly)
            a = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            b = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            c = F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)) if q.s == 1 and rng.random() < 0.5 else 0
            h = (lambda p: sheared(scaled(p, a, b), c)) if c else (lambda p: scaled(p, a, b))
            pair = (h(q), g) if rng.random() < 0.5 else (q, h(g))
            w = decide(*pair)
            assert w.kind is v.kind, (q.poly, g.poly, a, b, c)
            if v.kind is VerdictKind.NOT_EQUIVALENT:
                assert quoted(w) == quoted(v), (q.poly, g.poly, a, b, c)
            kinds.add(v.kind)
            if c:
                sheared_kinds.add(v.kind)
        assert kinds == sheared_kinds == set(VerdictKind)

    def test_oracle_soundness_sample(self):
        rng = random.Random(302)
        for _ in range(15):
            q = rand_qhpoly(rng)
            g_poly = q.poly.scale_vars(
                F(rng.randint(1, 4), rng.randint(1, 3)),
                F(rng.choice([x for x in range(-4, 5) if x != 0]), rng.randint(1, 2)),
            )
            g = validate_qh(g_poly, q.r, q.s)
            v = decide(q, g)
            assert v.kind != "not_equivalent"

    def test_pairable_implies_equal_x_multiplicity(self):
        rng = random.Random(303)
        for _ in range(10):
            a, b = rand_qhpoly(rng), rand_qhpoly(rng)
            if (a.r, a.s, a.d) != (b.r, b.s, b.d):
                continue
            if pairing_search(a, b).options:
                assert a.e == b.e

    def test_suffc_tag_for_x_free_r_odd_s_even(self):
        # beta = 3/2, X does not divide either polynomial
        a = validate_qh(BiPoly({(3, 2): 1, (0, 4): 1, (6, 0): 1}), 3, 2)
        b = validate_qh(BiPoly({(3, 2): 2, (0, 4): 2, (6, 0): 2}), 3, 2)
        v = decide(a, b)
        assert v.kind == "equivalent"
        assert v.certificate.theorem_tag in (
            TheoremTag.SUFF_C_NO_X_FACTOR,
            TheoremTag.COR_NO_CRIT_POINTS,
        )


def test_every_cache_is_bounded():
    # found by walking the modules, so a new cache needs no list: each has a
    # finite maxsize, but one around a function of no parameters holds one entry
    caches = library_caches()
    unbounded = [
        name
        for name, cache in caches.items()
        if cache.cache_parameters()["maxsize"] is None and inspect.signature(cache.__wrapped__).parameters
    ]
    assert not unbounded
    assert {"qhlip.parser._compile", "qhlip.qhdecide._heights_cached", "qhlip.cli.build_parser"} <= caches.keys()


def test_caches_stay_bounded_over_a_long_run():
    # one process deciding many distinct pairs, as a library scan does:
    # planted F(aX, bY) pairs and independent same-family pairs
    caches = library_caches().values()
    for cache in caches:
        cache.cache_clear()
    rng, seen = random.Random(1500), set()
    while len(seen) < 1500:
        q = rand_qhpoly(rng)
        if rng.random() < 0.5:
            a = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            g = scaled(q, a, F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
        else:
            while (g := rand_qhpoly(rng, betas=((q.r, q.s),))).d != q.d:
                pass
        if (q.poly, g.poly) not in seen:
            seen.add((q.poly, g.poly))
            decide(q, g)
    for cache in caches:
        info = cache.cache_info()
        # an unbounded cache is one of no parameters, so it holds one entry
        assert info.currsize <= (1 if info.maxsize is None else info.maxsize), (cache.__name__, info)
    # the run overflowed the critical data cache, so its bound was exercised
    assert critical_data.cache_info().misses > critical_data.cache_info().maxsize
