import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, find, given, settings, strategies as st

from qhlip import zygothety
from qhlip.jsonio import map_json
from qhlip.lipclass import Orientation, critical_data
from qhlip.parser import parse_bi
from qhlip.polyalg import BiPoly, UniPoly
from qhlip.qhdecide import PairingOption, VerdictKind, decide, heights, pairing_search, validate_qh
from qhlip.realalg import RealAlg, compare, isolate_real_roots, mul, nth_root_pos
from qhlip.witness import InverseBetaTransform, verify_conjugacy
from qhlip.zygothety import (
    RESIDUAL_SAMPLES,
    Affine,
    BranchMap,
    Compose,
    Neg,
    NegConj,
    Zygothety,
    action_residual,
    compose,
    identity,
    identity_map,
    inverse,
    is_beta_regular,
    make_regular,
)

from helpers import (
    affine_conjugate,
    rand_nonzero_rational,
    rand_qhpoly,
    rebuilt_alg,
    ref_batch_eval_floats,
    ref_branch_inversions,
    ref_is_beta_regular,
    ref_limit_slope,
    uni_sub,
)


def ra(x):
    return RealAlg.from_rational(x)


def branch_identity(f: UniPoly) -> BranchMap:
    crits = critical_data(f).points
    return BranchMap(ra(1), True, f, f, crits, crits)


def eval_grid(m, lo=-5.0, hi=5.0, n=101):
    step = (hi - lo) / (n - 1)
    return [m.eval_float(lo + k * step) for k in range(n)]


def hp(lam):
    return validate_qh(BiPoly({(6, 0): 1, (4, 1): -3 * F(lam), (0, 3): 1}), 2, 1)


class TestGroupOps:
    def test_identity_is_neutral(self):
        z = identity()
        w = compose(z, z)
        assert w.lam1 == ra(1) and w.lam2 == ra(1)
        for t in (-2.0, 0.0, 1.5):
            assert w.phi1.eval_float(t) == pytest.approx(t, abs=1e-12)

    def test_negative_inner_swaps_components(self):
        inner = Zygothety(ra(-2), ra(-3), Affine(F(1), F(0)), Affine(F(2), F(0)))
        outer = Zygothety(ra(5), ra(7), Affine(F(1), F(1)), Affine(F(1), F(2)))
        out = compose(outer, inner)
        # (lam1*mu2, lam2*mu1) when the inner scales are negative
        assert out.lam1 == ra(-14)
        assert out.lam2 == ra(-15)
        # psi2 o phi1 lands in the first slot
        assert out.phi1.eval_float(1.0) == pytest.approx(1.0 + 2.0)

    def test_compose_with_inverse_is_identity(self):
        f = UniPoly([1, 3, 0, 1])
        g = UniPoly([1, 6, 0, 1])
        phi = BranchMap(ra(8), True, f, g, (), ())
        z = Zygothety(ra(2), ra(2), phi, phi)
        w = compose(z, inverse(z))
        assert w.lam1 == ra(1) and w.lam2 == ra(1)
        for t in eval_grid(identity_map(), -3, 3, 101):
            assert w.phi1.eval_float(t) == pytest.approx(t, abs=1e-9)
            assert w.phi2.eval_float(t) == pytest.approx(t, abs=1e-9)

    def test_inverse_of_identity(self):
        z = inverse(identity())
        assert z.lam1 == ra(1)
        assert z.phi1.eval_float(0.7) == pytest.approx(0.7)

    def test_inverse_affine_direct_case(self):
        z = Zygothety(ra(3), ra(3), Affine(F(2), F(0)), Affine(F(2), F(0)))
        w = inverse(z)
        assert w.lam1 == ra(F(1, 3))
        assert w.phi1.eval_float(4.0) == pytest.approx(2.0)

    def test_inverse_negative_scales_swaps(self):
        z = Zygothety(ra(-2), ra(-4), Affine(F(1), F(1)), Affine(F(1), F(2)))
        w = inverse(z)
        assert w.lam1 == ra(F(-1, 4))
        assert w.lam2 == ra(F(-1, 2))
        # phi2 moves into slot one and is inverted
        assert w.phi1.eval_float(3.0) == pytest.approx(1.0)

    def test_scale_sign_invariant_enforced(self):
        with pytest.raises(ArithmeticError):
            Zygothety(ra(1), ra(-1), identity_map(), identity_map())


class TestLimitSlope:
    def test_affine(self):
        assert Affine(F(3), F(7)).limit_slope() == ra(3)

    def test_identity_branch(self):
        f = UniPoly([1, -3, 0, 1])
        assert branch_identity(f).limit_slope() == ra(1)

    def test_scaled_cubic_branch(self):
        phi = BranchMap(ra(8), True, UniPoly([1, 3, 0, 1]), UniPoly([1, 6, 0, 1]), (), ())
        assert phi.limit_slope() == ra(2)

    def test_wrappers(self):
        m = Affine(F(3), F(1))
        assert Neg(m).limit_slope() == ra(-3)
        assert NegConj(m).limit_slope() == ra(3)
        assert Compose(m, m).limit_slope() == ra(9)

    def test_inverse_slope_is_reciprocal(self):
        phi = BranchMap(ra(8), True, UniPoly([1, 3, 0, 1]), UniPoly([1, 6, 0, 1]), (), ())
        for m in (phi, Affine(F(-5, 3), F(2)), Compose(phi, Affine(F(2), F(0)))):
            s = m.limit_slope()
            si = m.inverse().limit_slope()
            assert compare(mul(s, si), ra(1)) == 0


class TestWrapperInverse:
    @pytest.mark.parametrize("wrap", [Neg, NegConj])
    @pytest.mark.parametrize(
        "inner",
        [
            Affine(F(-5, 3), F(2)),
            BranchMap(ra(8), True, UniPoly([1, 3, 0, 1]), UniPoly([1, 6, 0, 1]), (), ()),
        ],
        ids=["affine", "branch"],
    )
    def test_inverse_is_two_sided(self, wrap, inner):
        m = wrap(inner)
        mi = m.inverse()
        for t in (-3.0, -1.0, -0.25, 0.0, 0.5, 1.0, 2.5):
            assert mi.eval_float(m.eval_float(t)) == pytest.approx(t, abs=1e-9)
            assert m.eval_float(mi.eval_float(t)) == pytest.approx(t, abs=1e-9)
        assert mul(m.limit_slope(), mi.limit_slope()) == ra(1)

    def test_neg_inverse_renders_as_compose(self):
        # (-(2t + 1))^-1 = (s -> s/2 - 1/2) o (s -> -s)
        assert map_json(Neg(Affine(F(2), F(1))).inverse()) == {
            "kind": "compose",
            "outer": {"kind": "affine", "a": "1/2", "b": "-1/2"},
            "inner": {"kind": "affine", "a": "-1", "b": "0"},
        }


class TestBetaRegular:
    def test_identity(self):
        assert is_beta_regular(identity(), 2, 1)

    def test_equal_scales_identity_maps(self):
        z = Zygothety(ra(2), ra(2), identity_map(), identity_map())
        assert is_beta_regular(z, 2, 1)
        assert is_beta_regular(z, 3, 2)

    def test_unequal_scales_fail(self):
        z = Zygothety(ra(1), ra(2), identity_map(), identity_map())
        assert not is_beta_regular(z, 2, 1)

    def test_incoherent_maps_fail(self):
        z = Zygothety(ra(1), ra(1), Affine(F(1), F(0)), Affine(F(-1), F(0)))
        assert not is_beta_regular(z, 2, 1)

    def test_weighted_balance(self):
        # |2|^2 * 1 == |1|^2 * 4: lam = (2, 1), slopes (1, 4)
        z = Zygothety(ra(2), ra(1), Affine(F(1), F(0)), Affine(F(4), F(0)))
        assert is_beta_regular(z, 2, 1)
        assert not is_beta_regular(z, 3, 1)


class TestMakeRegular:
    def test_hp_negative_pair(self):
        Fq, Gq = hp(-1), hp(-2)
        option = pairing_search(Fq, Gq).options[0]
        z = make_regular(option, Fq)
        assert is_beta_regular(z, 2, 1)
        res = action_residual(z, 6, option.sides)
        assert res < 1e-9

    def test_self_pair_is_identity_like(self):
        Fq = hp(2)
        option = pairing_search(Fq, Fq).options[0]
        z = make_regular(option, Fq)
        assert z.lam1 == ra(1)
        for t in (-1.5, 0.0, 2.25):
            assert z.phi1.eval_float(t) == pytest.approx(t, abs=1e-9)

    def test_r_even_duplicates_components(self):
        Fq = hp(3)
        Gq = validate_qh(Fq.poly.scale_vars(F(2), F(1, 2)), 2, 1)
        option = pairing_search(Fq, Gq).options[0]
        z = make_regular(option, Fq)
        assert compare(z.lam1, z.lam2) == 0
        assert z.phi1 is z.phi2
        assert is_beta_regular(z, 2, 1)

    def test_action_spot_check_on_random_oracles(self):
        rng = random.Random(400)
        checked = 0
        while checked < 10:
            q = rand_qhpoly(rng)
            g_poly = q.poly.scale_vars(
                F(rng.randint(1, 3), rng.randint(1, 2)),
                F(rng.choice([-3, -2, -1, 1, 2, 3])),
            )
            g = validate_qh(g_poly, q.r, q.s)
            options = pairing_search(q, g).options
            if not options:
                continue
            v = decide(q, g)
            if v.kind != "equivalent":
                continue
            z = v.certificate.zygothety
            res = action_residual(z, q.d, v.certificate.pairing_trace.sides)
            assert res < 1e-6
            checked += 1


def crossed_orientation_option(Fq, Gq):
    """The first pairing option of (F, G) whose (+) side is increasing and
    whose (-) side is decreasing."""
    return next(
        o
        for o in pairing_search(Fq, Gq).options
        if o.plus.orientation is Orientation.INCREASING
        and o.minus.orientation is Orientation.DECREASING
    )


class TestNegConstruction:
    """make_regular's Neg branch: with s even the heights are even functions,
    so both orientations of a side admit the same constant and decide always
    takes the (increasing, increasing) option, which comes first; the crossed
    orientations are reached only by calling make_regular directly."""

    @pytest.mark.parametrize(
        "f_text, g_text, shared",
        [("X^6 + Y^4", "2*X^6 + 3*Y^4", False), ("X^2*Y^4 - X^8", "X^2*Y^4 - X^8", True)],
    )
    def test_crossed_orientations_negate_the_second_map(self, f_text, g_text, shared):
        Fq, Gq = validate_qh(parse_bi(f_text), 3, 2), validate_qh(parse_bi(g_text), 3, 2)
        assert (Fq.e != 0) == shared
        option = crossed_orientation_option(Fq, Gq)
        z = make_regular(option, Fq)
        if shared:
            assert compare(z.lam1, z.lam2) == 0
        assert is_beta_regular(z, 3, 2)
        assert action_residual(z, Fq.d, option.sides) <= 1e-6
        T = InverseBetaTransform(z, 3, 2)
        assert verify_conjugacy(Fq, Gq, T, 5, 1.0)[0] <= 1e-8
        assert map_json(z.phi2)["kind"] == "neg"

    def test_no_common_constant_builds_nothing(self):
        # the pair of tests/golden/unknown_sufficiency_gap.json: X divides both,
        # and every option's two sides force distinct constants
        Fq, Gq = (
            validate_qh(parse_bi(t), 3, 2)
            for t in ("-2*X^7*Y^2 + X^4*Y^4 + 3*X*Y^6", "3*X^7*Y^2 + 3*X^4*Y^4 - 3*X*Y^6")
        )
        options = pairing_search(Fq, Gq).options
        assert options and Fq.e != 0
        assert all(make_regular(option, Fq) is None for option in options)


@st.composite
def negative_x_scale_pairs(draw):
    """(F, G) with G = F(-a X, b Y) for a random quasihomogeneous F, a > 0
    and b != 0: a pair whose certificate may need a negative scale."""
    q = rand_qhpoly(random.Random(draw(st.integers(0, 2**32))))
    a = F(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    b = F(draw(st.sampled_from((-2, -1, 1, 2))))
    return q, validate_qh(q.poly.scale_vars(-a, b), q.r, q.s)


def lambda_sign(pair) -> int:
    v = decide(*pair)
    return v.certificate.zygothety.lam_sign if v.kind == VerdictKind.EQUIVALENT else 0


few_pairs = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestNegativeScaleProperty:
    @few_pairs
    @given(negative_x_scale_pairs())
    def test_certificate_pairs_crossed_heights(self, pair):
        q, g = pair
        v = decide(q, g)
        assert v.kind == VerdictKind.EQUIVALENT
        z, option = v.certificate.zygothety, v.certificate.pairing_trace
        assert action_residual(z, q.d, option.sides) <= 1e-6
        hf, hg = heights(q), heights(g)
        if z.lam_sign < 0:
            assert option.sides == ((hf.f_plus, hg.f_minus), (hf.f_minus, hg.f_plus))
        else:
            assert option.sides == ((hf.f_plus, hg.f_plus), (hf.f_minus, hg.f_minus))
        T = InverseBetaTransform(z, q.r, q.s)
        assert verify_conjugacy(q, g, T, 5, 1.0)[0] <= 1e-8

    def test_negative_scale_occurs(self):
        pair = find(negative_x_scale_pairs(), lambda pair: lambda_sign(pair) < 0, settings=few_pairs)
        assert lambda_sign(pair) < 0


def copied(m):
    """A distinct map equal to m: a BranchMap or Affine rebuilt from its
    fields, a NegConj around a copy of its inner map."""
    if isinstance(m, BranchMap):
        return BranchMap(m.c, m.increasing, m.f, m.g, m.crits_f, m.crits_g)
    if isinstance(m, NegConj):
        return NegConj(copied(m.inner))
    if isinstance(m, Affine):
        return Affine(m.a, m.b)
    raise TypeError(f"no copy for {m!r}")


def rebuilt(z: Zygothety) -> Zygothety:
    """z with a distinct but equal lam2 and a copied phi2: no identity links
    its components, so the checks take their full path."""
    return Zygothety(z.lam1, rebuilt_alg(z.lam2), z.phi1, copied(z.phi2))


def scaled_pair_certificates(betas=((2, 1), (3, 1), (4, 1), (5, 3)), max_denominator=2):
    """(F, certificate) for the Equivalent pairs (F, F(aX, bY)) of drawn
    quasihomogeneous F: zygotheties that make_regular built."""

    def certify(args):
        seed, (a, b) = args
        q = rand_qhpoly(random.Random(seed), betas=betas)
        return q, decide(q, validate_qh(q.poly.scale_vars(a, b), q.r, q.s)).certificate

    scalings = st.tuples(*[st.fractions(-3, 3, max_denominator=max_denominator).filter(bool)] * 2)
    return st.tuples(st.integers(0, 2**32), scalings).map(certify).filter(lambda qc: qc[1] is not None)


def symmetric_certificates():
    """scaled_pair_certificates whose zygothety has lam2 is lam1 and phi2 is
    phi1 or NegConj(phi1)."""

    def symmetric(qc) -> bool:
        z = qc[1].zygothety
        return z.lam2 is z.lam1 and (z.phi2 is z.phi1 or (isinstance(z.phi2, NegConj) and z.phi2.inner is z.phi1))

    return scaled_pair_certificates().filter(symmetric)


def bits(x: float) -> str:
    return x.hex()


class TestBetaRegularOnRationalPowers:
    """is_beta_regular, on integer powers of the slopes' radicands, answers
    as the reference that takes each limit slope's root
    (helpers.ref_is_beta_regular)."""

    @few_pairs
    @given(scaled_pair_certificates(betas=((2, 1), (3, 1), (4, 1), (5, 3), (3, 2)), max_denominator=3))
    def test_matches_the_reference(self, qc):
        q, cert = qc
        z = cert.zygothety
        for w in (z, rebuilt(z), inverse(z), compose(z, z), compose(inverse(z), z)):
            assert is_beta_regular(w, q.r, q.s) is ref_is_beta_regular(w, q.r, q.s) is True
        # mutants: the second scale doubled, and the second map negated
        for w in (
            Zygothety(z.lam1, mul(z.lam2, ra(2)), z.phi1, z.phi2),
            Zygothety(z.lam1, z.lam2, z.phi1, Neg(z.phi2)),
        ):
            assert is_beta_regular(w, q.r, q.s) is ref_is_beta_regular(w, q.r, q.s) is False

    @few_pairs
    @given(
        st.sampled_from(((2, 1), (3, 2), (5, 2), (5, 3))),
        *[st.fractions(F(1, 3), 3).filter(bool)] * 3,
        *[st.integers(1, 4)] * 2,
        st.sampled_from((-1, 1)),
    )
    def test_balanced_scales_and_slopes(self, rs, u, v, w, n1, n2, sgn):
        # |lam_i|^beta = u^r and v^r, and L_i = (c_i)**(1/n_i) = v^r w and u^r w
        # on maps t^n_i -> t^n_i scaled by c_i: regular with distinct scales,
        # slopes and root orders
        r, s = rs

        def power_map(c, n):
            t_n = UniPoly([0] * n + [1])
            return BranchMap(ra(c), True, t_n, t_n, (), ())

        z = Zygothety(ra(sgn * u**s), ra(sgn * v**s), power_map((v**r * w) ** n1, n1), power_map((u**r * w) ** n2, n2))
        swapped = Zygothety(z.lam1, z.lam2, z.phi2, z.phi1)
        assert is_beta_regular(z, r, s) is ref_is_beta_regular(z, r, s) is True
        assert is_beta_regular(swapped, r, s) is ref_is_beta_regular(swapped, r, s) is (u == v)
        for mutant in (Zygothety(z.lam1, mul(z.lam2, ra(2)), z.phi1, z.phi2), Zygothety(z.lam1, z.lam2, z.phi1, Neg(z.phi2))):
            assert is_beta_regular(mutant, r, s) is ref_is_beta_regular(mutant, r, s) is False

    def test_slope_powers(self):
        # the limit slope of each map is sign * R**(1/n)
        m = BranchMap(ra(F(1, 2)), True, UniPoly([0, 0, 0, 2]), UniPoly([0, 0, 0, 1]), (), ())
        assert [x if isinstance(x, int) else x.lo for x in m.slope_power()] == [1, 1, 3]
        for w, (sgn, R, n) in (
            (Affine(F(-3), F(1)), (-1, 3, 1)),
            (Neg(m), (-1, 1, 3)),
            (NegConj(Neg(m)), (-1, 1, 3)),
            (Compose(Affine(F(4), F(0)), Compose(m, m)), (1, 4**9, 9)),
        ):
            got = w.slope_power()
            assert (got[0], got[1].lo, got[2]) == (sgn, R, n) and got[1].is_rational
            assert w.limit_slope() == ref_limit_slope(w)


class TestSymmetricShortcuts:
    """is_beta_regular and action_residual skip the second component of a
    symmetric zygothety; the answer must be bit for bit the full path's."""

    @few_pairs
    @given(symmetric_certificates())
    def test_symmetric_matches_rebuilt_copy(self, qc):
        q, cert = qc
        z, twin = cert.zygothety, rebuilt(cert.zygothety)
        assert twin.lam2 is not twin.lam1 and twin.phi2 is not z.phi2
        assert is_beta_regular(z, q.r, q.s) is is_beta_regular(twin, q.r, q.s) is True
        if isinstance(cert.pairing_trace, PairingOption):
            sides = cert.pairing_trace.sides
            assert bits(action_residual(z, q.d, sides)) == bits(action_residual(twin, q.d, sides))

    def test_family_pair_checks_one_component(self, monkeypatch):
        # the family's two heights are one polynomial, so the certificate of
        # an r-even pair has equal sides and phi2 is phi1
        Fq = hp(3)
        Gq = validate_qh(Fq.poly.scale_vars(F(2), F(1, 2)), 2, 1)
        v = decide(Fq, Gq)
        z, sides = v.certificate.zygothety, v.certificate.pairing_trace.sides
        assert z.lam2 is z.lam1 and z.phi2 is z.phi1 and sides[1] == sides[0]
        twin = rebuilt(z)
        calls = []
        real_eval, real_pow, real_root = BranchMap.eval_float, zygothety.pow_int, zygothety.nth_root_pos
        monkeypatch.setattr(BranchMap, "eval_float", lambda m, t: calls.append("eval") or real_eval(m, t))
        monkeypatch.setattr(zygothety, "pow_int", lambda a, k: calls.append(("pow", a.is_rational)) or real_pow(a, k))
        monkeypatch.setattr(zygothety, "nth_root_pos", lambda a, n: calls.append("root") or real_root(a, n))
        short = action_residual(z, Fq.d, sides), is_beta_regular(z, 2, 1)
        short_calls, calls[:] = list(calls), []
        full = action_residual(twin, Fq.d, sides), is_beta_regular(twin, 2, 1)
        assert (bits(short[0]), short[1]) == (bits(full[0]), full[1])
        # the shortcut takes no power; the full path takes integer powers of
        # the rational scale and slope ratio, and no root
        assert short_calls == ["eval"] * RESIDUAL_SAMPLES
        assert calls.count("eval") == 2 * RESIDUAL_SAMPLES and "root" not in calls
        assert [c for c in calls if c != "eval"] == [("pow", True)] * 4

    def test_branch_shortcut_takes_no_root(self, monkeypatch):
        # a BranchMap's slope sign is its orientation once limit_slope's
        # checks pass, so the symmetric shortcut takes no n-th root
        Fq = hp(3)
        z = decide(Fq, validate_qh(Fq.poly.scale_vars(F(2), F(1, 2)), 2, 1)).certificate.zygothety
        assert isinstance(z.phi1, BranchMap) and z.phi2 is z.phi1
        roots, real_root = [], zygothety.nth_root_pos
        monkeypatch.setattr(zygothety, "nth_root_pos", lambda a, n: roots.append(n) or real_root(a, n))
        assert is_beta_regular(z, 2, 1) and not roots
        assert z.phi1.slope_power()[0] == z.phi1.limit_slope().sign() == (1 if z.phi1.increasing else -1)
        assert roots
        one, cubic, square = RealAlg.from_rational(1), UniPoly((0, 0, 0, 1)), UniPoly((0, 0, 1))
        with pytest.raises(ArithmeticError, match="different or zero degree"):
            BranchMap(one, True, cubic, square, (), ()).slope_power()

    @pytest.mark.parametrize("slope", [F(0), F(-2), F(3)])
    def test_shortcut_reads_the_slope_sign(self, slope):
        lam = nth_root_pos(ra(3), 2)
        for phi in (Affine(slope, F(0)), NegConj(Affine(slope, F(1)))):
            inner = phi.inner if isinstance(phi, NegConj) else phi
            z = Zygothety(lam, lam, inner, phi)
            assert is_beta_regular(z, 3, 1) is is_beta_regular(rebuilt(z), 3, 1) is (slope != 0)


class TestClosureProperties:
    def _certificate_pool(self):
        pool = [identity()]
        pairs = [(hp(-1), hp(-2)), (hp(-2), hp(-3)), (hp(2), hp(2))]
        for a, b in pairs:
            v = decide(a, b)
            assert v.kind == "equivalent"
            pool.append(v.certificate.zygothety)
        return pool

    def test_closed_under_compose_and_inverse(self):
        pool = self._certificate_pool()
        rng = random.Random(401)
        for _ in range(25):
            a, b = rng.choice(pool), rng.choice(pool)
            assert is_beta_regular(compose(a, b), 2, 1)
        for z in pool:
            assert is_beta_regular(inverse(z), 2, 1)

    def test_branch_map_monotone(self):
        f = UniPoly([1, -3, 0, 1])
        g = UniPoly([2, -6, 0, 2])  # 2 * f, directly similar with c = 2
        cf = critical_data(f).points
        cg = critical_data(g).points
        up = BranchMap(ra(2), True, f, g, cf, cg)
        vals = eval_grid(up, -4, 4, 101)
        assert all(x < y for x, y in zip(vals, vals[1:]))
        down_inner = BranchMap(ra(2), True, f, g, cf, cg)
        down = Neg(down_inner)
        vals = eval_grid(down, -4, 4, 101)
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_decreasing_branch_map(self):
        # f(t) = t^3 vs g(t) = -t^3: reversely similar, decreasing witness
        f = UniPoly([0, 0, 0, 1])
        g = UniPoly([0, 0, 0, -1])
        cf = critical_data(f).points
        cg = critical_data(g).points
        phi = BranchMap(ra(1), False, f, g, cf, cg)
        vals = eval_grid(phi, -3, 3, 61)
        assert all(x > y for x, y in zip(vals, vals[1:]))
        for t in (-2.0, -0.5, 0.0, 1.0, 2.5):
            assert g.eval_float(phi.eval_float(t)) == pytest.approx(
                f.eval_float(t), rel=1e-9, abs=1e-9
            )


def branch_inverse(g: UniPoly, points, j: int) -> BranchMap:
    """A BranchMap sending each value y (|y| < 1e30) to its preimage under g
    on the j-th branch: f is t itself, and f's cut points put every value on
    branch j."""
    far = [ra(-(10**30))] * j + [ra(10**30)] * (len(points) - j)
    return BranchMap(ra(1), True, UniPoly([0, 1]), g, far, points)


def d2_points(g: UniPoly, run) -> list[float]:
    """The points where run() has g's eval_float_d2 evaluate g, g' and g''
    (or -g's, on a branch where g falls), in order."""
    points, real = [], UniPoly.eval_float_d2

    def recording(p, x):
        if p.coeffs in (g.coeffs, (-g).coeffs):
            points.append(x)
        return real(p, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(UniPoly, "eval_float_d2", recording)
        run()
    return points


class TestInvertOnBranch:
    def test_value_past_the_extremum_clamps_to_the_critical_point(self):
        # g = t^2 has its minimum 0 at t = 0; y sits just below it
        g = UniPoly([0, 0, 1])
        points = critical_data(g).points
        for j, root in ((1, 2.0), (0, -2.0)):
            m = branch_inverse(g, points, j)
            u = m.eval_float(4.0)
            assert m.eval_float(-1e-17) == 0.0 and m.eval_floats([-1e-17, 4.0, -1e-17]) == [0.0, u, 0.0]
            assert u == pytest.approx(root)
            assert_solves(g, [0.0], j, 4.0, u)

    def test_tiny_value_bisects_by_sign(self):
        # near the root g(u) - y is of order 1e-170 on both sides, so the
        # product of two such values would underflow to -0.0 and could not
        # tell which half holds the root, about 3.5e-16; the signs of g(x)
        # against y can
        g = UniPoly([0] * 11 + [1])
        m = branch_inverse(g, critical_data(g).points, 1)
        for u in (m.eval_float(1e-170), *m.eval_floats([1e-170, 1e-170])):
            assert abs(u - 1e-170 ** (1 / 11)) <= 1e-15
            assert_solves(g, [0.0], 1, 1e-170, u)

    def test_rounding_size_step_ends_the_search(self):
        # Newton's steps reach rounding size within a few passes, and a step
        # of rounding size that fails the halving test must end the search,
        # not start bisecting down to the adjacent floats: with the stop,
        # each of these takes at most 6 passes of g, g' and g'', and without
        # it the last two take 54 and 55 (y drawn as g at points of the branch)
        cases = [
            (UniPoly([1, F(3, 4), 0, 1]), 0, 28.872335113551316),
            (UniPoly([4, 8, -9]), 0, -3.2222222222222228),
            (UniPoly([2, -8, -7, 3, 6, 3, 9, -7]), 0, 0.4202020397724543),
        ]
        for g, j, y in cases:
            points = critical_data(g).points
            crits = [c.to_float() for c in points]
            m = branch_inverse(g, points, j)
            m.eval_float(y)  # the map's floats, before counting
            got = []
            assert len(d2_points(g, lambda: got.append(m.eval_float(y)))) <= 6
            assert_solves(g, crits, j, y, got[0])

    def test_root_on_a_pushed_end_is_tried_there(self):
        # the lower end pushed out from the critical point 1.435 stops at
        # -2.5649272846569255, where g is y to one ulp; Newton's steps from
        # inside overshoot that end, and bisecting down to it took 54 passes
        g, y = UniPoly([-4, 9, -8, 8, -3]), -344.55325678723835
        points = critical_data(g).points
        m = branch_inverse(g, points, 0)
        m.eval_float(y)  # the map's floats, before counting
        got, count, reals = [], [0], {n: getattr(UniPoly, n) for n in ("eval_float", "eval_float_d2")}
        with pytest.MonkeyPatch.context() as mp:
            for name, real in reals.items():
                mp.setattr(UniPoly, name, lambda p, x, real=real: count.__setitem__(0, count[0] + 1) or real(p, x))
            got.append(m.eval_float(y))
        assert count[0] <= 12
        assert_solves(g, [c.to_float() for c in points], 0, y, got[0])
        assert got == ref_branch_inversions(g, [c.to_float() for c in points], 0, [y])

    def test_no_preimage_raises(self):
        # a constant g has no branch to invert on: critical_data refuses it,
        # so no BranchMap onto it is ever built
        with pytest.raises(ValueError, match="constant"):
            zygothety._branch_map(ra(1), Orientation.INCREASING, UniPoly([0, 1]), UniPoly([1]))

    def test_an_overflowed_value_is_nan_alone(self):
        # f(+-1e200) leaves the float range: those two values are NaN, and the
        # others keep the bits of a batch without them; an infinite y once
        # pushed its run's end to infinity, which made the whole run NaN
        m = branch_identity(UniPoly([1, -3, 0, 1]))
        got = m.eval_floats([2.0, 1e200, -0.5, -1e200, 3.0])
        assert [bits(u) for u in got[::2]] == [bits(u) for u in m.eval_floats([2.0, -0.5, 3.0])]
        assert all(map(math.isfinite, got[::2])) and all(map(math.isnan, got[1::2]))

    def test_an_overflowed_value_is_nan_in_every_path(self):
        # c * f(1e200) is not finite: eval_float, a batch of one and a batch
        # of two all answer NaN for it, where the first two once returned
        # the run's end pushed to inf
        m = branch_identity(UniPoly([1, -3, 0, 1]))
        assert math.isnan(m.eval_float(1e200)) and math.isnan(m.eval_float(-1e200))
        assert all(map(math.isnan, m.eval_floats([1e200])))
        got = m.eval_floats([1e200, 2.0])
        assert math.isnan(got[0]) and bits(got[1]) == bits(m.eval_float(2.0))

    def test_first_midpoint_on_the_inflection(self):
        # g = t^3 - 3t + 1 falls on (-1, 1), and the first midpoint of a run
        # there is 0, its inflection: g'' = 0 at that point, so K read there
        # would stop Newton's first step at once, returning -0.4583 for
        # -0.5; a midpoint was not stepped to, so its K is not read
        g = UniPoly([1, -3, 0, 1])
        m, crits = branch_identity(g), [-1.0, 1.0]
        got = []
        points = d2_points(g, lambda: got.extend([m.eval_float(-0.5), *m.eval_floats([-0.5])]))
        assert points[0] == 0.0
        for u in got:
            assert_solves(g, crits, 1, 2.375, u)
            assert u == pytest.approx(-0.5, abs=1e-15)


@st.composite
def branch_polys(draw):
    """(g, critical points, their floats, branch j): an integer g of degree
    1-7 and one of the branches its critical points cut the line into."""
    deg = draw(st.integers(1, 7))
    coeffs = [draw(st.integers(-9, 9)) for _ in range(deg)]
    coeffs.append(draw(st.integers(1, 9)) * draw(st.sampled_from((-1, 1))))
    g = UniPoly(coeffs)
    points = critical_data(g).points
    crits = [c.to_float() for c in points]
    return g, points, crits, draw(st.integers(0, len(crits)))


def point_on_branch(crits: list[float], j: int, s: float) -> float:
    """The point a fraction s into the j-th branch, or 8 s past the critical
    end of an unbounded branch (16 s - 8 when g has no critical point)."""
    p = len(crits)
    if p == 0:
        return 16 * s - 8
    if j == 0:
        return crits[0] - 8 * s
    if j == p:
        return crits[-1] + 8 * s
    return crits[j - 1] + s * (crits[j] - crits[j - 1])


@st.composite
def branch_inversions(draw):
    """(g, critical points, their floats, branch j, y): y = g(u0) rounded to
    a float, for a float u0 inside the j-th branch."""
    g, points, crits, j = draw(branch_polys())
    u0 = point_on_branch(crits, j, draw(st.integers(1, 63)) / 64)
    return g, points, crits, j, float(g(F(u0)))


def assert_solves(g: UniPoly, crits: list[float], j: int, y: float, u: float) -> None:
    """u is in the j-th branch, and g - y changes sign within the stopping
    width of u (clipped to the branch, past whose ends g turns), or g(u) is
    y up to Horner's rounding bound gamma_2n * sum |c_i| |u|^i; exact."""
    lo = crits[j - 1] if j >= 1 else float("-inf")
    hi = crits[j] if j < len(crits) else float("inf")
    assert lo <= u <= hi
    w = 2e-15 * max(1.0, abs(u))
    U, Y = F(u), F(y)
    a, b = F(max(u - w, lo)), F(min(u + w, hi))
    changes_sign = (g(a) - Y) * (g(b) - Y) <= 0
    unit = F(1, 2**53)
    gamma = 2 * g.degree * unit / (1 - 2 * g.degree * unit)
    bound = gamma * sum(abs(c) * abs(U) ** i for i, c in enumerate(g.coeffs))
    assert changes_sign or abs(g(U) - Y) <= bound, (g, crits, j, y, u)


class TestInvertOnBranchProperty:
    """One value inverted by scalar eval_float: a run with no carry."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(branch_inversions())
    def test_solves_within_the_stopping_width_or_rounding(self, case):
        g, points, crits, j, y = case
        assert_solves(g, crits, j, y, branch_inverse(g, points, j).eval_float(y))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(branch_inversions())
    def test_every_bit_is_the_reference(self, case):
        g, points, crits, j, y = case
        assert branch_inverse(g, points, j).eval_float(y) == ref_branch_inversions(g, crits, j, [y])[0]


@st.composite
def branch_batches(draw):
    """(g, critical point floats, branch j, values): values of g on its j-th
    branch, in drawn order with repeats, with the values at the branch's
    critical ends and a few ulps either side of them."""
    g, points, crits, j = draw(branch_polys())
    fracs = draw(st.lists(st.integers(0, 64), min_size=1, max_size=16))
    ys = [float(g(F(point_on_branch(crits, j, s / 64)))) for s in fracs]
    ends = [crits[k] for k in (j - 1, j) if 0 <= k < len(crits)]
    for c in ends if draw(st.booleans()) else []:
        y = float(g(F(c)))
        ys += [y, math.nextafter(y, math.inf), math.nextafter(math.nextafter(y, -math.inf), -math.inf)]
    return g, points, crits, j, draw(st.permutations(ys))


class TestBatchInversionProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(branch_batches())
    def test_every_warm_started_preimage_solves(self, case):
        g, points, crits, j, ys = case
        us = branch_inverse(g, points, j).eval_floats(ys)
        assert len(us) == len(ys)
        for y, u in zip(ys, us):
            assert_solves(g, crits, j, y, u)


@st.composite
def lucky_landings(draw):
    """(g, critical points, their floats, branch j, values): g's value at a
    point x0 of its j-th branch, and its values at and 2e-6 past a point
    near r, where r is a point of the branch past x0 that Newton's step
    from x0 reaches exactly (g(r) = g(x0) + g'(x0) (r - x0); g(-t) in place
    of g when r is below x0).  The step from x0 lands within rounding of the
    second value's preimage, so its length says nothing of how fast Newton
    contracts there."""
    coeffs = [draw(st.integers(-9, 9)) for _ in range(draw(st.integers(3, 7)))]
    g = UniPoly([*coeffs, draw(st.integers(1, 9)) * draw(st.sampled_from((-1, 1)))])
    points = critical_data(g).points
    crits = [c.to_float() for c in points]
    j = draw(st.integers(0, len(crits)))
    x0 = F(point_on_branch(crits, j, draw(st.integers(1, 63)) / 64))
    d0 = g.derivative()(x0)
    ends = [-math.inf, *crits, math.inf]
    rs = [r.to_float() for r in isolate_real_roots(uni_sub(g, UniPoly([g(x0) - d0 * x0, d0])))]
    rs = [r for r in rs if ends[j] < r < ends[j + 1] and r != x0]
    assume(rs)
    r = draw(st.sampled_from(rs))
    if r < x0:
        g, x0, r = UniPoly([c * (-1) ** i for i, c in enumerate(g.coeffs)]), -x0, -r
        points = critical_data(g).points
        crits, j = [c.to_float() for c in points], len(points) - j
        ends = [-math.inf, *crits, math.inf]
    u = r + draw(st.sampled_from((0.0, 1e-13, -1e-10, 1e-8, -3e-6, 1e-4))) * max(1.0, abs(r))
    v = u + 2e-6 * max(1.0, abs(u))
    assume(ends[j] < u and v < ends[j + 1])
    return g, points, crits, j, [float(g(x0)), float(g(F(u))), float(g(F(v)))]


class TestLuckyLandingProperty:
    # most drawn branches hold no such r, so most draws are filtered out
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(lucky_landings())
    def test_every_preimage_solves(self, case):
        g, points, crits, j, ys = case
        for y, u in zip(ys, branch_inverse(g, points, j).eval_floats(ys)):
            assert_solves(g, crits, j, y, u)


class TestBatchInversionIsTheReference:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(branch_batches())
    def test_every_bit_is_the_reference(self, case):
        g, points, crits, j, ys = case
        assert branch_inverse(g, points, j).eval_floats(ys) == ref_branch_inversions(g, crits, j, ys)

    def test_pinned_batch_landing_near_the_root_by_luck(self):
        # the first value is solved at -0.5; Newton's step from there to the
        # second value's root lands within 2.6e-6 of it, at 1.0000046, so no
        # stop may rest on how short a step was: K read at both ends, with
        # g'' = -3 and 6 over 2g' = 8, keeps Newton going
        g = UniPoly([0, 1, 0, 1])
        ys = [-0.625, float(g(F(1000002, 1000000)))]
        points = d2_points(g, lambda: branch_inverse(g, [], 0).eval_floats(ys))
        assert abs(points[points.index(-0.5) + 1] - 1.000002) <= 2.6e-6
        us = branch_inverse(g, [], 0).eval_floats(ys)
        assert us == ref_branch_inversions(g, [], 0, ys)
        for y, u in zip(ys, us):
            assert_solves(g, [], 0, y, u)

    def test_pinned_batch_stepping_across_the_inflection(self):
        # from -1, Newton's step to 6's preimage (about 1.63) reaches 1,
        # where g' is 4 again, so g' over the step shows no curvature; g''
        # read at each end, -6 at -1, does
        g, ys = UniPoly([0, 1, 0, 1]), [-2.0, 6.0]
        points = d2_points(g, lambda: branch_inverse(g, [], 0).eval_floats(ys))
        assert points[points.index(-1.0) + 1] == 1.0
        us = branch_inverse(g, [], 0).eval_floats(ys)
        assert us == ref_branch_inversions(g, [], 0, ys)
        for y, u in zip(ys, us):
            assert_solves(g, [], 0, y, u)

    def test_pinned_batch_landing_on_the_inflection(self):
        # g = t^3 + at has g'' = 0 at its inflection 0, where the second-order
        # step from the last value's point can land: K read there alone would
        # end the search at once.  On t^3 + t the step from -1 towards the
        # preimage of 2/3 (0.523) lands within 6e-17 of 0, and Newton's next
        # step fails the halving test.  On t^3 + 10t the step from
        # -1.0000000034 lands within 2e-16 of 0, Newton's next step (-0.0107)
        # passes it, and only g'' = -6 at the step's other end keeps the
        # search going: one end alone returns a point 1.2e-7 from the root
        for g, ys, start, landing in (
            (UniPoly([0, 1, 0, 1]), [-2.0, 0.6666666666666664], -1.0, 6e-17),
            (UniPoly([0, 10, 0, 1]), [-11.0, -0.106527847152497], -1.000000003402027, 2e-16),
        ):
            points = d2_points(g, lambda: branch_inverse(g, [], 0).eval_floats(ys))
            assert abs(points[points.index(start) + 1]) <= landing
            us = branch_inverse(g, [], 0).eval_floats(ys)
            assert us == ref_branch_inversions(g, [], 0, ys)
            for y, u in zip(ys, us):
                assert_solves(g, [], 0, y, u)

    def test_pinned_batch_leaving_a_bounded_branch(self):
        # g = t^3 - 3t falls on (-1, 1); the first value's preimage sits near
        # -1, where g' is small, so the step towards 0 leaves the branch and
        # the second value bisects its bracket (the last point, 1) in place
        g, j, ys = UniPoly([0, -3, 0, 1]), 1, [1.9999, 0.0]
        points = critical_data(g).points
        crits = [c.to_float() for c in points]
        m = branch_inverse(g, points, j)
        first = d2_points(g, lambda: branch_inverse(g, points, j).eval_floats(ys[:1]))
        both = d2_points(g, lambda: m.eval_floats(ys))
        assert both[: len(first)] == first and both[len(first)] == 0.5 * (first[-1] + 1.0)
        us = m.eval_floats(ys)
        assert us == ref_branch_inversions(g, crits, j, ys)
        for y, u in zip(ys, us):
            assert_solves(g, crits, j, y, u)


class TestBatchInversionCarriesTheLastEvaluatedPoint:
    """Each value of a batch steps from the last point its branch evaluated
    g, g' and g'' at, not from the preimage returned before it, which the
    stop rule leaves unevaluated: no pass takes g where the pass before it
    did, and nothing restarts cold."""

    @staticmethod
    def passes(m: BranchMap, ts) -> tuple[int, int]:
        """(points evaluated twice in a row, Horner passes over g)."""
        polys = {id(branch[1]) for branch in (m._flt or m._floats())[1]}
        seen, count = [], [0]
        reals = {name: getattr(UniPoly, name) for name in ("eval_float", "eval_float_d2")}

        def hook(name):
            def recording(p, x):
                if id(p) in polys:
                    count[0] += 1
                    if name == "eval_float_d2":
                        seen.append(x)
                return reals[name](p, x)

            return recording

        with pytest.MonkeyPatch.context() as mp:
            for name in reals:
                mp.setattr(UniPoly, name, hook(name))
            m.eval_floats(ts)
        return sum(a == b for a, b in zip(seen, seen[1:])), count[0]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(branch_batches())
    def test_drawn_batches(self, case):
        g, points, _, j, ys = case
        assert self.passes(branch_inverse(g, points, j), ys)[0] == 0

    def test_certificate_batches(self):
        # heights with no critical point: one branch, every value after the
        # first is stepped to from the carry, and about one pass inverts each
        rng = random.Random(5)
        ts = [rng.uniform(-2.0, 2.0) for _ in range(2000)]
        for m in negative_pair_maps():
            repeats, passes = self.passes(m, ts)
            assert repeats == 0 and passes <= 1.25 * len(ts)


def negative_pair_maps() -> list:
    """phi1 of the certificates of three negative-parameter pairs of the
    paper's family, whose heights have no critical point."""
    return [decide(hp(a), hp(b)).certificate.zygothety.phi1 for a, b in ((-1, -2), (-3, F(-1, 2)), (F(-5, 4), -2))]


class TestEvalFloatsProperty:
    @pytest.fixture(scope="class")
    def maps(self):
        inner = negative_pair_maps()
        assert all(isinstance(m, BranchMap) for m in inner)
        return [w for m in inner for w in (m, Neg(m), NegConj(m))]

    def test_empty_batch(self, maps):
        for m in maps:
            assert m.eval_floats([]) == []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ts=st.lists(st.integers(-4000, 4000).map(lambda k: k / 1000), max_size=40))
    def test_batch_is_the_scalar_map(self, maps, ts):
        ts = ts + ts[: len(ts) // 3]
        for m in maps:
            got = m.eval_floats(ts)
            assert got == pytest.approx([m.eval_float(t) for t in ts], rel=1e-12, abs=1e-12)


class TestClosureProperty:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        st.tuples(
            st.fractions(min_value=F(-5), max_value=F(-1, 5), max_denominator=6),
            st.fractions(min_value=F(-5), max_value=F(-1, 5), max_denominator=6),
        )
    )
    def test_compose_with_inverse_is_regular_and_fixes_points(self, params):
        v = decide(hp(params[0]), hp(params[1]))
        assert v.kind == VerdictKind.EQUIVALENT
        z = v.certificate.zygothety
        w = compose(z, inverse(z))
        assert is_beta_regular(w, 2, 1) and is_beta_regular(compose(inverse(z), z), 2, 1)
        ts = [k / 8 for k in range(-40, 41, 3)]
        for phi in (w.phi1, w.phi2):
            for got in ([phi.eval_float(t) for t in ts], phi.eval_floats(ts)):
                assert got == pytest.approx(ts, rel=1e-9, abs=1e-9)


def map_nodes(m) -> list:
    """m and every map inside it."""
    inner = [m.outer, m.inner] if isinstance(m, Compose) else [m.inner] if isinstance(m, (Neg, NegConj)) else []
    return [m, *(n for sub in inner for n in map_nodes(sub))]


class TestFloatPathsProperty:
    """On the certificates decide builds for F against F(aX, bY), their
    inverses and products: one float path per map, and the group laws."""

    @few_pairs
    @given(scaled_pair_certificates(), scaled_pair_certificates())
    def test_float_paths_and_group_laws(self, first, second):
        z, y = first[1].zygothety, second[1].zygothety
        zi = inverse(z)
        products = [compose(z, zi), compose(zi, z)]
        maps = [n for w in (z, zi, y, *products, compose(y, identity())) for m in (w.phi1, w.phi2) for n in map_nodes(m)]
        maps += [Neg(z.phi1), NegConj(z.phi2)]
        assert {type(m) for m in maps} == {Affine, BranchMap, Compose, Neg, NegConj}
        # a t within 1e-3 of a critical point (or its mirror) meets an inversion
        # at a critical value, which takes about half the float digits
        crits = [abs(x.to_float()) for m in maps if isinstance(m, BranchMap) for x in (*m.crits_f, *m.crits_g)]
        ts = [k / 8 for k in range(-24, 25) if all(abs(abs(k / 8) - c) > 1e-3 for c in crits)]
        for m in maps:
            assert [m.eval_float(t).hex() for t in ts] == [m.eval_floats([t])[0].hex() for t in ts]
            if isinstance(m, Compose):
                assert m.eval_floats(ts) == m.outer.eval_floats(m.inner.eval_floats(ts))
        for w in products:
            assert compare(w.lam1, ra(1)) == 0 and compare(w.lam2, ra(1)) == 0
            for phi in (w.phi1, w.phi2):
                assert phi.eval_floats(ts) == pytest.approx(ts, rel=1e-9, abs=1e-9)
        # one chain of batches either way: the same bits
        left, right = compose(compose(z, y), zi), compose(z, compose(y, zi))
        assert compare(left.lam1, right.lam1) == 0 and compare(left.lam2, right.lam2) == 0
        for a, b in ((left.phi1, right.phi1), (left.phi2, right.phi2)):
            assert a.eval_floats(ts) == b.eval_floats(ts)


class TestInversionIsHistoryFree:
    """Each branch keeps the ladder of each pushed end and g, g', g'' at its
    runs' first midpoints (BranchMap._floats): a map evaluates the same bits
    fresh, after a batch that extended its ladders, in any order, and shared
    by two threads, each the reference's."""

    @staticmethod
    def maps() -> list:
        """Fresh maps: branch inverses of g with bounded and unbounded
        branches (the pushed-end root case's g among them), identities, the
        certificates' maps with no critical point, and seeded affine
        conjugates c f(a t + b) with one or two critical points."""
        rng = random.Random(20240904)
        out = [copied(m) for m in negative_pair_maps()]
        for g in (UniPoly([-4, 9, -8, 8, -3]), UniPoly([1, -3, 0, 1]), UniPoly([0, 1])):
            points = critical_data(g).points
            out += [branch_inverse(g, points, j) for j in range(len(points) + 1)] + [branch_identity(g)]
        while len(out) < 24:
            f = UniPoly([rng.randint(-5, 5) for _ in range(rng.randint(3, 5))] + [rng.choice((-2, -1, 1, 3))])
            if not critical_data(f).points:
                continue
            a, b, c = rand_nonzero_rational(rng), F(rng.randint(-3, 3), 2), rand_nonzero_rational(rng)
            g = affine_conjugate(f, a, b, c)
            out.append(BranchMap(ra(c), a > 0, f, g, critical_data(f).points, critical_data(g).points))
        return out

    @staticmethod
    def points(rng: random.Random) -> list[float]:
        ts = [rng.uniform(-4.0, 4.0) for _ in range(24)] + [rng.uniform(-60.0, 60.0) for _ in range(6)]
        return ts + [-344.55325678723835, 0.0, -0.0, 1e-300]  # the pushed-end root case among them

    @staticmethod
    def reference(m, ts) -> list[str]:
        """ref_batch_eval_floats for one value each; NaN where the reference
        evaluated no point (its None, for a bracket with no midpoint)."""
        return [bits(math.nan if u is None else u) for t in ts for u in ref_batch_eval_floats(m, [t])]

    def test_fresh_warmed_and_shuffled_maps_are_the_reference(self):
        rng = random.Random(20251017)
        for m in self.maps():
            ts = self.points(rng)
            want = self.reference(m, ts)
            assert [bits(copied(m).eval_float(t)) for t in ts] == want  # each point on a fresh map
            warmed = copied(m)
            warm = [1e6, -1e6, 1e3, -1e3, 2.5]
            assert warmed.eval_floats(warm) == ref_batch_eval_floats(m, warm)
            assert [bits(warmed.eval_float(t)) for t in ts] == want
            order = list(range(len(ts)))
            rng.shuffle(order)
            got = {k: bits(m.eval_float(ts[k])) for k in order}
            assert [got[k] for k in range(len(ts))] == want
            assert [bits(u) for u in m.eval_floats(ts)] == [bits(u) for u in ref_batch_eval_floats(m, ts)]

    def test_a_ladder_that_reaches_infinity(self):
        # on g = t every point down to -2^1023 has g above -max, and the next
        # step would leave the float range: the walk's last point is the edge
        # -max, where g is -max, so every value inverts to itself, fresh or
        # not, and the values after it read the ladder that ends there
        g, top = UniPoly([0, 1]), 1.7976931348623157e308
        m = branch_inverse(g, [], 0)
        edge = [2.0**1023, 9e307, 1.5e308, top]
        ys = [-top, top, -3.0, 5e307, -2.5, *edge, *(-y for y in edge)]
        fresh = [bits(branch_inverse(g, [], 0).eval_float(y)) for y in ys]
        assert fresh == [bits(m.eval_float(y)) for y in ys] == self.reference(m, ys) == [bits(y) for y in ys]
        memo = m._flt[1][0][-1]
        assert memo[-math.inf][0][-1] == (-top, -top) and memo[math.inf][0][-1] == (top, top)
        assert [bits(u) for u in m.eval_floats(ys)] == [bits(u) for u in ref_batch_eval_floats(m, ys)]

    def test_a_value_past_g_at_the_float_edge_has_no_preimage(self):
        # on g = t/2, g at the edge is max/2: that value inverts to the edge,
        # and one past it has no finite preimage
        g, top = UniPoly([0, F(1, 2)]), 1.7976931348623157e308
        ys = [top / 2, -top / 2, 1e308, -1e308, top, 3.0]
        want = [bits(u) for u in (top, -top, math.nan, math.nan, math.nan, 6.0)]
        assert [bits(branch_inverse(g, [], 0).eval_float(y)) for y in ys] == want
        m = branch_inverse(g, [], 0)
        assert self.reference(m, ys) == want
        assert [bits(u) for u in m.eval_floats(ys)] == [bits(u) for u in ref_batch_eval_floats(m, ys)] == want

    def test_threads_share_one_map(self):
        # more threads than most machines' cores, switching every microsecond,
        # each in its own shuffled order over fresh shared maps: an entry two
        # threads compute is computed to the same bits, and a ladder one
        # thread rebinds shorter is still a prefix of the walk
        rng = random.Random(7)
        maps = self.maps()
        cases = [(m, self.points(rng)) for m in maps]
        wants = [self.reference(m, ts) for m, ts in cases]
        shared, results = [copied(m) for m in maps], {}
        barrier = threading.Barrier(4, timeout=60)

        def run(slot: int) -> None:
            order = random.Random(slot)
            barrier.wait()
            out = []
            for m, (_, ts) in zip(shared, cases):
                ks = list(range(len(ts)))
                order.shuffle(ks)
                got = {k: bits(m.eval_float(ts[k])) for k in ks}
                out.append([got[k] for k in range(len(ts))])
            results[slot] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(slot) for slot in range(4)] == [wants] * 4

    def test_caches_are_bounded(self):
        # a batch at |t| = 1e200: each ladder holds at most the doublings of
        # the float range, and each branch one midpoint per run it made
        ts = [s * 10.0**k for k in (0, 3, 6, 50, 100, 200) for s in (1.0, -1.0)]
        for m in self.maps():
            m.eval_floats(ts)
            for branch in m._flt[1]:
                memo = branch[-1]
                assert all(len(memo[key][0]) <= 1025 for key in (-math.inf, math.inf) if key in memo)
                assert sum(math.isfinite(key) for key in memo) <= 1
