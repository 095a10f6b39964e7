import copy
import importlib.util
import json
import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from qhlip import cli, witness
from qhlip.cli import main
from qhlip.parser import parse_bi
from qhlip.lipclass import Orientation
from qhlip.polyalg import BiPoly, UniPoly
from qhlip.qhdecide import decide, heights, pairing_search, validate_qh
from qhlip.realalg import RealAlg
from qhlip.jsonio import report_json
from qhlip.witness import (
    LIPSCHITZ_SAMPLES,
    LIPSCHITZ_SEED,
    T_COUNT,
    T_WINDOW,
    X_MIN,
    InverseBetaTransform,
    verify,
    verify_asymptotic,
    verify_conjugacy,
    verify_lipschitz,
)
from qhlip.zygothety import Affine, BranchMap, Neg, NegConj, Zygothety, identity, inverse, make_regular

from helpers import (
    rand_qhpoly,
    ref_batch_map_floats,
    ref_batch_verify_lipschitz,
    ref_conjugacy_rows,
    ref_verify_asymptotic,
    ref_verify_conjugacy,
    ref_verify_lipschitz,
    strict_json,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def ra(x):
    return RealAlg.from_rational(x)


def hp(lam):
    return validate_qh(BiPoly({(6, 0): 1, (4, 1): -3 * F(lam), (0, 3): 1}), 2, 1)


def scaling_transform() -> InverseBetaTransform:
    z = Zygothety(ra(2), ra(2), Affine(F(1), F(0)), Affine(F(1), F(0)))
    return InverseBetaTransform(z, 2, 1)


class TestEvalTransform:
    def test_identity(self):
        T = InverseBetaTransform(identity(), 2, 1)
        assert T.eval((0.3, -0.5)) == pytest.approx((0.3, -0.5), abs=1e-14)
        assert T.eval((0.0, 0.7)) == pytest.approx((0.0, 0.7), abs=1e-14)

    def test_pure_scaling(self):
        T = scaling_transform()
        assert T.eval((1.0, 3.0)) == (2.0, 12.0)
        assert T.eval((0.0, 5.0)) == (0.0, 20.0)
        # x < 0 goes through the second map with |x|^beta
        px, py = T.eval((-1.0, 3.0))
        assert (px, py) == (-2.0, 12.0)

    def test_halfplane_preservation(self):
        T = scaling_transform()
        rng = random.Random(7)
        for _ in range(50):
            x = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            px, _ = T.eval((x, y))
            assert px == 0 if x == 0 else px * x > 0

    def test_negative_scale_flips_halfplanes(self):
        z = Zygothety(ra(-1), ra(-1), Affine(F(1), F(0)), Affine(F(1), F(0)))
        T = InverseBetaTransform(z, 2, 1)
        px, _ = T.eval((0.5, 0.25))
        assert px == -0.5

    def test_homogeneity_consistency(self):
        v = decide(hp(-1), hp(-2))
        T = InverseBetaTransform(v.certificate.zygothety, 2, 1)
        rng = random.Random(8)
        beta = 2.0
        for _ in range(40):
            x = rng.uniform(0.05, 1.0) * rng.choice([-1.0, 1.0])
            y = rng.uniform(-2.0, 2.0) * abs(x) ** beta
            tau = rng.uniform(0.3, 1.7)
            p1 = T.eval((tau * x, tau**beta * y))
            p0 = T.eval((x, y))
            assert p1[0] == pytest.approx(tau * p0[0], rel=1e-9, abs=1e-12)
            assert p1[1] == pytest.approx(tau**beta * p0[1], rel=1e-9, abs=1e-12)

    def test_round_trip_with_inverse(self):
        v = decide(hp(-1), hp(-2))
        z = v.certificate.zygothety
        T = InverseBetaTransform(z, 2, 1)
        Ti = InverseBetaTransform(inverse(z), 2, 1)
        rng = random.Random(9)
        for _ in range(60):
            x = rng.uniform(-1.0, 1.0)
            if abs(x) < 1e-3:
                continue
            y = rng.uniform(-2.0, 2.0) * abs(x) ** 2
            q = Ti.eval(T.eval((x, y)))
            assert q[0] == pytest.approx(x, rel=1e-8, abs=1e-8)
            assert q[1] == pytest.approx(y, rel=1e-8, abs=1e-8)

    def test_requires_regular_zygothety(self):
        bad = Zygothety(ra(1), ra(2), Affine(F(1), F(0)), Affine(F(1), F(0)))
        with pytest.raises(ValueError):
            InverseBetaTransform(bad, 2, 1)
        with pytest.raises(ValueError):
            verify(hp(-1), hp(-1), bad, 4000, 1.0, 1e-8)


class TestVerifyConjugacy:
    def test_identity_certificate(self):
        q = hp(1)
        v = decide(q, q)
        T = InverseBetaTransform(v.certificate.zygothety, 2, 1)
        residual, samples = verify_conjugacy(q, q, T, 50, 1.0)
        assert residual <= 1e-12
        assert samples == 2 * 50 * T_COUNT + T_COUNT

    def test_hp_negative_pair(self):
        a, b = hp(-1), hp(-2)
        v = decide(a, b)
        T = InverseBetaTransform(v.certificate.zygothety, 2, 1)
        residual, _ = verify_conjugacy(a, b, T, 50, 1.0)
        assert residual <= 1e-8

    def test_corrupted_scale_is_detected(self):
        a, b = hp(-1), hp(-2)
        v = decide(a, b)
        T = InverseBetaTransform(v.certificate.zygothety, 2, 1)
        T.lam1 *= 1.01
        residual, _ = verify_conjugacy(a, b, T, 50, 1.0)
        assert residual > 1e-3


class TestVerify:
    def test_report_json_of_verify(self, capsys):
        a, b = hp(-1), hp(-2)
        z = decide(a, b).certificate.zygothety
        rep = verify(a, b, z, 4000, 1.0, 1e-8)
        out = report_json(rep)
        assert list(out) == [
            "max_rel_residual",
            "tol",
            "conjugacy_pass",
            "lipschitz_ratio_min",
            "lipschitz_ratio_max",
            "asymptotic",
            "samples",
            "delta",
        ]
        assert list(out["asymptotic"]) == ["lambda_est", "k_est", "alpha_tail_max", "shell_1e4", "shell_1e6"]
        assert out["conjugacy_pass"] is True
        assert out["conjugacy_pass"] == (rep.max_rel_residual <= rep.tol)
        assert 0 < rep.max_rel_residual
        assert not rep._replace(tol=rep.max_rel_residual / 2).conjugacy_pass
        # 4000 samples give x_count = ceil((4000 - T_COUNT) / (2 * T_COUNT)) = 20
        assert out["samples"] == 2 * 20 * T_COUNT + T_COUNT
        assert out["delta"] == 1.0 and out["tol"] == 1e-8
        # the CLI renders exactly this report
        code = main(["witness", str(a.poly), str(b.poly), "--beta", "2/1", "--samples", "4000"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["report"] == out

    def test_small_sample_counts_keep_one_x(self):
        a, b = hp(-1), hp(-2)
        rep = verify(a, b, decide(a, b).certificate.zygothety, 1, 0.5, 1e-8)
        assert rep.samples == 3 * T_COUNT and rep.delta == 0.5

    @pytest.mark.parametrize("asked", [1, 300, 301, 10000, 10101])
    def test_grid_is_the_smallest_holding_the_asked_count(self, asked):
        a, b = hp(-1), hp(-2)
        got = verify(a, b, decide(a, b).certificate.zygothety, asked, 1.0, 1e-8).samples
        # the grid holds (2 * x_count + 1) * T_COUNT points
        x_count, rest = divmod(got - T_COUNT, 2 * T_COUNT)
        assert rest == 0 and got >= asked
        assert x_count == 1 or got - 2 * T_COUNT < asked


class TestVerifyLipschitz:
    def test_identity_ratios(self):
        T = InverseBetaTransform(identity(), 2, 1)
        rmin, rmax = verify_lipschitz(T, 1.0)
        assert rmin == pytest.approx(1.0, abs=1e-9)
        assert rmax == pytest.approx(1.0, abs=1e-9)

    def test_pure_scaling_envelope(self):
        # (x, y) -> (2x, 4y): singular values 2 and 4
        rmin, rmax = verify_lipschitz(scaling_transform(), 1.0)
        assert 1.8 <= rmin <= 2.3
        assert 3.5 <= rmax <= 4.2

    def test_certificate_transform_bounded(self):
        v = decide(hp(-1), hp(-3))
        T = InverseBetaTransform(v.certificate.zygothety, 2, 1)
        rmin, rmax = verify_lipschitz(T, 1.0)
        assert 0 < rmin <= rmax < float("inf")


class TestVerifyAsymptotic:
    def test_affine(self):
        lam, k, tail, _, _ = verify_asymptotic(Affine(F(3), F(7)))
        assert lam == 3.0
        assert k == pytest.approx(7.0, abs=1e-9)
        assert tail <= 1e-6

    def test_identity_branch(self):
        f = UniPoly([1, -3, 0, 1])
        from qhlip.lipclass import critical_data

        crits = critical_data(f).points
        m = BranchMap(ra(1), True, f, f, crits, crits)
        lam, k, tail, _, _ = verify_asymptotic(m)
        assert lam == 1.0
        assert k == pytest.approx(0.0, abs=1e-6)
        assert tail <= 1e-5

    def test_scaled_cubic(self):
        m = BranchMap(ra(8), True, UniPoly([1, 3, 0, 1]), UniPoly([1, 6, 0, 1]), (), ())
        lam, k, tail, shell4, shell6 = verify_asymptotic(m)
        assert lam == 2.0  # exact eighth root of 8 cubed
        assert math.isfinite(k)
        assert shell6 <= shell4 / 10 or shell6 <= 1e-6

    def test_shell_decay_on_certificates(self):
        for pair in ((hp(-1), hp(-2)), (hp(2), hp(2))):
            v = decide(*pair)
            for m in (v.certificate.zygothety.phi1, v.certificate.zygothety.phi2):
                shell4, shell6 = verify_asymptotic(m)[3:]
                assert shell6 <= shell4 / 10 or shell6 <= 1e-6

    def test_one_batch_per_map(self, monkeypatch):
        m = decide(hp(-1), hp(-2)).certificate.zygothety.phi1
        batches, real = [], BranchMap.eval_floats
        monkeypatch.setattr(BranchMap, "eval_floats", lambda m, ts: batches.append(len(ts)) or real(m, ts))
        monkeypatch.setattr(BranchMap, "eval_float", None)  # no scalar call
        verify_asymptotic(m)
        assert batches == [64]

    @pytest.mark.parametrize(
        "F,G,t",
        [
            # c f(t) overflows at |t| = 1.5e6 alone, and shell_1e6 once read Infinity; the
            # overflowed values once made their whole run NaN, so the message named 1e6
            ("Y^50 + X^75", "2*Y^50 + X^75", "1500000.0"),
            # f(t) overflows at |t| = 1e6, and k_est once read NaN
            ("Y^52 + X^78", "2*Y^52 + X^78", "1000000.0"),
        ],
        ids=["shell", "offset"],
    )
    def test_non_finite_shape_is_input_too_large(self, F, G, t, capsys):
        assert main(["witness", F, G, "--beta", "3/2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "input_too_large"
        assert re.fullmatch(rf"the asymptotic check reached (nan|inf) at \|t\| = {re.escape(t)}", error["message"]), error


class TestReverseOrientationWitness:
    def test_y_reflection_verifies(self):
        # G(X, Y) = F(X, -Y): heights are reflected, so the certificate
        # must drive decreasing branch maps
        a = hp(1)
        b = validate_qh(a.poly.scale_vars(F(1), F(-1)), 2, 1)
        v = decide(a, b)
        assert v.kind == "equivalent"
        T = InverseBetaTransform(v.certificate.zygothety, 2, 1)
        residual, _ = verify_conjugacy(a, b, T, 50, 1.0)
        assert residual <= 1e-8, residual


class TestRandomWitnesses:
    def test_oracle_certificates_verify(self):
        rng = random.Random(500)
        done = 0
        while done < 8:
            q = rand_qhpoly(rng)
            g = validate_qh(
                q.poly.scale_vars(
                    F(rng.randint(1, 3), rng.randint(1, 2)),
                    F(rng.choice([-2, -1, 1, 2, 3])),
                ),
                q.r,
                q.s,
            )
            v = decide(q, g)
            if v.kind != "equivalent":
                continue
            T = InverseBetaTransform(v.certificate.zygothety, q.r, q.s)
            residual, _ = verify_conjugacy(q, g, T, 20, 1.0)
            assert residual <= 1e-8, (q, g, residual)
            done += 1


class TestBranchInversionAtCriticalEnd:
    def test_witness_past_extremum_reproducer(self, capsys):
        # an evaluation point lands a rounding error past the extremum at the
        # finite end of an unbounded branch; this used to raise OverflowError
        code = main(
            [
                "witness",
                "X^10 + 3*X^4*Y^2 + X*Y^3",
                "(1024/59049)*X^10 + (16/27)*X^4*Y^2 - (2/3)*X*Y^3",
                "--beta",
                "3/1",
            ]
        )
        report = json.loads(capsys.readouterr().out)["report"]
        assert code == 0
        assert report["conjugacy_pass"]
        assert report["max_rel_residual"] < 1e-12


def hpwitness_pairs(n: int) -> list[tuple]:
    """The first n pairs of the benchmark's hpwitness workload (seed 20240904)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = gen.stream("hpwitness", 20240904)
    return [tuple(validate_qh(parse_bi(text), 2, 1) for text in gen.hpwitness_case(rng)) for _ in range(n)]


def reference_pairs() -> list[tuple]:
    """The equivalent pairs this file verifies, and six hpwitness pairs."""
    a = hp(1)
    pairs = [(hp(-1), hp(-2)), (hp(-1), hp(-3)), (a, a), (a, validate_qh(a.poly.scale_vars(F(1), F(-1)), 2, 1))]
    return pairs + hpwitness_pairs(6)


class TestAgainstReferenceLoops:
    """verify_conjugacy and verify_lipschitz against the point-by-point loops
    in tests/helpers.py: the hoisted constants keep every residual bit, and
    the batch inversion moves the ratios by rounding only."""

    @pytest.fixture(scope="class")
    def transforms(self):
        out = []
        for a, b in reference_pairs():
            v = decide(a, b)
            assert v.kind == "equivalent"
            out.append((a, b, InverseBetaTransform(v.certificate.zygothety, 2, 1)))
        return out

    def test_residual_is_the_reference_residual(self, transforms):
        for a, b, T in transforms:
            assert verify_conjugacy(a, b, T, 20, 1.0)[0] == ref_verify_conjugacy(a, b, T, 20, 1.0)

    def test_ratios_match_the_reference_ratios(self, transforms):
        for _, _, T in transforms:
            for got, want in zip(verify_lipschitz(T, 1.0), ref_verify_lipschitz(T, 1.0)):
                assert got == pytest.approx(want, rel=1e-12, abs=0)


def odd_r_transforms() -> list[InverseBetaTransform]:
    """Two certificates with r odd, so that phi2 is not phi1: decide's on
    F(-2X, Y) at beta = 3, whose phi2 is NegConj(phi1), and make_regular's on
    the crossed orientations of a pair at beta = 3/2, whose phi2 is a Neg."""
    a = validate_qh(parse_bi("-X^6 + X^3*Y + Y^2"), 3, 1)
    b = validate_qh(a.poly.scale_vars(F(-2), F(1)), 3, 1)
    out = [InverseBetaTransform(decide(a, b).certificate.zygothety, 3, 1)]
    a, b = (validate_qh(parse_bi(t), 3, 2) for t in ("X^6 + Y^4", "2*X^6 + 3*Y^4"))
    option = next(
        o
        for o in pairing_search(a, b).options
        if o.plus.orientation is Orientation.INCREASING and o.minus.orientation is Orientation.DECREASING
    )
    return out + [InverseBetaTransform(make_regular(option, a), 3, 2)]


class TestBatchLoopsAreTheReference:
    """verify_lipschitz and BranchMap.eval_floats against the plainer loops
    they were tightened from (ref_batch_* in tests/helpers.py): every ratio
    and every preimage keeps its bits, at the default strip and narrow ones."""

    @pytest.fixture(scope="class")
    def transforms(self):
        out = [InverseBetaTransform(decide(a, b).certificate.zygothety, 2, 1) for a, b in reference_pairs()]
        # the SuffA pair of tests/golden/witness_suffa_branch.json: heights with critical points
        a, b = (validate_qh(parse_bi(t), 2, 1) for t in ("X^4-3*X^2*Y+Y^2", "16*X^4-12*X^2*Y+Y^2"))
        return out + [InverseBetaTransform(decide(a, b).certificate.zygothety, 2, 1)] + odd_r_transforms()

    def test_the_cases_reach_every_kind_of_map(self, transforms):
        phis = [phi for T in transforms for phi in (T.z.phi1, T.z.phi2)]
        assert any(isinstance(phi, NegConj) for phi in phis) and any(isinstance(phi, Neg) for phi in phis)
        assert any(isinstance(phi, BranchMap) and phi.crits_g for phi in phis)
        assert sum(T.z.phi2 is not T.z.phi1 for T in transforms) == 2

    @pytest.mark.parametrize("delta", [1.0, 1e-3, 1e-13])
    def test_ratios_are_the_reference(self, transforms, delta):
        for T in transforms:
            assert verify_lipschitz(T, delta) == ref_batch_verify_lipschitz(T, delta)

    def test_preimages_are_the_reference(self, transforms):
        ts = [k / 32 for k in range(-96, 97)] + [-1e3, 7.5, 1e3, 0.0, -0.0, 0.5]
        for T in transforms:
            for phi in (T.z.phi1, T.z.phi2):
                assert phi.eval_floats(ts) == ref_batch_map_floats(phi, ts)


@st.composite
def scaled_pairs(draw):
    """(F, F(aX, bY), the inverse beta-transform of an Equivalent verdict's
    certificate): F a random quasihomogeneous polynomial, a and b nonzero
    rationals."""
    Fq = rand_qhpoly(random.Random(draw(st.integers(0, 2**32))))
    nonzero = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
    a, b = (F(draw(nonzero), draw(st.integers(1, 3))) for _ in range(2))
    Gq = validate_qh(Fq.poly.scale_vars(a, b), Fq.r, Fq.s)
    v = decide(Fq, Gq)
    assume(v.kind == "equivalent")
    return Fq, Gq, InverseBetaTransform(v.certificate.zygothety, Fq.r, Fq.s)


def mirrored(F, G, T) -> bool:
    """Whether verify_conjugacy may take its x < 0 rows from its x > 0 rows:
    one phi and one lam on both sides, and F and G even in X."""
    even = all(i % 2 == 0 for P in (F, G) for _, i, _ in P.poly.float_terms())
    return T.z.phi2 is T.z.phi1 and T.lam2 == T.lam1 and even


def both_sides(F, G, T, x_count, delta) -> tuple[float, int]:
    """verify_conjugacy with both sides computed: phi2 is replaced by a copy of
    itself, equal in every bit it gives, so that the shortcut does not apply."""
    z = T.z
    whole = InverseBetaTransform(Zygothety(z.lam1, z.lam2, z.phi1, copy.copy(z.phi2)), F.r, F.s)
    return verify_conjugacy(F, G, whole, x_count, delta)


class TestMirroredSide:
    """verify_conjugacy computes one side when the other repeats it bit for
    bit, and returns what both sides give, with the same count."""

    @staticmethod
    def run(F, G, x_count, delta):
        T = InverseBetaTransform(decide(F, G).certificate.zygothety, F.r, F.s)
        planar, real_row = [], witness._plane_residuals

        def recording_row(F, G, T, x, *rest):
            planar.append(x)
            return real_row(F, G, T, x, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(witness, "_plane_residuals", recording_row)
            got = verify_conjugacy(F, G, T, x_count, delta)
        assert got == both_sides(F, G, T, x_count, delta)
        return T, planar

    @pytest.mark.parametrize("delta", [1.0, 1e-3])
    def test_hp_pair_runs_one_side(self, delta):
        a, b = hp(-1), hp(-2)
        T, planar = self.run(a, b, 5, delta)
        assert mirrored(a, b, T) and all(x > 0.0 for x in planar) and len(planar) == 2

    @pytest.mark.parametrize("delta", [1.0, 1e-3])
    def test_odd_x_exponent_runs_both_sides(self, delta):
        # X*(X^4 + ...) has odd X exponents: F(-x, y) = -F(x, y), so the x < 0 rows differ
        a, b = (validate_qh(parse_bi(t), 2, 1) for t in ("X^5 + X^3*Y + X*Y^2", "X^5 + 2*X^3*Y + 4*X*Y^2"))
        T, planar = self.run(a, b, 5, delta)
        assert T.z.phi2 is T.z.phi1 and T.lam2 == T.lam1 and not mirrored(a, b, T)
        assert sorted(planar) == sorted({-planar[0], -planar[1], planar[0], planar[1]})


class TestConjugacyIsTheReference:
    """The rows between the innermost and the outermost follow from the
    heights, so their residuals, and the maximum, move by rounding only; the
    rows still evaluated in the plane keep the reference's bits."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(scaled_pairs(), st.floats(1e-4, 2.0), st.integers(1, 6))
    def test_plane_rows_and_maximum_match_the_reference(self, pair, delta, x_count):
        a, b, T = pair
        planar, real_row = {}, witness._plane_residuals

        def recording_row(F, G, T, x, *rest):
            errs = real_row(F, G, T, x, *rest)
            planar[x] = max(errs)
            return errs

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(witness, "_plane_residuals", recording_row)
            got = verify_conjugacy(a, b, T, x_count, delta)[0]
        rows = ref_conjugacy_rows(a, b, T, x_count, delta)
        want = max(rows.values())
        assert (got <= 1e-8) == (want <= 1e-8)
        assert abs(got - want) <= 1e-10
        xs = sorted(x for x in rows if x > 0.0)
        # a mirrored pair evaluates the x > 0 side only, whose rows the x < 0 rows repeat
        sides = (1.0,) if mirrored(a, b, T) else (1.0, -1.0)
        assert sorted(planar) == sorted({sgn * x for sgn in sides for x in (xs[0], xs[-1])})
        assert all(planar[x] == rows[x] for x in planar)
        assert len(sides) == 2 or all(rows[-x] == rows[x] for x in xs)


class TestAsymptoticIsTheReference:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(scaled_pairs())
    def test_every_bit_is_the_reference(self, case):
        z = case[2].z
        for m in (z.phi1, z.phi2, inverse(z).phi1, inverse(z).phi2):
            assert [x.hex() for x in verify_asymptotic(m)] == [x.hex() for x in ref_verify_asymptotic(m)]


class TestQuasihomogeneousIdentity:
    """F(x, t |x|^beta) = |x|^d F(sgn x, t), the identity verify_conjugacy's
    inner rows rest on, exactly at x = +-u^s, where |x|^beta = |u|^r."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**32),
        st.fractions(F(-3), F(3), max_denominator=7).filter(bool),
        st.sampled_from((-1, 1)),
        st.fractions(F(-3), F(3), max_denominator=7),
    )
    def test_row_is_the_scaled_height(self, seed, u, sgn, t):
        Fq = rand_qhpoly(random.Random(seed))
        x, ax_b = sgn * abs(u) ** Fq.s, abs(u) ** Fq.r

        def value(x, y):
            return sum(c * x**i * y**j for (i, j), c in Fq.poly.terms.items())

        assert value(x, t * ax_b) == abs(x) ** Fq.d * value(F(sgn), t)
        pair = heights(Fq)
        assert value(F(sgn), t) == (pair.f_plus if sgn > 0 else pair.f_minus)(t)


class BadAt(Affine):
    """t -> t, except the value `bad` at the fiber parameter `at`."""

    def __init__(self, a: F, b: F, at: float = -T_WINDOW, bad: float = math.nan):
        super().__init__(a, b)
        self.at, self.bad = at, bad

    def eval_floats(self, ts) -> list[float]:
        return [self.bad if t == self.at else u for t, u in zip(ts, super().eval_floats(ts))]


def bad_zygothety(**kw) -> Zygothety:
    m = BadAt(F(1), F(0), **kw)
    return Zygothety(ra(1), ra(1), m, m)


def lipschitz_draws(delta: float, beta: float) -> list[tuple[float, float, float]]:
    """(x, y, fiber parameter) of every point verify_lipschitz draws, in order."""
    rng, out = random.Random(LIPSCHITZ_SEED), []
    for _ in range(2 * LIPSCHITZ_SAMPLES):
        x = 0.0
        while abs(x) < min(1e-9, delta / 2):
            x = rng.uniform(-delta, delta)
        ax_b = abs(x) ** beta
        y = rng.uniform(-T_WINDOW, T_WINDOW) * ax_b
        out.append((x, y, y / ax_b))
    return out


def first_lipschitz_parameter(delta: float, beta: float) -> float:
    """The fiber parameter of the first point verify_lipschitz draws."""
    return lipschitz_draws(delta, beta)[0][2]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
class TestNonFiniteSamples:
    """A NaN or an infinity in one sample must not be dropped by a
    comparison, nor reach the JSON report."""

    def test_conjugacy_sample_raises(self, bad):
        with pytest.raises(OverflowError):
            verify(hp(1), hp(1), bad_zygothety(bad=bad), 300, 1.0, 1e-8)

    def test_lipschitz_sample_raises(self, bad):
        z = bad_zygothety(at=first_lipschitz_parameter(1.0, 2.0), bad=bad)
        T = InverseBetaTransform(z, 2, 1)
        assert verify_conjugacy(hp(1), hp(1), T, 1, 1.0)[0] == 0.0
        with pytest.raises(OverflowError):
            verify_lipschitz(T, 1.0)

    def test_lipschitz_ratio_after_finite_ones_names_its_pair(self, bad):
        # the ratios are checked only when they leave [min, max]: an infinity or
        # a NaN must still raise, at its own pair, after 700 finite pairs
        draws = lipschitz_draws(1.0, 2.0)
        x, y, t = draws[2 * 700]
        assert [d[2] for d in draws].count(t) == 1
        T = InverseBetaTransform(bad_zygothety(at=t, bad=bad), 2, 1)
        for check in (verify_lipschitz, ref_batch_verify_lipschitz):
            with pytest.raises(OverflowError, match=re.escape(f"reached {bad!r} at {(x, y)!r}")):
                check(T, 1.0)

    def test_cli_reports_input_too_large(self, bad, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify", lambda F, G, z, *rest: verify(F, G, bad_zygothety(bad=bad), *rest))
        q = str(hp(1).poly)
        assert main(["witness", q, q, "--beta", "2/1", "--samples", "300"]) == 3
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["code"] == "input_too_large"
        assert "--delta" in err


def test_non_finite_report_is_internal(monkeypatch, capsys):
    # strict JSON has no NaN or Infinity: such a report is never printed
    monkeypatch.setattr(cli, "verify", lambda *args: verify(*args)._replace(lipschitz_ratio_max=math.inf))
    q = str(hp(1).poly)
    assert main(["witness", q, q, "--beta", "2/1", "--samples", "300"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"]["code"] == "internal"


class TestHugeDelta:
    def test_float_overflow_is_input_too_large(self, capsys):
        args = ["witness", "X^6+3*X^4*Y+Y^3", "X^6+6*X^4*Y+Y^3", "--beta", "2/1", "--samples", "300"]
        assert main(args + ["--delta", "1e51"]) == 0
        capsys.readouterr()
        assert main(args + ["--delta", "3e51"]) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "input_too_large"
        assert "--delta" in error["message"]
        # so narrow that |x|^beta of a Lipschitz draw (1e-170, 1e-300) or
        # the grid's lowest row X_MIN * delta (5e-324) underflows to 0
        for delta in ("1e-170", "1e-300", "5e-324"):
            assert main(args[:3] + ["--infer-beta", "--delta", delta]) == 3
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["code"] == "input_too_large"
            assert "--delta" in error["message"] and "underflows to 0" in error["message"]

    @pytest.mark.parametrize(
        "delta,quantity",
        [
            ("1e300", "|x|^d leaves the float range at |x| = 1e+300"),
            # |x|^6 fits, but Y^3 at y = -2 |x|^2 is 8 |x|^6
            ("2e51", "a term of F or G leaves the float range on the row |x| = 2e+51"),
        ],
        ids=["power-of-x", "term-of-F"],
    )
    def test_overflow_message_names_the_quantity(self, delta, quantity, capsys):
        # 300 samples make one row a side, at |x| = delta
        args = ["witness", "X^6+Y^3", "X^6+Y^3", "--beta", "2/1", "--samples", "300", "--delta", delta]
        assert main(args) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "input_too_large"
        assert error["message"].endswith(quantity), error["message"]

    def test_lipschitz_overflow_message_names_the_quantity(self):
        with pytest.raises(OverflowError, match=r"\|x\|\^beta leaves the float range at \|x\| = 1e\+300"):
            verify_lipschitz(InverseBetaTransform(identity(), 2, 1), 1e300)


class TestTinyDelta:
    """A strip narrower than X_MIN or than the Lipschitz draws' 1e-9 cutoff."""

    @staticmethod
    def grid_abs_x(delta, monkeypatch) -> list[float]:
        """|x| of every sample of a 5-row grid: T_COUNT for each row of the
        side computed, which takes its |x|^beta once, and one per evaluation
        of F on the axis x = 0; checks that the rows evaluated in the plane
        are that side's innermost and outermost."""
        a, b = hp(-1), hp(-2)
        T = InverseBetaTransform(decide(a, b).certificate.zygothety, 2, 1)
        seen, planar = [], []
        real_power, real_row, real_eval = witness._power, witness._plane_residuals, BiPoly.eval_float

        def recording_power(x, e, name):
            if e == T.beta:
                seen.extend([x] * T_COUNT)
            return real_power(x, e, name)

        def recording_row(F, G, T, x, *rest):
            planar.append(x)
            return real_row(F, G, T, x, *rest)

        def recording_eval(poly, x, y):
            if poly is a.poly:
                seen.append(abs(x))
            return real_eval(poly, x, y)

        monkeypatch.setattr(witness, "_power", recording_power)
        monkeypatch.setattr(witness, "_plane_residuals", recording_row)
        monkeypatch.setattr(BiPoly, "eval_float", recording_eval)
        assert verify_conjugacy(a, b, T, 5, delta)[1] == 11 * T_COUNT
        rows = sorted(set(seen) - {0.0})
        # the pair is mirrored: the x < 0 side repeats the x > 0 side, which alone is computed
        assert planar == [rows[0], rows[-1]]
        return seen

    @pytest.mark.parametrize("delta", [1e-12, 1e-8, 3e-6, 0.7, 1.0])
    def test_conjugacy_grid_stays_in_the_strip(self, delta, monkeypatch):
        seen = self.grid_abs_x(delta, monkeypatch)
        assert len(seen) == 6 * T_COUNT  # 5 rows of the x > 0 side and the axis
        assert max(seen) <= delta

    @pytest.mark.parametrize("delta", [1e-12, 1e-8])
    def test_rows_below_x_min_stay_distinct(self, delta, monkeypatch):
        # log-spaced from X_MIN * delta up, not five copies of delta
        rows = set(self.grid_abs_x(delta, monkeypatch)) - {0.0}
        assert len(rows) == 5
        assert sorted(rows) == pytest.approx([delta * X_MIN ** (1 - k / 4) for k in range(5)], rel=1e-12, abs=0)

    def test_cli_returns_below_the_draw_cutoff(self):
        cmd = [sys.executable, "-m", "qhlip.cli", "witness", "X^6 + 3*X^4*Y + Y^3", "X^6 + 6*X^4*Y + Y^3"]
        start = time.perf_counter()
        done = subprocess.run(cmd + ["--beta", "2/1", "--delta", "1e-12"], capture_output=True, timeout=60)
        assert time.perf_counter() - start < 5.0
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["report"]["delta"] == 1e-12

    @pytest.mark.parametrize("delta", ["1e-13", "1e-161"])
    def test_cli_measures_ratios_below_the_pair_cutoff(self, delta):
        # pairs closer than 1e-12 once made every ratio skipped, and the
        # report printed Infinity, which strict JSON does not allow
        cmd = [sys.executable, "-m", "qhlip.cli", "witness", "X^6 + 3*X^4*Y + Y^3", "X^6 + 6*X^4*Y + Y^3"]
        done = subprocess.run(cmd + ["--beta", "2/1", "--delta", delta], capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr

        report = strict_json(done.stdout)["report"]
        assert 0 < report["lipschitz_ratio_min"] <= report["lipschitz_ratio_max"] < math.inf

    def test_no_pair_kept_is_overflow(self, monkeypatch):
        # every draw the same point: no pair is apart, so no ratio is measured
        class Constant(random.Random):
            def random(self):
                return 0.75

        T = InverseBetaTransform(identity(), 2, 1)
        monkeypatch.setattr(witness.random, "Random", Constant)
        with pytest.raises(OverflowError, match="no ratio is measured"):
            verify_lipschitz(T, 1.0)
