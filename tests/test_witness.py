import dataclasses
import json
import math
import random
from fractions import Fraction as F

import pytest

from qhlip.cli import main
from qhlip.polyalg import BiPoly, UniPoly
from qhlip.qhdecide import decide, validate_qh
from qhlip.realalg import RealAlg
from qhlip.jsonio import report_json
from qhlip.witness import (
    T_COUNT,
    InverseBetaTransform,
    verify,
    verify_asymptotic,
    verify_conjugacy,
    verify_lipschitz,
)
from qhlip.zygothety import Affine, BranchMap, Zygothety, identity, inverse

from helpers import rand_qhpoly


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
        assert not dataclasses.replace(rep, tol=rep.max_rel_residual / 2).conjugacy_pass
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
