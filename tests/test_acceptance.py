"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
"""

import random
import time
from fractions import Fraction as F

from qhlip.jsonio import verdict2_json
from qhlip.lipclass import Orientation, Reason1D, classify_pair, critical_data, similar
from qhlip.polyalg import BiPoly
from qhlip.qhdecide import NEKind, TheoremTag, decide, heights, pairing_search, validate_qh
from qhlip.realalg import RealAlg, compare, eval_alg, isolate_real_roots, mul
from qhlip.witness import InverseBetaTransform, verify_conjugacy
from qhlip.zygothety import (
    action_residual,
    compose,
    identity,
    inverse,
    is_beta_regular,
    make_regular,
)

from helpers import (
    affine_conjugate,
    brute_force_real_root_count,
    rand_nonzero_rational,
    rand_qhpoly,
    rand_unipoly,
)


def hp(lam):
    return validate_qh(BiPoly({(6, 0): 1, (4, 1): -3 * F(lam), (0, 3): 1}), 2, 1)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_hp_moduli_not_equivalent():
    start = time.perf_counter()
    lams = [F(1, 4), F(1), F(4)]
    polys = [hp(l) for l in lams]
    ok = True
    for i in range(3):
        for j in range(i + 1, 3):
            v = decide(polys[i], polys[j])
            ok &= v.kind == "not_equivalent"
            ok &= v.reason.kind is NEKind.HEIGHTS_NOT_PAIRABLE
            conditions = {c.condition for c in v.reason.necessity}
            ok &= "a" in conditions
            sides = [
                side.reason
                for entry in v.reason.pairing_failures
                for side in (entry.plus, entry.minus)
            ]
            ok &= Reason1D.SYMBOL_NOT_SIMILAR in sides
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(1, ok, f"3 pairwise NotEquivalent with condition (a) cited, {elapsed:.2f}s")


def test_criterion_2_hp_negative_equivalent_with_witness():
    lams = [F(-1), F(-2), F(-3)]
    polys = [hp(l) for l in lams]
    ok = True
    worst_pair_time = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            start = time.perf_counter()
            v = decide(polys[i], polys[j])
            ok &= v.kind == "equivalent"
            ok &= v.certificate.theorem_tag is TheoremTag.COR_NO_CRIT_POINTS
            T = InverseBetaTransform(v.certificate.zygothety, 2, 1)
            residual, samples = verify_conjugacy(polys[i], polys[j], T, 50, 1.0)
            ok &= residual <= 1e-8 and samples >= 10**4
            worst_pair_time = max(worst_pair_time, time.perf_counter() - start)
    ok &= worst_pair_time < 10.0
    report(
        2,
        ok,
        f"all pairs Cor_NoCritPoints + conjugacy at 1e-8, worst pair {worst_pair_time:.2f}s",
    )


def test_criterion_3_symbol_formula_and_determinant():
    s1 = critical_data(heights(hp(1)).f_plus)
    s4 = critical_data(heights(hp(4)).f_plus)
    ok = all(v.is_rational for v in s1.values + s4.values)
    ok &= [v.lo for v in s1.values] == [3, -1] and s1.mults == (2, 2)
    ok &= [v.lo for v in s4.values] == [17, -15] and s4.mults == (2, 2)
    ok &= similar(s1, s4) == (None, None)
    # re-derive the determinant cross-check from the emitted certificate data
    v = decide(hp(1), hp(4))
    entry = verdict2_json(v)["reason"]["pairing_failures"][0]["plus_side_symbols"]
    left = [F(x["rational"]) for x in entry["left"]["values"]]
    right = [F(x["rational"]) for x in entry["right"]["values"]]
    det = left[0] * right[1] - left[1] * right[0]
    ok &= det == 3 * (-15) - (-1) * 17 != 0
    report(3, ok, f"symbols (3,-1)/(17,-15) with mults (2,2); determinant {det} != 0")


def test_criterion_4_one_dimensional_oracle():
    start = time.perf_counter()
    rng = random.Random(20240904)
    failures = 0
    for _ in range(200):
        f = rand_unipoly(rng, 6, 5)
        a = rand_nonzero_rational(rng)
        b = F(rng.randint(-4, 4), rng.randint(1, 3))
        c = abs(rand_nonzero_rational(rng))
        g = affine_conjugate(f, a, b, c)
        v = classify_pair(f, g)
        if not v.equivalent:
            failures += 1
            continue
        want = Orientation.INCREASING if a > 0 else Orientation.DECREASING
        matching = [p for p in v.pairings if p.orientation is want]
        if not matching:
            failures += 1
            continue
        for p in matching:
            if p.c_set.is_unique and not p.c_set.c == RealAlg.from_rational(c):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report(4, ok, f"200/200 oracle classifications equivalent, {elapsed:.1f}s")


def test_criterion_5_two_dimensional_oracle():
    start = time.perf_counter()
    rng = random.Random(20240905)
    kinds = {"equivalent": 0, "not_equivalent": 0, "unknown": 0}
    witness_failures = 0
    for _ in range(100):
        Fq = rand_qhpoly(rng)
        a = F(rng.randint(1, 4), rng.randint(1, 3))
        b = F(rng.choice([x for x in range(-4, 5) if x != 0]), rng.randint(1, 3))
        Gq = validate_qh(Fq.poly.scale_vars(a, b), Fq.r, Fq.s)
        v = decide(Fq, Gq)
        kinds[v.kind] += 1
        if v.kind == "equivalent":
            T = InverseBetaTransform(v.certificate.zygothety, Fq.r, Fq.s)
            if not verify_conjugacy(Fq, Gq, T, 50, 1.0)[0] <= 1e-8:
                witness_failures += 1
    elapsed = time.perf_counter() - start
    ok = kinds["not_equivalent"] == 0 and witness_failures == 0 and elapsed < 120.0
    report(
        5,
        ok,
        f"never NotEquivalent; witnesses verified; unknown rate "
        f"{kinds['unknown']}/100; {elapsed:.1f}s",
    )


def test_criterion_6_algebraic_kernel_exactness():
    rng = random.Random(20240906)
    count_failures = 0
    checked = 0
    while checked < 300:
        p = rand_unipoly(rng, 8, 5)
        from qhlip.polyalg import square_free_part

        q = square_free_part(p)
        if q.degree == 0:
            continue
        checked += 1
        if len(isolate_real_roots(q)) != brute_force_real_root_count(q):
            count_failures += 1
    # ordering and interval-containment property suites
    prop_failures = 0
    pool = []
    for _ in range(10):
        pool.extend(isolate_real_roots(rand_unipoly(rng, 6, 5)))
    pool = pool[:16]
    floats = [x.to_float() for x in pool]
    for i in range(len(pool)):
        for j in range(len(pool)):
            c = compare(pool[i], pool[j])
            if c != -compare(pool[j], pool[i]):
                prop_failures += 1
            if abs(floats[i] - floats[j]) > 1e-9 and c != (
                1 if floats[i] > floats[j] else -1
            ):
                prop_failures += 1
    for _ in range(25):
        q = rand_unipoly(rng, 5, 5)
        for a in pool[:6]:
            val = eval_alg(q, a)
            lo, hi = val.lo, val.hi
            if not (float(lo) - 1e-9 <= q.eval_float(a.to_float()) <= float(hi) + 1e-9):
                prop_failures += 1
    ok = count_failures == 0 and prop_failures == 0
    report(
        6,
        ok,
        f"300 isolation counts match the sign-scan oracle; "
        f"compare/eval_alg property suites clean",
    )


def test_criterion_7_group_and_regularity():
    pool = [identity()]
    pairs = [(hp(-1), hp(-2)), (hp(-2), hp(-3)), (hp(-1), hp(-3)), (hp(2), hp(2))]
    spot_failures = 0
    for a, b in pairs:
        option = pairing_search(a, b).options[0]
        z = make_regular(option, a)
        if action_residual(z, a.d, option.sides) > 1e-6:
            spot_failures += 1
        pool.append(z)
    rng = random.Random(20240907)
    closure_failures = 0
    for _ in range(100):
        x, y = rng.choice(pool), rng.choice(pool)
        if not is_beta_regular(compose(x, y), 2, 1):
            closure_failures += 1
    for z in pool:
        if not is_beta_regular(inverse(z), 2, 1):
            closure_failures += 1
        for m in (z.phi1, z.phi2):
            if compare(mul(m.limit_slope(), m.inverse().limit_slope()), RealAlg.from_rational(1)) != 0:
                closure_failures += 1
    ok = spot_failures == 0 and closure_failures == 0
    report(
        7,
        ok,
        "regularity closed under 100 compositions and inverses; "
        "inverse slopes are exact reciprocals; action spot-checks pass",
    )


def test_criterion_8_reflexivity_and_symmetry():
    rng = random.Random(20240908)
    failures = 0
    instances = [hp(F(1, 4)), hp(1), hp(4), hp(-1), hp(-2), hp(-3)]
    for _ in range(10):
        instances.append(rand_qhpoly(rng))
    for q in instances:
        if decide(q, q).kind != "equivalent":
            failures += 1
    hp_pairs = [
        (hp(1), hp(4)),
        (hp(F(1, 4)), hp(1)),
        (hp(-1), hp(-2)),
        (hp(-1), hp(-3)),
    ]
    oracle_pairs = []
    for _ in range(8):
        q = rand_qhpoly(rng)
        g = validate_qh(
            q.poly.scale_vars(
                F(rng.randint(1, 3), rng.randint(1, 2)), F(rng.choice([-2, -1, 1, 2]))
            ),
            q.r,
            q.s,
        )
        oracle_pairs.append((q, g))
    for a, b in hp_pairs + oracle_pairs:
        if decide(a, b).kind != decide(b, a).kind:
            failures += 1
    ok = failures == 0
    report(8, ok, "decide(F, F) always equivalent; decide agrees in kind both ways")
