"""Decision procedure for quasihomogeneous polynomials in two variables.

A polynomial F with F(tX, t^beta Y) = t^d F(X, Y) for t > 0, beta = r/s > 1
in lowest terms, is modeled with its exact invariants (d, the X-multiplicity
e, the top expansion index n).  The decision for a pair (F, G) combines the
necessary direction (unpairable height functions plus real zeros force
non-equivalence) with the sufficient constructions that upgrade a height
pairing to a regular zygothety, and reports Unknown with a machine-readable
reason whenever neither side applies.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from . import zygothety as zyg
from .lipclass import Pairing1D, Verdict1D, classify_pair, critical_data
from .polyalg import BiPoly, UniPoly, is_cxd, sign, x_multiplicity, y_divides
from .realalg import RealAlg, neg, nth_root_pos


class NotQuasihomogeneousError(ValueError):
    pass


class BetaRangeError(ValueError):
    pass


class BetaMismatchError(ValueError):
    pass


class DegreeMismatchError(ValueError):
    pass


class QHPoly(NamedTuple):
    """A validated quasihomogeneous polynomial with its exact invariants."""

    poly: BiPoly
    r: int
    s: int
    d: int
    e: int  # multiplicity of X as a factor
    n: int  # top index of the quasihomogeneous expansion


class HeightPair(NamedTuple):
    f_plus: UniPoly
    f_minus: UniPoly


def validate_qh(F: BiPoly, r: int, s: int) -> QHPoly:
    """Check the weights r, s and beta = r/s, then the support condition;
    compute (d, e, n)."""
    if s <= 0 or math.gcd(r, s) != 1:
        raise BetaRangeError("weights must be coprime positive integers")
    if r <= s:
        raise BetaRangeError("beta must be a rational greater than 1")
    if F.is_zero:
        raise NotQuasihomogeneousError("the zero polynomial is excluded")
    d_times_s = None
    for i, j in F.ints:
        val = i * s + j * r
        if d_times_s is None:
            d_times_s = val
        elif val != d_times_s:
            raise NotQuasihomogeneousError(
                f"support is not on a single line: X^{i}*Y^{j} breaks the degree"
            )
        if j % s != 0:
            raise NotQuasihomogeneousError(
                f"Y-exponent {j} is not a multiple of s={s}"
            )
    if d_times_s is None:
        raise ArithmeticError("nonzero polynomial without monomials; internal bug")
    d = d_times_s // s
    if d <= 0:
        raise NotQuasihomogeneousError("degree d must be a positive integer")
    n = max(j // s for _, j in F.ints)
    e = x_multiplicity(F)
    if e != d - r * n:
        raise ArithmeticError("X-multiplicity is not d - r*n; internal bug")
    return QHPoly(F, r, s, d, e, n)


class BetaInference(NamedTuple):
    matches: tuple[QHPoly, ...]  # F validated at each admissible beta
    ambiguous: bool  # single monomial: a parametric family of betas


def infer_beta(F: BiPoly) -> BetaInference:
    """All coprime (r, s) with r > s > 0 and integer d > 0 that fit F."""
    if F.is_zero:
        raise NotQuasihomogeneousError("the zero polynomial is excluded")
    if len(F.ints) == 1:
        return BetaInference((), True)
    (i1, j1), (i2, j2), *_ = F.ints
    if j1 == j2:
        return BetaInference((), False)
    beta = Fraction(i2 - i1, j1 - j2)
    try:
        return BetaInference((validate_qh(F, beta.numerator, beta.denominator),), False)
    except (NotQuasihomogeneousError, BetaRangeError):
        return BetaInference((), False)


@lru_cache
def _heights_cached(Q: QHPoly) -> HeightPair:
    """F(1, t) and F(-1, t), built and checked once per polynomial; one
    object when they are equal, so lookups keyed by them match by identity."""
    plus, minus = Q.poly.height(1), Q.poly.height(-1)
    pair = HeightPair(plus, plus if minus == plus else minus)
    expected = Q.s * Q.n
    if not (pair.f_plus.degree == expected or (Q.n == 0 and pair.f_plus.is_constant)):
        raise ArithmeticError("right height degree is not s*n; internal bug")
    if not (
        pair.f_minus.degree == pair.f_plus.degree
        or (pair.f_plus.is_constant and pair.f_minus.is_constant)
    ):
        raise ArithmeticError("heights of different degree; internal bug")
    return pair


heights = _heights_cached


# ---------------------------------------------------------------------------
# Pairing search
# ---------------------------------------------------------------------------


class PairingOption(NamedTuple):
    """One way to pair the height functions through the group action.

    lambda_sign +1 pairs (+) with (+) and (-) with (-); -1 crosses them.
    `plus` pairs F's right height with its partner, `minus` the left one;
    `sides` holds the two (F height, G height) pairs in the same order.
    """

    lambda_sign: int
    plus: Pairing1D
    minus: Pairing1D
    sides: tuple[tuple[UniPoly, UniPoly], tuple[UniPoly, UniPoly]]


class PairingFailure(NamedTuple):
    """Why one scale sign pairs no heights: the 1-D verdict of each side."""

    lambda_sign: int
    plus: Verdict1D
    minus: Verdict1D


class PairingSearch(NamedTuple):
    """The pairing options of (F, G), or why each scale sign has none."""

    options: tuple[PairingOption, ...]
    failures: tuple[PairingFailure, ...] = ()  # one per sign, only when no option exists


def _require_same_family(F: QHPoly, G: QHPoly) -> None:
    if (F.r, F.s) != (G.r, G.s):
        raise BetaMismatchError("polynomials have different beta")
    if F.d != G.d:
        raise DegreeMismatchError("polynomials have different degree")


def pairing_search(F: QHPoly, G: QHPoly) -> PairingSearch:
    """Enumerate height pairings, straight-sign options first.

    Each distinct (F height, G height) pair is classified at most once, so
    heights with F(-1, t) = F(1, t) cost one classification a side.  A side
    has pairings exactly when it is equivalent, so the (-) side is
    classified only where the (+) side pairs; when no option exists the
    verdicts explain, per scale sign, why.
    """
    _require_same_family(F, G)
    hf, hg = heights(F), heights(G)
    memo: dict = {}

    def classify(f: UniPoly, g: UniPoly) -> Verdict1D:  # reads the module's classify_pair at each call
        return memo.get((f, g)) or memo.setdefault((f, g), classify_pair(f, g))
    trials = ((1, hg.f_plus, hg.f_minus), (-1, hg.f_minus, hg.f_plus))
    options = tuple(
        PairingOption(lam_sign, p1, p2, ((hf.f_plus, g_plus), (hf.f_minus, g_minus)))
        for lam_sign, g_plus, g_minus in trials
        for p1 in classify(hf.f_plus, g_plus).pairings
        for p2 in classify(hf.f_minus, g_minus).pairings
    )
    if options:
        if F.e != G.e:
            raise ArithmeticError("pairable heights must share the X-multiplicity; internal bug")
        return PairingSearch(options)
    failures = tuple(
        PairingFailure(lam_sign, classify(hf.f_plus, g_plus), classify(hf.f_minus, g_minus))
        for lam_sign, g_plus, g_minus in trials
    )
    return PairingSearch((), failures)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class TheoremTag(enum.Enum):
    CXD_CASE = "CxdCase"
    SUFF_A_PARITY = "SuffA_ParityEven_or_sOdd"
    SUFF_B_EQUAL_LAMBDA = "SuffB_EqualLambda"
    SUFF_C_NO_X_FACTOR = "SuffC_NoXFactor"
    COR_NO_CRIT_POINTS = "Cor_NoCritPoints"
    COR_R_ODD_S_EVEN_NO_Y_FACTOR = "Cor_rOdd_sEven_NoYFactor"
    COR_R_ODD_S_EVEN_ONE_CRIT = "Cor_rOdd_sEven_OneCrit"


class VerdictKind(str, enum.Enum):
    """Compares and hashes equal to its value; render it through a table
    keyed by the member, since str() gives the member name."""

    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    UNKNOWN = "unknown"


class NEKind(enum.Enum):
    CXD_SIGN_MISMATCH = "CxdSignMismatch"
    HEIGHTS_NOT_PAIRABLE = "HeightsNotPairable"


class UnknownKind(enum.Enum):
    MIXED_CXD_CASE = "MixedCxdCase"
    NECESSITY_CONDITIONS_UNAVAILABLE = "NecessityConditionsUnavailable"
    SUFFICIENCY_GAP = "SufficiencyGap"


class OptionTrace(NamedTuple):
    """The pairing a certificate realizes, with the float residual of the
    action spot-check."""

    option: PairingOption
    residual: float


class CxdTrace(NamedTuple):
    """F = a X^d and G = b X^d, paired by x -> (a/b)^(1/d) x, y -> y."""

    a: Fraction
    b: Fraction


class Certificate(NamedTuple):
    theorem_tag: TheoremTag
    zygothety: zyg.Zygothety
    pairing_trace: OptionTrace | CxdTrace


class NecessityCondition(NamedTuple):
    """A quoted zero condition that licenses non-equivalence.

    (a): both heights of `zero_side` have a real zero and X does not divide
    the other polynomial; (b): both have two distinct real zeros.
    """

    condition: str  # "a" | "b"
    zero_side: str  # "F" | "G"
    zeros: tuple[int, int]  # distinct real zeros of the (+) and (-) heights


class NEReason(NamedTuple):
    kind: NEKind
    necessity: tuple[NecessityCondition, ...] = ()  # which conditions licensed it
    pairing_failures: tuple[PairingFailure, ...] = ()


class Verdict2D(NamedTuple):
    kind: VerdictKind
    certificate: Optional[Certificate] = None
    reason: NEReason | UnknownKind | None = None


# ---------------------------------------------------------------------------
# The decision tree
# ---------------------------------------------------------------------------


def _necessity_conditions(F: QHPoly, G: QHPoly) -> tuple[NecessityCondition, ...]:
    """Quoted hypotheses licensing non-equivalence from unpairable heights.

    Both orientations are checked; see NecessityCondition.
    """
    satisfied = []
    for name, P, Q in (("F", F, G), ("G", G, F)):
        hp = heights(P)
        zeros = tuple(critical_data(h).zero_count for h in (hp.f_plus, hp.f_minus))
        if min(zeros) >= 1 and Q.e == 0:
            satisfied.append(NecessityCondition("a", name, zeros))
        if min(zeros) >= 2:
            satisfied.append(NecessityCondition("b", name, zeros))
    return tuple(satisfied)


def _cxd_zygothety(a: Fraction, b: Fraction, d: int) -> zyg.Zygothety:
    ratio = Fraction(a, b)
    mag = nth_root_pos(RealAlg.from_rational(abs(ratio)), d)
    lam = mag if ratio > 0 else neg(mag)
    return zyg.Zygothety(lam, lam, zyg.identity_map(), zyg.identity_map())


def _certify(option: PairingOption, z: zyg.Zygothety, F: QHPoly, tag: TheoremTag) -> Verdict2D:
    residual = zyg.action_residual(z, F.d, option.sides)
    if not residual <= 1e-6:
        raise ArithmeticError(f"action spot-check failed: {residual}; internal bug")
    trace = OptionTrace(option, residual)
    return Verdict2D(VerdictKind.EQUIVALENT, certificate=Certificate(tag, z, trace))


def decide(F: QHPoly, G: QHPoly) -> Verdict2D:
    """Decide R-semialgebraic Lipschitz equivalence of F and G."""
    _require_same_family(F, G)
    d = F.d

    # pure X-power cases are settled from first principles
    cf, cg = is_cxd(F.poly), is_cxd(G.poly)
    if cf is not None and cg is not None:
        a, b = cf[0], cg[0]
        if d % 2 == 0 and sign(a) != sign(b):
            return Verdict2D(
                VerdictKind.NOT_EQUIVALENT,
                reason=NEReason(NEKind.CXD_SIGN_MISMATCH),
            )
        z = _cxd_zygothety(a, b, d)
        if not zyg.is_beta_regular(z, F.r, F.s):
            raise ArithmeticError("X-power zygothety is not beta-regular; internal bug")
        return Verdict2D(
            VerdictKind.EQUIVALENT,
            certificate=Certificate(TheoremTag.CXD_CASE, z, CxdTrace(a, b)),
        )
    if (cf is None) != (cg is None):
        return Verdict2D(VerdictKind.UNKNOWN, reason=UnknownKind.MIXED_CXD_CASE)

    search = pairing_search(F, G)
    options = search.options
    if not options:
        necessity = _necessity_conditions(F, G)
        if necessity:
            return Verdict2D(
                VerdictKind.NOT_EQUIVALENT,
                reason=NEReason(NEKind.HEIGHTS_NOT_PAIRABLE, necessity, search.failures),
            )
        return Verdict2D(VerdictKind.UNKNOWN, reason=UnknownKind.NECESSITY_CONDITIONS_UNAVAILABLE)

    r, s = F.r, F.s
    # every option's sides hold all four heights
    crit_counts = [critical_data(h).count for side in options[0].sides for h in side]
    # make_regular gives the two sides one constant when r is odd, s even and
    # X divides the polynomials (pairable heights give F and G the same e)
    shared = r % 2 == 1 and s % 2 == 0 and F.e != 0

    if min(crit_counts) == 0:
        # a height without critical points leaves its side's constant free
        tag = TheoremTag.COR_NO_CRIT_POINTS
    elif not shared:
        parity = r % 2 == 0 or s % 2 == 1
        tag = TheoremTag.SUFF_A_PARITY if parity else TheoremTag.SUFF_C_NO_X_FACTOR
    elif not y_divides(F.poly) and not y_divides(G.poly):
        # no Y factor forces equal scales, so every option has matching constants
        tag = TheoremTag.COR_R_ODD_S_EVEN_NO_Y_FACTOR
    elif min(crit_counts) == 1:
        # a single-critical-point height has value zero, so a side is free
        tag = TheoremTag.COR_R_ODD_S_EVEN_ONE_CRIT
    else:
        tag = TheoremTag.SUFF_B_EQUAL_LAMBDA
    for option in options:
        z = zyg.make_regular(option, F)
        if z is not None:
            return _certify(option, z, F, tag)
    if tag is not TheoremTag.SUFF_B_EQUAL_LAMBDA:
        raise ArithmeticError(f"{tag.value} found no option with a common constant; internal bug")
    return Verdict2D(VerdictKind.UNKNOWN, reason=UnknownKind.SUFFICIENCY_GAP)
