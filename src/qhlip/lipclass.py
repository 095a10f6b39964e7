"""Lipschitz classification of univariate polynomial functions.

Two polynomial functions f, g are Lipschitz equivalent when g o phi = c f
for some bi-Lipschitz homeomorphism phi of the reals and some c > 0.  The
decision reduces to exact data: degree, the ordered critical points with
multiplicities, the critical values, and (for two or more critical points)
similarity of the multiplicity symbols.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple, Optional

from .polyalg import UniPoly, sign
from .realalg import RealAlg, compare, div, eval_alg, isolate_real_roots, ratios_apart, sign_at


class Orientation(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class Reason1D(enum.Enum):
    DEGREE_MISMATCH = "DegreeMismatch"
    CRIT_COUNT_MISMATCH = "CritCountMismatch"
    SIGN_MISMATCH = "SignMismatch"
    EXTREMUM_TYPE_MISMATCH = "ExtremumTypeMismatch"
    SYMBOL_NOT_SIMILAR = "SymbolNotSimilar"
    CONSTANT_SIGN_MISMATCH = "ConstantSignMismatch"


class _CSet(NamedTuple):
    c: Optional[RealAlg]  # None means any positive constant works

    @property
    def is_unique(self) -> bool:
        return self.c is not None


class CSet(_CSet):
    """Admissible scaling constants: a forced value or all of (0, oo)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.c is not None and self.c.sign() <= 0:
            raise ArithmeticError("scaling constant is not positive; internal bug")
        return self


class Pairing1D(NamedTuple):
    orientation: Orientation
    c_set: CSet


class Verdict1D(NamedTuple):
    pairings: tuple[Pairing1D, ...] = ()
    reason: Optional[Reason1D] = None
    # the critical data of (f, g) when their multiplicity symbols refuted it
    symbols: Optional[tuple[CritData, CritData]] = None

    @property
    def equivalent(self) -> bool:
        return bool(self.pairings)


class CritData(NamedTuple):
    """Ordered critical points of a nonconstant polynomial function."""

    points: tuple[RealAlg, ...]
    mults: tuple[int, ...]
    values: tuple[RealAlg, ...]
    signs: tuple[int, ...]  # of the values
    leading_sign: int
    zero_count: int  # distinct real zeros of f

    @property
    def count(self) -> int:
        return len(self.points)


def multiplicity_at(f: UniPoly, point: RealAlg) -> int:
    """Smallest k >= 1 with the k-th derivative nonzero at the point."""
    if f.is_constant:
        raise ValueError("multiplicity of a constant function")
    d = f.derivative()
    k = 1
    while d.degree >= 0:
        if sign_at(d, point) != 0:
            return k
        d = d.derivative()
        k += 1
    raise ArithmeticError("nonconstant polynomial with all derivatives zero; internal bug")


@lru_cache
def critical_data(f: UniPoly) -> CritData:
    """Critical points of f (roots of f'), their multiplicities and values."""
    if f.is_constant:
        raise ValueError("critical_data of a constant function")
    df = f.derivative()
    points = tuple(isolate_real_roots(df))
    # each point is a root of f', so its first nonzero derivative is f'' or later
    mults = tuple(1 + multiplicity_at(df, p) for p in points)
    values = tuple(eval_alg(f, p) for p in points)
    # f is strictly monotone between critical points, so each stretch between
    # them (and out to -oo and +oo) holds a zero exactly when f changes sign
    # strictly across it; each critical value 0 is one more
    signs, lead = tuple(v.sign() for v in values), sign(f.ints[-1])
    ends = [lead * (-1) ** f.degree, *signs, lead]
    zeros = signs.count(0) + sum(a * b < 0 for a, b in zip(ends, ends[1:]))
    return CritData(points, mults, values, signs, lead, zeros)


def _proportional(A: CritData, B: CritData, step: int = 1) -> Optional[CSet]:
    """CSet with b = c*a for some c > 0, or None, where a is A's multiplicity
    symbol read with the given step (1 or -1) and b is B's.

    Multiplicities and signs must match; each nonzero value gives one ratio
    b_j / a_j, and every ratio must equal the first, which is c.  Before
    dividing, the isolating boxes refute (realalg.ratios_apart).
    """
    if A.mults[::step] != B.mults or A.signs[::step] != B.signs:
        return None
    pairs = [(a, b) for a, b, s in zip(A.values[::step], B.values, B.signs) if s != 0]
    if ratios_apart(pairs):
        return None
    ratios = (div(b, a) for a, b in pairs)
    c = next(ratios, None)
    if c is None:
        return CSet(None)
    if any(compare(r, c) != 0 for r in ratios):
        return None
    return CSet(c)


def similar(A: CritData, B: CritData) -> tuple[Optional[CSet], Optional[CSet]]:
    """Direct and reverse similarity of two multiplicity symbols (critical
    values with multiplicities) of equal length: the constants of each way,
    or None where the symbols are not similar that way."""
    if len(A.values) != len(B.values):
        raise ValueError("multiplicity symbols must have the same length")
    return _proportional(A, B), _proportional(A, B, -1)


def classify_pair(f: UniPoly, g: UniPoly) -> Verdict1D:
    """Full Lipschitz-equivalence decision for two polynomial functions."""
    if f.is_constant or g.is_constant:
        if not (f.is_constant and g.is_constant):
            return Verdict1D(reason=Reason1D.DEGREE_MISMATCH)
        if sign(f.coeff(0)) != sign(g.coeff(0)):
            return Verdict1D(reason=Reason1D.CONSTANT_SIGN_MISMATCH)
        free = CSet(None)
        return Verdict1D(
            (Pairing1D(Orientation.INCREASING, free), Pairing1D(Orientation.DECREASING, free)),
        )
    if f.degree != g.degree:
        return Verdict1D(reason=Reason1D.DEGREE_MISMATCH)
    df, dg = critical_data(f), critical_data(g)
    if df.count != dg.count:
        return Verdict1D(reason=Reason1D.CRIT_COUNT_MISMATCH)
    p = df.count
    d = f.degree
    # the one orientation for odd d: increasing exactly when the leading signs agree
    orient = (
        Orientation.INCREASING
        if df.leading_sign == dg.leading_sign
        else Orientation.DECREASING
    )

    if p == 0:
        # both are monotone homeomorphisms of the line (d is necessarily odd)
        if d % 2 == 0:
            raise ArithmeticError("even-degree polynomial without critical points; internal bug")
        return Verdict1D((Pairing1D(orient, CSet(None)),))

    if p == 1:
        if df.mults[0] != dg.mults[0]:
            return Verdict1D(reason=Reason1D.SYMBOL_NOT_SIMILAR)
        if df.signs != dg.signs:
            return Verdict1D(reason=Reason1D.SIGN_MISMATCH)
        if d % 2 == 0:
            # single critical point of an even-degree function is the global
            # extremum; its type is the sign of the leading coefficient
            if df.leading_sign != dg.leading_sign:
                return Verdict1D(reason=Reason1D.EXTREMUM_TYPE_MISMATCH)
        c_set = _proportional(df, dg)
        if d % 2 == 1:
            return Verdict1D((Pairing1D(orient, c_set),))
        return Verdict1D(
            (
                Pairing1D(Orientation.INCREASING, c_set),
                Pairing1D(Orientation.DECREASING, c_set),
            ),
        )

    direct, reverse = similar(df, dg)
    pairings = []
    if direct is not None:
        pairings.append(Pairing1D(Orientation.INCREASING, direct))
    if reverse is not None:
        pairings.append(Pairing1D(Orientation.DECREASING, reverse))
    if not pairings:
        return Verdict1D(reason=Reason1D.SYMBOL_NOT_SIMILAR, symbols=(df, dg))
    return Verdict1D(tuple(pairings))
