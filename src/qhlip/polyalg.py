"""Exact polynomial arithmetic over arbitrary-precision rationals.

Univariate polynomials are dense (the degrees in play stay small), bivariate
polynomials are sparse (quasihomogeneous supports are thin).  Everything is
immutable and every operation is a pure function, so values can be shared and
cached freely.  Signs at rational points are found in integers
(`UniPoly.sign_at`), which is all that Sturm counting and bisection need.

Remainders, gcds and exact divisions run in Z[x] on primitive integer
multiples (`_zx`).  Gcds are heuristic, proved by exact division; Sturm chains
take pseudo-remainders scaled by |lc| > 0 only (`_prem`; Collins, JACM 14,
1967), positive multiples of the remainders over Q.  Resultants are computed
in Z at integer points and interpolated in Z, one Fraction per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

RatLike = Union[Fraction, int]
_HEU_ROUNDS = 6  # evaluation points _zx_gcd tries before its fallback


def sign(x: RatLike) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class UniPoly:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` is the coefficient of the i-th power; trailing zeros are
    trimmed, so the zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    __slots__ = ("coeffs", "_flt", "_int")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        # float coefficients, highest power first; filled by eval_float,
        # never here, so exact work on coefficients beyond the float range
        # does not raise OverflowError
        self._flt: tuple[float, ...] | None = None
        # the coefficients scaled to coprime integers, lowest power first;
        # filled by _zx
        self._int: tuple[int, ...] | None = None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["UniPoly", RatLike]) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return UniPoly(out)

    def scale(self, c: RatLike) -> "UniPoly":
        c = Fraction(c)
        if c == 0:
            return UniPoly()
        return UniPoly(tuple(c * a for a in self.coeffs))

    def __call__(self, x: RatLike) -> Fraction:
        """Exact evaluation by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: RatLike) -> int:
        """sign(self(x)) for a rational x, with no Fraction built."""
        return self.sign_at_ratio(x.numerator, x.denominator)

    def sign_at_ratio(self, a: int, b: int) -> int:
        """sign(self(a/b)) for integers a and b > 0, not necessarily coprime.

        b**n * self(a/b) = sum c_i a**i b**(n-i) has the sign of self(a/b);
        over integer coefficients Horner's rule on that sum is
        acc = acc*a + c_i*b**(n-i), highest power first (Yap, Fundamental
        Problems of Algorithmic Algebra, ch. 3).
        """
        ints = _zx(self)
        if not ints:
            return 0
        acc = ints[-1]
        if b == 1:
            for c in ints[-2::-1]:
                acc = acc * a + c
        else:
            bk = 1
            for c in ints[-2::-1]:
                bk *= b
                acc = acc * a + c * bk
        return (acc > 0) - (acc < 0)

    def eval_float(self, x: float) -> float:
        flt = self._flt
        if flt is None:
            flt = self._flt = tuple(float(c) for c in reversed(self.coeffs))
        acc = 0.0
        for c in flt:
            acc = acc * x + c
        return acc

    def eval_float_d(self, x: float) -> tuple[float, float]:
        """(p(x), p'(x)) in one Horner pass; p(x) has eval_float's bits."""
        flt = self._flt
        if flt is None:
            flt = self._flt = tuple(float(c) for c in reversed(self.coeffs))
        v = d = 0.0
        for c in flt:
            d = d * x + v
            v = v * x + c
        return v, d

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(t)), exact."""
        acc = UniPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly((c,))
        return acc

    def stretch(self, n: int) -> "UniPoly":
        """self(t**n)."""
        if n < 1:
            raise ValueError("stretch exponent must be >= 1")
        if self.is_zero:
            return self
        out = [Fraction(0)] * (self.degree * n + 1)
        for i, c in enumerate(self.coeffs):
            out[i * n] = c
        return UniPoly(out)

    def reversed_coeffs(self) -> "UniPoly":
        """t**deg * self(1/t); constant term must be nonzero."""
        if self.is_zero or self.coeffs[0] == 0:
            raise ValueError("reversal needs a nonzero constant term")
        return UniPoly(tuple(reversed(self.coeffs)))

    def __str__(self) -> str:
        """The polynomial as text in t that parse_uni reads back."""
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            parts.append(_coeff_prefix(c, mono))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def _coeff_prefix(c: Fraction, monomial: str) -> str:
    if monomial == "":
        return str(c)
    if c == 1:
        return monomial
    if c == -1:
        return "-" + monomial
    return f"{c}*{monomial}"


def _join_signed(parts: list[str]) -> str:
    """The terms joined by + and -; "0" for none."""
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def _primitive(cs: list[int]) -> tuple[list[int], int]:
    """(cs / g, g) for the content g = gcd(cs) >= 0; cs itself when g <= 1."""
    g = _int_gcd(*cs)
    return (cs if g <= 1 else [c // g for c in cs]), g


def _zx(p: UniPoly) -> tuple[int, ...]:
    """p's coefficients, lowest power first, scaled by a positive rational
    to coprime integers; kept in p's slot."""
    ints = p._int
    if ints is None:
        den = _int_lcm(*(c.denominator for c in p.coeffs))
        # den == 1 (a Sturm polynomial, say): the numerators' int objects
        # are shared, not copied
        cs = [c.numerator if den == 1 else c.numerator * (den // c.denominator) for c in p.coeffs]
        ints = p._int = tuple(_primitive(cs)[0])
    return ints


def _prem(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int, int]:
    """Primitive pseudo-remainder of a by a nonzero b in Z[x], lowest power
    first: (r, g, steps) with |lc b|**steps * (a mod b) == g * r, r primitive
    (empty when b divides a)."""
    r, db, lc, steps = list(a), len(b) - 1, b[-1], 0
    m = abs(lc)
    for k in range(len(r) - 1 - db, -1, -1):
        top = r.pop()  # coefficient of t**(k + db), eliminated by top * t**k * b
        if not top:
            continue
        if lc < 0:
            top = -top
        if m != 1:
            r = [m * c for c in r]
            steps += 1
        for j in range(db):
            r[k + j] -= top * b[j]
    while r and not r[-1]:
        r.pop()
    return (*_primitive(r), steps)


def _zx_gcd(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """A primitive gcd in Z[x], up to sign, for primitive a and b, by the
    heuristic gcd (GCDHEU; Char, Geddes and Gonnet, J. Symb. Comput. 7, 1989):
    the primitive part g of the symmetric xi-adic lift of gcd(a(xi), b(xi)).
    For xi >= 2 * min(|a|_inf, |b|_inf) + 2, g is the gcd if it divides a and
    b exactly (Geddes, Czapor and Labahn 1992, Thm 7.7).  After _HEU_ROUNDS
    points it falls back to the primitive remainder sequence."""
    if len(a) == 1 or len(b) == 1:  # a nonzero constant operand
        return [1]
    if a and b:
        xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
        for _ in range(_HEU_ROUNDS):
            h, lift = _int_gcd(_horner(a, xi), _horner(b, xi)), []
            while h:  # h = xi * h' + d with -xi/2 <= d < xi/2
                h, d = divmod(h + xi // 2, xi)
                lift.append(d - xi // 2)
            g = _primitive(lift)[0]
            try:
                _zx_quotient(list(a), g)
                _zx_quotient(list(b), g)
                return g
            except ArithmeticError:
                xi = xi * 73794 // 27011  # the growth of sympy's dup_zz_heu_gcd
    while b:
        a, b = b, _prem(a, b)[0]
    return a


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor; both-zero input is an error."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return UniPoly(_zx_gcd(_zx(p), _zx(q))).monic()


def _zx_quotient(a: list[int], b: Sequence[int]) -> list[int]:
    """a / b in Z[x], lowest power first, for b dividing a exactly; raises
    ArithmeticError when it does not.  Consumes a."""
    quo = [0] * (len(a) - len(b) + 1)
    db = len(b) - 1
    for k in range(len(quo) - 1, -1, -1):  # highest power first
        c, rem = divmod(a.pop(), b[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        quo[k] = c
        for j in range(db):
            a[k + j] -= c * b[j]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return quo


def square_free_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'), monic; the primitive gcd divides p's primitive
    integer multiple exactly over Z (Gauss's lemma)."""
    if p.is_zero:
        raise ValueError("square-free part of the zero polynomial")
    if p.degree == 0:
        return UniPoly((1,))
    a = list(_zx(p))
    g = _zx_gcd(a, _primitive([i * c for i, c in enumerate(a)][1:])[0])
    return UniPoly(_zx_quotient(a, g)).monic()


@lru_cache(maxsize=None)
def sturm_sequence(p: UniPoly) -> tuple[UniPoly, ...]:
    """Standard Sturm chain p, p', -rem, ... for a square-free p.

    Each later element is the negated primitive pseudo-remainder, a
    positive multiple of -rem over Q, so every sign is the textbook one.
    """
    if p.is_zero:
        raise ValueError("Sturm sequence of the zero polynomial")
    chain = [p, p.derivative()]
    a, b = _zx(p), _zx(chain[1])
    while b:
        r = _prem(a, b)[0]
        if not r:
            break
        a, b = b, [-c for c in r]
        chain.append(UniPoly(b))
    return tuple(chain)


def sign_variations(signs: Iterable[int]) -> int:
    """Sign changes along a sequence of signs (-1, 0, 1), zeros skipped."""
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def count_roots_between(p: UniPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of square-free p in (lo, hi).

    Requires p(lo) != 0 and p(hi) != 0.
    """
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return 0
    chain = sturm_sequence(p)
    at_lo = [q.sign_at(lo) for q in chain]
    at_hi = [q.sign_at(hi) for q in chain]
    if at_lo[0] == 0 or at_hi[0] == 0:
        raise ArithmeticError("endpoint is a root; internal bug")
    return sign_variations(at_lo) - sign_variations(at_hi)


def cauchy_root_bound(p: UniPoly) -> Fraction:
    """B with every real root of p strictly inside (-B, B)."""
    if p.is_zero:
        raise ValueError("root bound of the zero polynomial")
    lc = abs(p.leading)
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lc


def interval_eval(p: UniPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval extension of p over [lo, hi] by interval Horner."""
    alo = ahi = Fraction(0)
    for c in reversed(p.coeffs):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


# ---------------------------------------------------------------------------
# Bivariate polynomials (sparse)
# ---------------------------------------------------------------------------


class BiPoly:
    """Sparse polynomial in X, Y; maps exponent pairs to nonzero Fractions."""

    __slots__ = ("terms", "_key", "_flt")

    def __init__(self, terms: Mapping[tuple[int, int], RatLike] = ()):
        clean: dict[tuple[int, int], Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError("negative exponent in BiPoly")
            c = Fraction(c)
            if c == 0:
                continue
            key = (int(i), int(j))
            c = clean.get(key, Fraction(0)) + c if key in clean else c
            if c == 0:
                clean.pop(key, None)
            else:
                clean[key] = c
        self.terms: dict[tuple[int, int], Fraction] = clean
        self._key = tuple(sorted(clean.items()))
        # (float(c), i, j) in _key order; filled lazily as in UniPoly
        self._flt: tuple[tuple[float, int, int], ...] | None = None

    @staticmethod
    def monomial(i: int, j: int, c: RatLike = 1) -> "BiPoly":
        return BiPoly({(i, j): c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return BiPoly(out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: Union["BiPoly", RatLike]) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return BiPoly(out)

    def scale(self, c: RatLike) -> "BiPoly":
        c = Fraction(c)
        return BiPoly({k: c * v for k, v in self.terms.items()})

    def __call__(self, x: RatLike, y: RatLike) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return sum((c * x**i * y**j for (i, j), c in self.terms.items()), Fraction(0))

    def eval_float(self, x: float, y: float) -> float:
        flt = self._flt
        if flt is None:
            flt = self._flt = tuple((float(c), i, j) for (i, j), c in self._key)
        # left to right, uncompensated: the bits do not depend on how a
        # Python version's sum() adds floats
        acc = 0.0
        for c, i, j in flt:
            acc += c * x**i * y**j
        return acc

    def substitute_y(self, x_value: RatLike) -> UniPoly:
        """F(x_value, t) as a univariate polynomial in t."""
        x_value = Fraction(x_value)
        deg = max((j for (_, j) in self.terms), default=0)
        out = [Fraction(0)] * (deg + 1)
        for (i, j), c in self.terms.items():
            out[j] += c * x_value**i
        return UniPoly(out)

    def scale_vars(self, a: RatLike, b: RatLike) -> "BiPoly":
        """F(aX, bY)."""
        a, b = Fraction(a), Fraction(b)
        return BiPoly({(i, j): c * a**i * b**j for (i, j), c in self.terms.items()})

    def monomials(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(self._key)

    def __str__(self) -> str:
        """The polynomial as text in X, Y that parse_bi reads back."""
        parts = []
        for (i, j), c in reversed(self._key):
            factors = []
            if i:
                factors.append("X" if i == 1 else f"X^{i}")
            if j:
                factors.append("Y" if j == 1 else f"Y^{j}")
            parts.append(_coeff_prefix(c, "*".join(factors)))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self})"


def x_multiplicity(F: BiPoly) -> int:
    """Largest e with X**e dividing F."""
    if F.is_zero:
        raise ValueError("x_multiplicity of the zero polynomial")
    return min(i for (i, _) in F.terms)


def y_divides(F: BiPoly) -> bool:
    """Whether Y divides F."""
    if F.is_zero:
        raise ValueError("y_divides of the zero polynomial")
    return all(j >= 1 for (_, j) in F.terms)


def is_cxd(F: BiPoly) -> tuple[Fraction, int] | None:
    """(c, d) when F = c*X**d, else None."""
    if F.is_zero:
        raise ValueError("is_cxd of the zero polynomial")
    if len(F.terms) != 1:
        return None
    ((i, j), c), = F.terms.items()
    if j != 0:
        return None
    return c, i


# ---------------------------------------------------------------------------
# Resultants by evaluation and interpolation, over Z
# ---------------------------------------------------------------------------


def _zx_rows(p: UniPoly | Sequence[UniPoly]) -> tuple[list[list[int]], int]:
    """(rows, den): p's coefficients in t, each a polynomial in x (constant
    for a UniPoly p), scaled by the lcm den of all their denominators to
    integer lists, lowest power first."""
    rows = [(c,) for c in p.coeffs] if isinstance(p, UniPoly) else [c.coeffs for c in p]
    while rows and not rows[-1]:
        rows.pop()
    den = _int_lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in rows], den


def _horner(cs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _resultant_q(P: list[int], Q: list[int]) -> int:
    """Res(P, Q) for integer coefficient lists, lowest power first, with
    nonzero leading coefficients, by the Euclidean rule
    Res(P, Q) = (-1)**(deg P * deg Q) * lc(Q)**(deg P - deg R) * Res(Q, R)
    with R = P mod Q, on the primitive parts.  P mod Q is g / |lc Q|**steps
    times the primitive pseudo-remainder, so g**deg Q joins the numerator
    and |lc Q|**(steps * deg Q) the denominator, which divides the numerator
    exactly at the end."""
    (P, cp), (Q, cq) = _primitive(P), _primitive(Q)
    num, den = cp ** (len(Q) - 1) * cq ** (len(P) - 1), 1
    while len(Q) > 1:
        R, g, steps = _prem(P, Q)
        if not R:
            return 0
        dP, dQ = len(P) - 1, len(Q) - 1
        if dP * dQ % 2:
            num = -num
        num *= Q[-1] ** (dP - len(R) + 1) * g**dQ
        den *= abs(Q[-1]) ** (steps * dQ)
        P, Q = Q, R
    return num * Q[-1] ** (len(P) - 1) // den


def _interpolate(xs: Sequence[int], values: Sequence[int]) -> list[int]:
    """The integer coefficients, lowest power first, of the integer
    polynomial of degree below len(xs) through (xs[i], values[i]).  Divided
    differences of an integer polynomial at integer nodes are integers, so
    every division is exact."""
    c = list(values)
    n = len(c)
    for j in range(1, n):  # Newton divided differences, in place
        for i in range(n - 1, j - 1, -1):
            c[i], rem = divmod(c[i] - c[i - 1], xs[i] - xs[i - j])
            if rem:
                raise ArithmeticError("inexact divided difference; internal bug")
    out = [0] * n
    for k in range(n - 1, -1, -1):  # out = out * (x - xs[k]) + c[k]
        for i in range(n - 1, 0, -1):
            out[i] = out[i - 1] - xs[k] * out[i]
        out[0] = c[k] - xs[k] * out[0]
    return out


def resultant(p: UniPoly | Sequence[UniPoly], q: UniPoly | Sequence[UniPoly]) -> UniPoly:
    """Resultant with respect to t, exact, by evaluation and interpolation.

    Each operand is a polynomial in t: a sequence of UniPoly coefficients in
    one extra variable x, lowest power of t first, or a UniPoly read as a
    polynomial in t with constant coefficients.  The result is a UniPoly in
    x, with the sign of the Sylvester determinant.

    Each operand is scaled once to Z[x][t] by the lcm of its denominators.
    x runs over 0, 1, 2, ..., skipping every point where a leading
    coefficient in t vanishes, so that taking the resultant commutes with
    evaluation there (Collins, JACM 18, 1971); the integer values at
    deg_t A * deg_x B + deg_t B * deg_x A + 1 such points determine it.
    Interpolation runs in Z, and one Fraction is built per coefficient.
    """
    (A, da), (B, db) = _zx_rows(p), _zx_rows(q)
    if not A or not B:
        raise ValueError("resultant of a zero polynomial")
    m, n = len(A) - 1, len(B) - 1
    points = m * (max(map(len, B)) - 1) + n * (max(map(len, A)) - 1) + 1
    xs: list[int] = []
    values: list[int] = []
    x = 0
    while len(xs) < points:
        a, b = [_horner(r, x) for r in A], [_horner(r, x) for r in B]
        if a[-1] and b[-1]:
            xs.append(x)
            values.append(_resultant_q(a, b))
        x += 1
    den = da**n * db**m
    return UniPoly(Fraction(c, den) for c in _interpolate(xs, values))
