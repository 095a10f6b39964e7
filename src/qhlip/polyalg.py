"""Exact polynomial arithmetic over arbitrary-precision rationals.

Univariate polynomials are dense (the degrees in play stay small), bivariate
polynomials are sparse (quasihomogeneous supports are thin).  Everything is
immutable and every operation is a pure function, so values can be shared and
cached freely.

A `UniPoly` and a `BiPoly` are each stored once, as primitive integer terms
times a positive rational content (as FLINT's fmpq_poly and fmpq_mpoly store
theirs), so their arithmetic and evaluation, and gcds and exact divisions, run
over Z.  Gcds are heuristic, proved by exact division; Sturm chains take
pseudo-remainders scaled by |lc| > 0 only (`_prem`; Collins, JACM 14, 1967),
and Sturm counts take integer boxes (a/m, c/m).  Resultants are computed in
Z at integer points and interpolated in Z.  A UniPoly has no + - *: the
kernel negates, scales, composes and stretches, and works on ``ints``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, Mapping, Sequence, Union

RatLike = Union[Fraction, int]
_HEU_ROUNDS = 6  # evaluation points _zx_gcd tries before its fallback
_ONE = Fraction(1)


def sign(x: RatLike) -> int:
    return (x > 0) - (x < 0)


class UniPoly:
    """Dense univariate polynomial over Q, the product content * ints.

    ``ints`` holds coprime integer coefficients, lowest power first, with a
    nonzero last entry; ``content`` is a positive Fraction.  Both are unique
    to the polynomial, so equality and hashing read them.  The zero
    polynomial has no ints, content 1 and degree -1.  ``coeffs``,
    ``coeff(i)`` and ``leading`` build Fractions on read, for printing and
    JSON.
    """

    __slots__ = ("ints", "content", "_flt", "_hash")

    def __new__(cls, coeffs: Iterable[RatLike] = ()) -> "UniPoly":
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = _int_lcm(*(c.denominator for c in cs))
        return _poly([c.numerator * (den // c.denominator) for c in cs], Fraction(1, den))

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def is_constant(self) -> bool:
        return len(self.ints) <= 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self.content * c for c in self.ints)

    @property
    def leading(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.ints[-1]

    def coeff(self, i: int) -> Fraction:
        return self.content * self.ints[i] if 0 <= i < len(self.ints) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.ints == other.ints and self.content == other.content

    def __hash__(self) -> int:
        if self._hash is None:  # kept on first use, as _flt is
            self._hash = hash((self.ints, self.content.numerator, self.content.denominator))
        return self._hash

    def __neg__(self) -> "UniPoly":
        return _raw(tuple(-c for c in self.ints), self.content)

    def scale(self, c: RatLike) -> "UniPoly":
        if not c or not self.ints:
            return UniPoly()
        ints = self.ints if c > 0 else tuple(-v for v in self.ints)
        return _raw(ints, self.content * abs(c))

    def __call__(self, x: RatLike) -> Fraction:
        """Exact evaluation: integer Horner on b**n * self(a/b)."""
        b = x.denominator
        val = _horner(self.ints, x.numerator, b)
        return Fraction(self.content.numerator * val, self.content.denominator * b ** max(self.degree, 0))

    def sign_at(self, x: RatLike) -> int:
        """sign(self(x)) for a rational x, with no Fraction built."""
        return self.sign_at_ratio(x.numerator, x.denominator)

    def sign_at_ratio(self, a: int, b: int) -> int:
        """sign(self(a/b)) for integers a and b > 0, not necessarily coprime."""
        return sign(_horner(self.ints, a, b))

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in self._flt or self._floats():
            acc = acc * x + c
        return acc

    def eval_float_d2(self, x: float) -> tuple[float, float, float]:
        """(p(x), p'(x), p''(x)) in one Horner pass; p(x) has eval_float's bits."""
        v = d = h = 0.0
        for c in self._flt or self._floats():
            h = h * x + d
            d = d * x + v
            v = v * x + c
        return v, d, 2.0 * h

    def _floats(self) -> tuple[float, ...]:
        """The coefficients as floats, highest power first, each rounded once
        as float() of the Fraction coefficient is; kept in _flt on first use,
        so exact work beyond the float range never raises OverflowError."""
        num, den = self.content.as_integer_ratio()
        self._flt = tuple(num * c / den for c in reversed(self.ints))
        return self._flt

    def derivative(self) -> "UniPoly":
        return _poly([i * c for i, c in enumerate(self.ints)][1:], self.content)

    def monic(self) -> "UniPoly":
        if not self.ints:
            return self
        lc = self.ints[-1]
        return _raw(self.ints if lc > 0 else tuple(-c for c in self.ints), Fraction(1, abs(lc)))

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(t)), exact.  With b * inner = J in Z[t] and n the
        degree, b**n * self(inner) = sum c_i J**i b**(n-i), by Horner in Z[t]."""
        if not self.ints:
            return self
        a, b = inner.content.as_integer_ratio()
        J = [a * c for c in inner.ints] or [0]
        acc, bk = [self.ints[-1]], 1
        for c in self.ints[-2::-1]:
            bk *= b
            acc = _zx_mul(acc, J)
            acc[0] += c * bk
        return _poly(acc, self.content / bk)

    def stretch(self, n: int) -> "UniPoly":
        """self(t**n)."""
        if n < 1:
            raise ValueError("stretch exponent must be >= 1")
        out = [0] * (self.degree * n + 1)
        out[::n] = self.ints
        return _raw(tuple(out), self.content)

    def __str__(self) -> str:
        """The polynomial as text in t that parse_uni reads back."""
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c:
                mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
                parts.append(_coeff_prefix(c, mono))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def _raw(ints: tuple[int, ...], content: Fraction) -> UniPoly:
    """content * ints, for primitive ints with a nonzero last entry and content > 0."""
    p = object.__new__(UniPoly)
    p.ints, p.content = ints, content
    p._flt = p._hash = None
    return p


def _poly(cs: list[int], content: Fraction = _ONE) -> UniPoly:
    """The polynomial content * cs, for integers cs, lowest power first, and
    a rational content > 0.  Trims cs in place."""
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        return _raw((), _ONE)
    cs, g = _primitive(cs)
    return _raw(tuple(cs), content * g if g != 1 else content)


def linear_root(v: Fraction) -> UniPoly:
    """t - v, built directly as (1/d) (d t - n) for v = n/d in lowest terms."""
    return _raw((-v.numerator, v.denominator), Fraction(1, v.denominator))


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


def _zx_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b in Z[x] for nonempty coefficient lists, lowest power first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _horner(cs: Sequence[int], a: int, b: int = 1) -> int:
    """b**n * p(a/b) for p of degree n with integer coefficients cs, lowest
    power first, and b > 0: sum c_i a**i b**(n-i), whose sign is that of
    p(a/b).  Horner's rule on it is acc = acc*a + c_i*b**(n-i), highest
    power first (Yap, Fundamental Problems of Algorithmic Algebra, ch. 3)."""
    if not cs:
        return 0
    acc = cs[-1]
    if b == 1:
        for c in cs[-2::-1]:
            acc = acc * a + c
    else:
        bk = 1
        for c in cs[-2::-1]:
            bk *= b
            acc = acc * a + c * bk
    return acc


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
    return _poly(list(_zx_gcd(p.ints, q.ints))).monic()


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
    a = list(p.ints)
    g = _zx_gcd(a, _primitive([i * c for i, c in enumerate(a)][1:])[0])
    return _poly(_zx_quotient(a, g)).monic()


@lru_cache
def sturm_sequence(p: UniPoly) -> tuple[UniPoly, ...]:
    """Standard Sturm chain p, p', -rem, ... for a square-free p.

    Each later element is the negated primitive pseudo-remainder, a
    positive multiple of -rem over Q, so every sign is the textbook one.
    """
    if p.is_zero:
        raise ValueError("Sturm sequence of the zero polynomial")
    chain = [p, p.derivative()]
    a, b = p.ints, chain[1].ints
    while b:
        r = _prem(a, b)[0]
        if not r:
            break
        a, b = b, tuple(-c for c in r)
        chain.append(_raw(b, _ONE))
    return tuple(chain)


def sign_variations(signs: Iterable[int]) -> int:
    """Sign changes along a sequence of signs (-1, 0, 1), zeros skipped."""
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def count_roots_between(p: UniPoly, a: int, c: int, m: int) -> int:
    """Number of distinct real roots of square-free p in the box (a/m, c/m),
    for integers a <= c and m > 0.

    Requires p(a/m) != 0 and p(c/m) != 0.
    """
    if a > c:
        raise ValueError("empty interval")
    if a == c:  # a point holds no root, even where p is 0 (scripts/fuzz_sympy.py counts it so)
        return 0
    chain = sturm_sequence(p)
    at_lo = [q.sign_at_ratio(a, m) for q in chain]
    at_hi = [q.sign_at_ratio(c, m) for q in chain]
    if at_lo[0] == 0 or at_hi[0] == 0:
        raise ArithmeticError("endpoint is a root; internal bug")
    return sign_variations(at_lo) - sign_variations(at_hi)


def cauchy_root_bound(p: UniPoly) -> Fraction:
    """B with every real root of p strictly inside (-B, B), for p != 0."""
    *rest, lc = p.ints
    return Fraction(abs(lc) + max(map(abs, rest), default=0), abs(lc))


def interval_eval_ratio(p: UniPoly, a: int, c: int, m: int) -> tuple[int, int, int]:
    """(l, u, d), d > 0, with [l/d, u/d] the interval extension of p over
    [a/m, c/m], m > 0, by interval Horner on p's integers: after the k-th
    coefficient the bounds are m**k / content times those of interval Horner
    over Q, and scaling by a positive number keeps min and max.
    """
    if not p.ints:
        return 0, 0, 1
    alo = ahi = p.ints[-1]
    mk = 1
    for coef in p.ints[-2::-1]:
        mk *= m
        cands = (alo * a, alo * c, ahi * a, ahi * c)
        alo, ahi = min(cands) + coef * mk, max(cands) + coef * mk
    num, den = p.content.as_integer_ratio()
    return num * alo, num * ahi, den * mk


# ---------------------------------------------------------------------------
# Bivariate polynomials (sparse)
# ---------------------------------------------------------------------------


class BiPoly:
    """Sparse polynomial in X, Y over Q, the product content * ints, stored
    as a UniPoly is: ``ints`` maps exponent pairs, sorted, to coprime nonzero
    integers, ``_key`` is its items, and ``content`` is a positive Fraction.
    Equality and hashing read (_key, content).  The zero polynomial has no
    ints and content 1.  ``terms`` builds {(i, j): Fraction} on read."""

    __slots__ = ("ints", "content", "_key", "_flt", "_hash")

    def __new__(cls, terms: Mapping[tuple[int, int], RatLike] = ()) -> "BiPoly":
        cs = {(i, j): Fraction(c) for (i, j), c in dict(terms).items()}
        if any(type(i) is not int or type(j) is not int or i < 0 or j < 0 for i, j in cs):
            raise ValueError("BiPoly exponents must be ints >= 0")
        den = _int_lcm(*(c.denominator for c in cs.values()))
        return _bi({k: c.numerator * (den // c.denominator) for k, c in cs.items()}, 1, den)

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return {k: self.content * c for k, c in self._key}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and self._key == other._key and self.content == other.content

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._key, self.content.numerator, self.content.denominator))
        return self._hash

    def __add__(self, other: "BiPoly") -> "BiPoly":
        # over the common denominator den of the two contents
        (a, b), (c, d) = self.content.as_integer_ratio(), other.content.as_integer_ratio()
        den = _int_lcm(b, d)
        x, y = a * (den // b), c * (den // d)
        out = {k: x * v for k, v in self._key}
        for k, v in other._key:
            out[k] = out.get(k, 0) + y * v
        return _bi(out, 1, den)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return _bi({k: -c for k, c in self._key}, *self.content.as_integer_ratio())

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        (a, b), (c, d), out = self.content.as_integer_ratio(), other.content.as_integer_ratio(), {}
        for (i1, j1), c1 in self._key:
            for (i2, j2), c2 in other._key:
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        # primitive by Gauss's lemma, so _bi's gcd is 1; it drops cancelled terms
        return _bi(out, a * c, b * d)

    def float_terms(self) -> tuple[tuple[float, int, int], ...]:
        """(float(c), i, j) for each term c*X^i*Y^j, in _key order."""
        if self._flt is None:
            num, den = self.content.as_integer_ratio()
            self._flt = tuple((num * c / den, i, j) for (i, j), c in self._key)
        return self._flt

    def eval_float(self, x: float, y: float) -> float:
        # left to right, uncompensated: the bits do not depend on how a
        # Python version's sum() adds floats
        acc = 0.0
        for c, i, j in self._flt or self.float_terms():
            acc += c * x**i * y**j
        return acc

    def height(self, side: int) -> UniPoly:
        """F(side, t) as a polynomial in t; the two heights are F(1, t) and F(-1, t)."""
        out = [0] * (max((j for _, j in self.ints), default=-1) + 1)
        for (i, j), c in self._key:
            out[j] += c * side**i
        return _poly(out, self.content)

    def scale_vars(self, a: RatLike, b: RatLike) -> "BiPoly":
        """F(aX, bY)."""
        return BiPoly({(i, j): c * a**i * b**j for (i, j), c in self.terms.items()})

    def __str__(self) -> str:
        """The polynomial as text in X, Y that parse_bi reads back."""
        parts = []
        for (i, j), c in reversed(self.terms.items()):
            factors = []
            if i:
                factors.append("X" if i == 1 else f"X^{i}")
            if j:
                factors.append("Y" if j == 1 else f"Y^{j}")
            parts.append(_coeff_prefix(c, "*".join(factors)))
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"BiPoly({self})"


def _bi(ints: Mapping[tuple[int, int], int], num: int, den: int) -> BiPoly:
    """The BiPoly num/den * ints, for integer terms, zeros allowed, and
    integers num, den > 0; its content is the one Fraction built."""
    keys = sorted(k for k, c in ints.items() if c)
    cs, g = _primitive([ints[k] for k in keys])
    p = object.__new__(BiPoly)
    p.ints = dict(zip(keys, cs))
    p.content, p._key = Fraction(num * g, den) if keys else _ONE, tuple(p.ints.items())
    p._flt = p._hash = None
    return p


def x_multiplicity(F: BiPoly) -> int:
    """Largest e with X**e dividing F."""
    if F.is_zero:
        raise ValueError("x_multiplicity of the zero polynomial")
    return min(i for (i, _) in F.ints)


def y_divides(F: BiPoly) -> bool:
    """Whether Y divides F."""
    if F.is_zero:
        raise ValueError("y_divides of the zero polynomial")
    return all(j >= 1 for (_, j) in F.ints)


def is_cxd(F: BiPoly) -> tuple[Fraction, int] | None:
    """(c, d) when F = c*X**d, else None."""
    if F.is_zero:
        raise ValueError("is_cxd of the zero polynomial")
    if len(F.ints) != 1:
        return None
    ((i, j), c), = F.ints.items()
    if j != 0:
        return None
    return F.content * c, i


# ---------------------------------------------------------------------------
# Resultants by evaluation and interpolation, over Z
# ---------------------------------------------------------------------------


def _zx_rows(p: UniPoly | Sequence[Sequence[int]]) -> tuple[Sequence[Sequence[int]], int]:
    """(rows, den): integer rows as they are, with den = 1, or a UniPoly
    content * ints as constant rows scaled by the content's denominator den."""
    if not isinstance(p, UniPoly):
        return p, 1
    num, den = p.content.as_integer_ratio()
    return [[num * c] for c in p.ints], den


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


def resultant(p: UniPoly | Sequence[Sequence[int]], q: UniPoly | Sequence[Sequence[int]]) -> UniPoly:
    """Resultant with respect to t, exact, by evaluation and interpolation.

    Each operand is a polynomial in t: rows of integer coefficients in one
    extra variable x, both lowest power first (the row of t**k lists the
    coefficients of x**0, x**1, ...), or a UniPoly read as a polynomial in t
    with constant coefficients.  The last row must be nonzero.  The result
    is a UniPoly in x, with the sign of the Sylvester determinant.

    A UniPoly operand is scaled once to Z[t] by its content's denominator.
    x runs over 0, 1, 2, ..., skipping every point where a leading
    coefficient in t vanishes, so that taking the resultant commutes with
    evaluation there (Collins, JACM 18, 1971); the integer values at
    deg_t A * deg_x B + deg_t B * deg_x A + 1 such points determine it.
    Interpolation runs in Z, and one Fraction is built, for the content.
    """
    (A, da), (B, db) = _zx_rows(p), _zx_rows(q)
    if not (A and any(A[-1]) and B and any(B[-1])):
        raise ValueError("resultant of a zero polynomial or of one whose last row is zero")
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
    return _poly(_interpolate(xs, values), Fraction(1, den))
