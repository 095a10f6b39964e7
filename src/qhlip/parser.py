"""Polynomial expression parser.

Grammar: integers, rationals p/q, variables X and Y (bivariate) or t
(univariate), operators + - * ^ with non-negative integer exponents, and
parentheses.  Whitespace is ignored.  Other identifiers are parameters and
must be bound to rationals before parsing; binding a variable is an error.
Decimal literals are rejected; inputs are exact by contract.

Every input is built as a BiPoly.  parse_uni reads t as Y and returns the
height F(1, t), by the substitution that qhdecide.heights makes, so both
entry points share one set of limits.

Every literal and every value built while parsing stays within MAX_DEGREE,
MAX_TERMS and MAX_COEFF_BITS (on each coefficient in lowest terms), and a
product or power of degree above MAX_DEGREE is refused before it is expanded,
so a huge input fails at once with InputTooLargeError instead of running for
minutes.  Parentheses and prefix minus signs nest at most MAX_DEPTH deep: the
recursive descent takes six frames per parenthesis, 600 in all, within
Python's default limit of 1000.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional

from .polyalg import BiPoly, RatLike, UniPoly

#: largest (total) degree of any polynomial the parser builds
MAX_DEGREE = 100
#: most terms of any polynomial the parser builds; one in X, Y that is
#: quasihomogeneous of degree at most MAX_DEGREE has at most this many
MAX_TERMS = MAX_DEGREE + 1
#: largest bit length of a numerator or denominator of any lowest-terms coefficient
MAX_COEFF_BITS = 4096
#: most parentheses and prefix minus signs open at any point of the input
MAX_DEPTH = 100
_MAX_DIGITS = len(str(2**MAX_COEFF_BITS))
_X, _Y, _ONE = BiPoly({(1, 0): 1}), BiPoly({(0, 1): 1}), BiPoly({(0, 0): 1})  # immutable, so shared


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class InputTooLargeError(ParseError):
    """The input would build a polynomial beyond MAX_DEGREE, MAX_TERMS or
    MAX_COEFF_BITS, or nests deeper than MAX_DEPTH."""


def _int_literal(digits: str, position: int) -> int:
    # the length is checked before int(), which refuses 4,300 digits and more
    if len(digits) > _MAX_DIGITS or int(digits).bit_length() > MAX_COEFF_BITS:
        raise InputTooLargeError(f"integer literal above {MAX_COEFF_BITS} bits", position)
    return int(digits)


def _degree(p: BiPoly) -> int:
    return max((i + j for i, j in p.ints), default=-1)


def _coeff_bits(p: BiPoly) -> int:
    # content * c is (num * c / g) / (den / g) in lowest terms, g = gcd(c, den)
    num, den = p.content.as_integer_ratio()
    return max((max((num * c // g).bit_length(), (den // g).bit_length())
                for c in p.ints.values() for g in (gcd(c, den),)), default=0)


def _const(c: RatLike) -> BiPoly:
    return BiPoly({(0, 0): c})


def _checked(p: BiPoly, position: int) -> BiPoly:
    if _degree(p) > MAX_DEGREE:
        raise InputTooLargeError(f"polynomial of degree above {MAX_DEGREE}", position)
    if len(p.ints) > MAX_TERMS:
        raise InputTooLargeError(f"polynomial of more than {MAX_TERMS} terms", position)
    if _coeff_bits(p) > MAX_COEFF_BITS:
        raise InputTooLargeError(f"coefficient above {MAX_COEFF_BITS} bits", position)
    return p


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<dec>\d*\.)|(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("end", "", len(text))."""
    tokens = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        at = m.start(kind)
        if kind == "dec":
            raise ParseError("decimal literals are not supported; write an exact rational p/q", at)
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", at)
        tokens.append((kind, m.group(kind), at))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Mapping[str, BiPoly],
                 bindings: Optional[Mapping[str, Fraction]]):
        bindings = bindings or {}
        for name in variables:
            if name in bindings:
                raise ParseError(f"cannot bind the variable {name!r}", 0)
        self.tokens = _tokenize(text)
        self.i = 0
        self.names = {**{k: _const(v) for k, v in bindings.items()}, **variables}
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def nested(self, parse, pos: int) -> BiPoly:
        """parse() one level deeper, inside a parenthesis or a prefix minus."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise InputTooLargeError(f"nesting deeper than {MAX_DEPTH} levels", pos)
        value = parse()
        self.depth -= 1
        return value

    def parse(self) -> BiPoly:
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return value

    def expr(self) -> BiPoly:
        value = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                value = _checked(value + rhs if val == "+" else value - rhs, pos)
            else:
                return value

    def term(self) -> BiPoly:
        value = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                rhs = self.unary()
                if _degree(value) + _degree(rhs) > MAX_DEGREE:
                    raise InputTooLargeError(f"product of degree above {MAX_DEGREE}", pos)
                value = _checked(value * rhs, pos)
            elif kind == "op" and val == "/":
                raise ParseError(
                    "'/' is only allowed between integer literals (rational p/q)", pos
                )
            else:
                return value

    def unary(self) -> BiPoly:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.nested(self.unary, pos)
        return self.power()

    def power(self) -> BiPoly:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                raise ParseError("negative exponents are not allowed", pos)
            if kind != "num":
                raise ParseError("exponent must be a non-negative integer", pos)
            self.advance()
            exp = _int_literal(val, pos)
            if _degree(base) * exp > MAX_DEGREE:
                raise InputTooLargeError(f"power of degree above {MAX_DEGREE}", pos)
            # square and multiply; each factor is a power of base of at most
            # exp, so one above the limits means the result is too
            out = _ONE
            while exp:
                if exp & 1:
                    out = _checked(out * base, pos)
                exp >>= 1
                if exp:
                    base = _checked(base * base, pos)
            return out
        return base

    def atom(self) -> BiPoly:
        kind, val, pos = self.advance()
        if kind == "num":
            value = Fraction(_int_literal(val, pos))
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.advance()
                k3, v3, p3 = self.advance()
                if k3 != "num":
                    raise ParseError("rational literal needs an integer denominator", p3)
                den = _int_literal(v3, p3)
                if den == 0:
                    raise ParseError("zero denominator", p3)
                value /= den
            return _const(value)
        if kind == "ident":
            if val in self.names:
                return self.names[val]
            raise ParseError(f"unbound identifier {val!r}", pos)
        if kind == "op" and val == "(":
            value = self.nested(self.expr, pos)
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


def identifiers(text: str) -> set[str]:
    """The names text reads, variables and parameters alike."""
    return {val for kind, val, _ in _tokenize(text) if kind == "ident"}


def parse_uni(text: str, bindings: Optional[Mapping[str, Fraction]] = None) -> UniPoly:
    """Parse a univariate polynomial in t, read as Y and then set at X = 1."""
    return _Parser(text, {"t": _Y}, bindings).parse().height(1)


def parse_bi(text: str, bindings: Optional[Mapping[str, Fraction]] = None) -> BiPoly:
    """Parse a bivariate polynomial in X, Y."""
    return _Parser(text, {"X": _X, "Y": _Y}, bindings).parse()


def parse_rational(text: str) -> Fraction:
    """Parse an integer or p/q literal (no decimals)."""
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\s*(?:/\s*(-?\d+))?", text)
    if m is None:
        raise ParseError(
            "expected an exact rational like -3 or 5/2 (decimals are not supported)", 0
        )
    num = _int_literal(m.group(1), 0)
    den = _int_literal(m.group(2), 0) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator", 0)
    return Fraction(num, den)
