"""Polynomial expression parser.

Grammar: integers, rationals p/q, variables X and Y (bivariate) or t
(univariate), operators + - * ^ with non-negative integer exponents, and
parentheses.  Whitespace is ignored.  Other identifiers are parameters and
must be bound to rationals before parsing; binding a variable is an error.
Decimal literals are rejected; inputs are exact by contract.

Every input is built as a BiPoly.  parse_uni reads t as Y and returns the
height F(1, t), by the substitution that qhdecide.heights makes, so both
entry points share one set of limits.  A text is compiled once per set of
variables: a node that reads no parameter is built then, and each parse runs
the other steps with the same checks in the same order, then raises the
refusal that ended the compiling, if one did.

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
from functools import lru_cache, partial
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
_VARIABLES = {"X": _X, "Y": _Y, "t": _Y}


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
    for m in _TOKEN_RE.finditer(text):  # each match starts where the last ended: \S always matches
        kind = m.lastgroup
        at = m.start(kind)
        if kind == "dec":
            raise ParseError("decimal literals are not supported; write an exact rational p/q", at)
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", at)
        tokens.append((kind, m.group(kind), at))
    tokens.append(("end", "", len(text)))
    return tokens


def _binary(op: str, pos: int, p: BiPoly, q: BiPoly) -> BiPoly:
    if op == "*" and _degree(p) + _degree(q) > MAX_DEGREE:
        raise InputTooLargeError(f"product of degree above {MAX_DEGREE}", pos)
    return _checked(p * q if op == "*" else p + q if op == "+" else p - q, pos)


def _power(exp: int, pos: int, base: BiPoly) -> BiPoly:
    if _degree(base) * exp > MAX_DEGREE:
        raise InputTooLargeError(f"power of degree above {MAX_DEGREE}", pos)
    # square and multiply; each factor is a power of base of at most exp, so
    # one above the limits means the result is too
    out = _ONE
    while exp:
        if exp & 1:
            out = _checked(out * base, pos)
        exp >>= 1
        if exp:
            base = _checked(base * base, pos)
    return out


class _Program:
    """A text compiled by recursive descent: the ``names`` it reads, its ``steps``,
    its ``value`` if it reads no parameter and the ``error`` that ends it, if any."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)[::-1]  # the tokens left, the next one last
        self.names = {val for kind, val, _ in self.tokens if kind == "ident"}
        self.variables, self.steps, self.depth, self.value, self.error = variables, [], 0, None, None
        try:
            self.value = self.expr()
            kind, val, pos = self.tokens[-1]
            if kind != "end":
                raise ParseError(f"unexpected trailing input {val!r}", pos)
        except ParseError as exc:  # kept as a factory: a raise would grow its traceback
            self.error = partial(type(exc), exc.message, exc.position)

    def apply(self, fn, *operands: Optional[BiPoly]) -> Optional[BiPoly]:
        """fn(*operands) now, or None and a step (fn, operands) if one reads a parameter."""
        if None not in operands:
            return fn(*operands)
        self.steps.append((fn, operands))
        return None

    def nested(self, parse, pos: int) -> Optional[BiPoly]:
        """parse() one level deeper, inside a parenthesis or a prefix minus."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise InputTooLargeError(f"nesting deeper than {MAX_DEPTH} levels", pos)
        value = parse()
        self.depth -= 1
        return value

    def expr(self) -> Optional[BiPoly]:
        value = self.term()
        while True:
            kind, val, pos = self.tokens[-1]
            if kind == "op" and val in "+-":
                self.tokens.pop()
                value = self.apply(partial(_binary, val, pos), value, self.term())
            else:
                return value

    def term(self) -> Optional[BiPoly]:
        value = self.unary()
        while True:
            kind, val, pos = self.tokens[-1]
            if kind == "op" and val == "*":
                self.tokens.pop()
                value = self.apply(partial(_binary, val, pos), value, self.unary())
            elif kind == "op" and val == "/":
                raise ParseError("'/' is only allowed between integer literals (rational p/q)", pos)
            else:
                return value

    def unary(self) -> Optional[BiPoly]:
        kind, val, pos = self.tokens[-1]
        if kind == "op" and val == "-":
            self.tokens.pop()
            return self.apply(BiPoly.__neg__, self.nested(self.unary, pos))
        return self.power()

    def power(self) -> Optional[BiPoly]:
        base = self.atom()
        kind, val, pos = self.tokens[-1]
        if kind == "op" and val == "^":
            self.tokens.pop()
            kind, val, pos = self.tokens.pop()
            if kind == "op" and val == "-":
                raise ParseError("negative exponents are not allowed", pos)
            if kind != "num":
                raise ParseError("exponent must be a non-negative integer", pos)
            return self.apply(partial(_power, _int_literal(val, pos), pos), base)
        return base

    def atom(self) -> Optional[BiPoly]:
        kind, val, pos = self.tokens.pop()
        if kind == "num":
            value = Fraction(_int_literal(val, pos))
            k2, v2, _ = self.tokens[-1]
            if k2 == "op" and v2 == "/":
                self.tokens.pop()
                k3, v3, p3 = self.tokens.pop()
                if k3 != "num":
                    raise ParseError("rational literal needs an integer denominator", p3)
                den = _int_literal(v3, p3)
                if den == 0:
                    raise ParseError("zero denominator", p3)
                value /= den
            return _const(value)
        if kind == "ident":
            if val in self.variables:
                return _VARIABLES[val]
            self.steps.append((None, (val, pos)))  # a parameter, read when evaluated
            return None
        if kind == "op" and val == "(":
            value = self.nested(self.expr, pos)
            kind, val, pos = self.tokens.pop()
            if kind != "op" or val != ")":
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


_compile = lru_cache(_Program)  # one program per (text, variables)


def _parse(text: str, variables: tuple[str, ...], bindings: Optional[Mapping[str, Fraction]]) -> BiPoly:
    bindings = bindings or {}
    for name in variables:
        if name in bindings:
            raise ParseError(f"cannot bind the variable {name!r}", 0)
    program = _compile(text, variables)
    stack: list[BiPoly] = []
    for fn, operands in program.steps:
        if fn is None:
            name, pos = operands
            if name not in bindings:
                raise ParseError(f"unbound identifier {name!r}", pos)
            stack.append(_const(bindings[name]))
        else:
            args = [stack.pop() if v is None else v for v in reversed(operands)]
            stack.append(fn(*reversed(args)))
    if program.error is not None:
        raise program.error()
    return stack.pop() if program.value is None else program.value


def identifiers(text: str) -> set[str]:
    """The names text reads, variables and parameters alike."""
    return set(_compile(text, ("X", "Y")).names)


def parse_uni(text: str, bindings: Optional[Mapping[str, Fraction]] = None) -> UniPoly:
    """Parse a univariate polynomial in t, read as Y and then set at X = 1."""
    return _parse(text, ("t",), bindings).height(1)


def parse_bi(text: str, bindings: Optional[Mapping[str, Fraction]] = None) -> BiPoly:
    """Parse a bivariate polynomial in X, Y."""
    return _parse(text, ("X", "Y"), bindings)


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
