"""Parsing and canonical formatting of observable expressions.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | atom ('^' INTEGER)?
    atom    := NUMBER | IDENT | '(' expr ')'

``IDENT`` is one of q1, q2, p1, p2, theta, hbar. Division is only defined
by a nonzero rational constant. Numeric literals are integers or decimals
and convert exactly to rationals. An exponent above ``MAX_DEGREE``, a
product or power whose total degree over all six variables would exceed
it, and a product or power whose coefficient sizes would add up to more
than ``MAX_COEFF_BITS`` bits are rejected before they are computed, as is
a literal of more than ``MAX_LITERAL_DIGITS`` digits. All errors carry the
byte offset of the offending token in the UTF-8 encoding of the source.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .poly import COORD_NAMES, Observable, Scalar

MAX_SOURCE_BYTES = 65536
# A dense polynomial of degree d in six variables has C(d + 6, 6) terms,
# so the cost of one product grows like d^12. At this budget the densest
# admitted power, (q1+q2+p1+p2+theta+hbar)^12, takes about a second.
# It caps every exponent too: a constant power has degree 0, but 9^9999999
# is a 32-Mbit integer.
MAX_DEGREE = 12
# The exponent cap alone lets constant powers nest: each level of
# ((9^12)^12)^... multiplies the integer's size by 12. A product is
# refused when the largest coefficient sizes (bits of numerator or
# denominator) of its factors add up to more than this, and a power when
# the base's times the exponent does.
MAX_COEFF_BITS = 4096
# 10^d < 2^(10d/3), so a literal of at most this many digits fits the
# budget.
MAX_LITERAL_DIGITS = MAX_COEFF_BITS * 3 // 10

_IDENTS = {
    "q1": Observable.coordinate(0),
    "q2": Observable.coordinate(1),
    "p1": Observable.coordinate(2),
    "p2": Observable.coordinate(3),
    "theta": Observable.constant(Scalar.theta()),
    "hbar": Observable.constant(Scalar.hbar()),
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<ident>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^()]))"
)


class ParseError(ValueError):
    """Syntax or semantic error with a byte offset into the source."""

    def __init__(self, offset: int, expected: str, message: str):
        super().__init__(f"{message} (byte offset {offset}, expected {expected})")
        self.offset = offset
        self.expected = expected
        self.reason = message


class _Token(NamedTuple):
    kind: str        # "number", "ident", "op", "end"
    text: str
    offset: int      # byte offset of first char
    value: Fraction | None = None


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    # byte offset of source[mark]; advanced by encoding only the text
    # between one token and the next, so tokenizing stays linear
    mark = 0
    mark_offset = 0
    while i < n:
        match = _TOKEN_RE.match(source, i)
        if match is None:
            # skip leading whitespace manually to report the real culprit
            j = i
            while j < n and source[j].isspace():
                j += 1
            if j >= n:
                break
            offset = mark_offset + len(source[mark:j].encode("utf-8"))
            raise ParseError(offset, "a token",
                             f"unrecognized character {source[j]!r}")
        i = match.end()
        kind = match.lastgroup
        start = match.start(kind)
        mark_offset += len(source[mark:start].encode("utf-8"))
        mark = start
        text = match.group(kind)
        if kind == "number":
            whole, _, frac = text.partition(".")
            if len(whole) + len(frac) > MAX_LITERAL_DIGITS:
                raise ParseError(mark_offset,
                                 f"a literal of at most {MAX_LITERAL_DIGITS} digits",
                                 "numeric literal is too long")
            value = Fraction(int(whole + frac), 10 ** len(frac))
            tokens.append(_Token(kind, text, mark_offset, value))
        else:
            tokens.append(_Token(kind, text, mark_offset))
    tokens.append(_Token("end", "", len(source.encode("utf-8"))))
    return tokens


def _coeff_bits(value: Observable) -> int:
    """Bits of the largest numerator or denominator among the coefficients."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for _, c in value.flat_terms()), default=0)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str, message: str | None = None):
        tok = self.current
        shown = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(tok.offset, expected,
                         message or f"unexpected {shown}")

    def check_degree(self, degree: int, op: _Token):
        if degree > MAX_DEGREE:
            raise ParseError(op.offset, f"a total degree of at most {MAX_DEGREE}",
                             f"{op.text!r} would give degree {degree}")

    def check_coeff_bits(self, bits: int, op: _Token):
        if bits > MAX_COEFF_BITS:
            raise ParseError(op.offset,
                             f"coefficients of at most {MAX_COEFF_BITS} bits",
                             f"{op.text!r} would give coefficients of up to "
                             f"{bits} bits")

    def parse_expr(self) -> Observable:
        value = self.parse_term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> Observable:
        value = self.parse_factor()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance()
            start = self.current.offset
            rhs = self.parse_factor()
            if op.text == "*":
                self.check_degree(value.degree() + rhs.degree(), op)
                self.check_coeff_bits(_coeff_bits(value) + _coeff_bits(rhs), op)
                value = value * rhs
            else:
                if not rhs.is_constant:
                    raise ParseError(start, "a constant divisor",
                                     "division by a nonconstant expression")
                const = rhs.constant_part()
                if not const.is_constant:
                    raise ParseError(start, "a rational divisor",
                                     "division by a parameter-dependent expression")
                divisor = const.constant_value()
                if divisor == 0:
                    raise ParseError(start, "a nonzero divisor", "division by zero")
                self.check_coeff_bits(_coeff_bits(value) + _coeff_bits(rhs), op)
                value = value * (Fraction(1) / divisor)
        return value

    def parse_factor(self) -> Observable:
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            return -self.parse_factor()
        value = self.parse_atom()
        if self.current.kind == "op" and self.current.text == "^":
            caret = self.advance()
            if self.current.kind != "number" or self.current.value.denominator != 1:
                self.fail("a nonnegative integer exponent")
            exponent = int(self.advance().value)
            if exponent > MAX_DEGREE:
                raise ParseError(caret.offset,
                                 f"an exponent of at most {MAX_DEGREE}",
                                 f"exponent {exponent} is too large")
            self.check_degree(value.degree() * exponent, caret)
            self.check_coeff_bits(_coeff_bits(value) * exponent, caret)
            value = value ** exponent
        return value

    def parse_atom(self) -> Observable:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return Observable.constant(tok.value)
        if tok.kind == "ident":
            self.advance()
            try:
                return _IDENTS[tok.text]
            except KeyError:
                raise ParseError(tok.offset, "q1, q2, p1, p2, theta or hbar",
                                 f"unknown identifier {tok.text!r}") from None
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            value = self.parse_expr()
            if not (self.current.kind == "op" and self.current.text == ")"):
                self.fail("')'")
            self.advance()
            return value
        self.fail("a number, identifier or '('")


def parse_observable(source: str, max_bytes: int = MAX_SOURCE_BYTES) -> Observable:
    """Parse an expression string into an exact Observable."""
    encoded_len = len(source.encode("utf-8"))
    if encoded_len > max_bytes:
        raise ParseError(max_bytes, "a shorter expression",
                         f"source exceeds {max_bytes} bytes")
    parser = _Parser(_tokenize(source))
    if parser.current.kind == "end":
        parser.fail("an expression", "empty input")
    value = parser.parse_expr()
    if parser.current.kind != "end":
        parser.fail("end of input")
    return value


_VAR_NAMES = COORD_NAMES + ("theta", "hbar")


def _monomial_key(exponents: tuple[int, ...]) -> tuple:
    # graded lexicographic: total degree first, then earlier variables with
    # higher exponents sort first within a degree block
    return (sum(exponents), tuple(-e for e in exponents))


def _format_coeff_and_vars(num: int, den: int, exponents: tuple[int, ...]) -> str:
    # parameters render before coordinates: 1/2*theta*p2, not 1/2*p2*theta
    render_order = (4, 5, 0, 1, 2, 3)
    pieces = []
    for idx in render_order:
        e = exponents[idx]
        if e == 0:
            continue
        name = _VAR_NAMES[idx]
        pieces.append(f"{name}^{e}" if e > 1 else name)
    magnitude = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
    if not pieces:
        return magnitude
    if magnitude != "1":
        pieces.insert(0, magnitude)
    return "*".join(pieces)


def format_observable(obs: Observable) -> str:
    """Render an observable in canonical graded-lexicographic order.

    The output round-trips through ``parse_observable``.
    """
    flat = dict(obs.flat_terms())
    if not flat:
        return "0"
    parts = []
    for key in sorted(flat, key=_monomial_key):
        coeff = flat[key]
        num = coeff.numerator
        body = _format_coeff_and_vars(num, coeff.denominator, key)
        if not parts:
            parts.append(body if num > 0 else "-" + body)
        else:
            parts.append(("+ " if num > 0 else "- ") + body)
    return " ".join(parts)
