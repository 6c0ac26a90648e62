"""Parsing and canonical formatting of observable expressions.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | atom ('^' INTEGER)?
    atom    := NUMBER | IDENT | '(' expr ')'

``IDENT`` is one of q1, q2, p1, p2, theta, hbar. Division is only defined
by a nonzero rational constant. Numeric literals are integers or decimals
and convert exactly to rationals. An exponent above ``MAX_DEGREE``, and a
product or power whose total degree over all six variables would exceed
it, are rejected before they are computed. All errors carry the byte
offset of the offending token in the UTF-8 encoding of the source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .poly import COORD_NAMES, Observable, Scalar

MAX_SOURCE_BYTES = 65536
# A dense polynomial of degree d in six variables has C(d + 6, 6) terms,
# so the cost of one product grows like d^12. At this budget the densest
# admitted power, (q1+q2+p1+p2+theta+hbar)^12, takes about a second.
# It caps every exponent too: a constant power has degree 0, but 9^9999999
# is a 32-Mbit integer.
MAX_DEGREE = 12

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


@dataclass(frozen=True)
class _Token:
    kind: str        # "number", "ident", "op", "end"
    text: str
    offset: int      # byte offset of first char
    value: Fraction | None = None


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        match = _TOKEN_RE.match(source, i)
        if match is None or match.end() == match.start():
            # skip leading whitespace manually to report the real culprit
            j = i
            while j < n and source[j].isspace():
                j += 1
            if j >= n:
                break
            raise ParseError(_byte_offset(source, j), "a token",
                             f"unrecognized character {source[j]!r}")
        i = match.end()
        start = match.start() + len(match.group(0)) - len(match.group(0).lstrip())
        offset = _byte_offset(source, start)
        if match.group("number") is not None:
            text = match.group("number")
            if "." in text:
                whole, frac = text.split(".")
                value = Fraction(int(whole + frac), 10 ** len(frac))
            else:
                value = Fraction(int(text))
            tokens.append(_Token("number", text, offset, value))
        elif match.group("ident") is not None:
            tokens.append(_Token("ident", match.group("ident"), offset))
        else:
            tokens.append(_Token("op", match.group("op"), offset))
    tokens.append(_Token("end", "", len(source.encode("utf-8"))))
    return tokens


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


def _format_coeff_and_vars(coeff: Fraction, exponents: tuple[int, ...]) -> str:
    # parameters render before coordinates: 1/2*theta*p2, not 1/2*p2*theta
    render_order = (4, 5, 0, 1, 2, 3)
    pieces = []
    for idx in render_order:
        e = exponents[idx]
        if e == 0:
            continue
        name = _VAR_NAMES[idx]
        pieces.append(f"{name}^{e}" if e > 1 else name)
    magnitude = abs(coeff)
    if not pieces:
        return str(magnitude)
    if magnitude != 1:
        pieces.insert(0, str(magnitude))
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
        body = _format_coeff_and_vars(coeff, key)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)
