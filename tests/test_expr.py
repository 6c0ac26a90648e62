import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplane.expr import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_LITERAL_DIGITS,
    ParseError,
    format_observable,
    parse_observable,
)
from ncplane.poly import HBAR, P1, P2, Q1, Q2, THETA, Observable, Scalar


class TestParse:
    def test_coordinates_and_params(self):
        assert parse_observable("q1") == Q1
        assert parse_observable("p2") == P2
        assert parse_observable("theta") == THETA
        assert parse_observable("hbar") == HBAR

    def test_precedence(self):
        assert parse_observable("q1 + q2*p1") == Q1 + Q2 * P1
        assert parse_observable("(q1 + q2)*p1") == (Q1 + Q2) * P1
        assert parse_observable("2*q1^3") == 2 * Q1 ** 3
        assert parse_observable("-q1^2") == -(Q1 ** 2)

    def test_decimal_literals_are_exact(self):
        obs = parse_observable("0.1*q1")
        assert obs.coefficient((1, 0, 0, 0)) == Scalar.from_rational(Fraction(1, 10))

    def test_division_by_constant(self):
        assert parse_observable("q1/2") == Observable.term(Fraction(1, 2), (1, 0, 0, 0))
        assert parse_observable("3/4") == Observable.constant(Fraction(3, 4))

    def test_unary_minus_chains(self):
        assert parse_observable("--q1") == Q1
        assert parse_observable("-q1 - -q2") == -Q1 + Q2

    def test_whitespace_insensitive(self):
        assert parse_observable(" q1+ q2 *p1 ") == parse_observable("q1+q2*p1")


MALFORMED = [
    # (source, expected byte offset)
    ("", 0),
    ("q1 +", 4),
    ("(q1", 3),
    ("q1)", 2),
    ("q3", 0),
    ("q1 ** q2", 4),
    ("q1 / p1", 5),
    ("q1 / 0", 5),
    ("q1 / theta", 5),
    ("q1 ^ -2", 5),
    ("1.2.3", 3),
    ("q1 $ q2", 3),
    ("q1 + + q2", 5),
    ("théta", 0),
]


class TestParseErrors:
    @pytest.mark.parametrize("source,offset", MALFORMED)
    def test_malformed_offsets(self, source, offset):
        with pytest.raises(ParseError) as exc:
            parse_observable(source)
        assert exc.value.offset == offset

    def test_offsets_are_byte_based(self):
        # U+00A0 is whitespace but two bytes wide, shifting later offsets
        with pytest.raises(ParseError) as exc:
            parse_observable("q1 + q3")
        assert exc.value.offset == 6

    def test_size_cap(self):
        big = "q1 + " * 20000 + "q1"
        with pytest.raises(ParseError) as exc:
            parse_observable(big)
        assert exc.value.offset == 65536
        assert parse_observable(big, max_bytes=200000) is not None

    @pytest.mark.parametrize("source,offset", [
        ("(q1+q2+p1+p2+theta+hbar)^100", 24),
        ("((q1+q2)^9)^9", 11),
        (f"q1^{MAX_DEGREE} * theta", len(f"q1^{MAX_DEGREE} ")),
    ])
    def test_degree_budget(self, source, offset):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_observable(source)
        assert time.perf_counter() - start < 0.1
        assert exc.value.offset == offset
        assert str(MAX_DEGREE) in exc.value.expected

    @pytest.mark.parametrize("source", ["9^9999999", f"2^{MAX_DEGREE + 1}",
                                        f"q1 + (1/2)^{MAX_DEGREE + 1}"])
    def test_exponent_cap_holds_on_constant_bases(self, source):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_observable(source)
        assert time.perf_counter() - start < 0.1
        assert exc.value.offset == source.index("^")
        assert str(MAX_DEGREE) in exc.value.expected

    def test_degree_budget_is_inclusive(self):
        assert parse_observable(f"q1^{MAX_DEGREE}") == Q1 ** MAX_DEGREE
        product = parse_observable(f"q1^{MAX_DEGREE - 1}*theta")
        assert product.degree() == MAX_DEGREE
        assert parse_observable(f"2^{MAX_DEGREE}") == Observable.constant(
            2 ** MAX_DEGREE)

    def test_nested_constant_powers_are_bounded(self):
        source = "((((((9^12)^12)^12)^12)^12)^12)"
        assert len(source.encode("utf-8")) == 31
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_observable(source)
        assert time.perf_counter() - start < 0.1
        # 9^144 has 457 bits, and 12 times that is over the budget
        assert exc.value.offset == 15 == source.index("^", 12)
        assert str(MAX_COEFF_BITS) in exc.value.expected
        assert parse_observable("(9^12)^12") == Observable.constant(9 ** 144)
        assert parse_observable("2^12") == Observable.constant(2 ** 12)

    @pytest.mark.parametrize("op", ["*", "/"])
    def test_coefficient_budget_holds_on_products(self, op):
        # 3^1728 has 2739 bits: one is within the budget, a product of two
        # is not
        big = "((3^12)^12)^12"
        source = f"{big} * q1 {op} {big}"
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_observable(source)
        assert time.perf_counter() - start < 0.1
        assert exc.value.offset == source.index(op, len(big) + 2)
        assert parse_observable(f"{big} * q1") == \
            Observable.constant(3 ** 1728) * Q1

    def test_over_long_literals(self):
        longest = "7" * MAX_LITERAL_DIGITS
        assert parse_observable(longest) == Observable.constant(int(longest))
        for source, offset in [("q1 + " + "1" * 5000, 5),
                               ("1" * (MAX_LITERAL_DIGITS + 1), 0),
                               ("q1 + 0." + "0" * MAX_LITERAL_DIGITS, 5)]:
            with pytest.raises(ParseError) as exc:
                parse_observable(source)
            assert exc.value.offset == offset
            assert str(MAX_LITERAL_DIGITS) in exc.value.expected

    def test_offsets_after_many_multibyte_characters(self):
        # each U+00A0 is whitespace two bytes wide
        source = "q1\u00a0+\u00a0" * 2000 + "q3"
        with pytest.raises(ParseError) as exc:
            parse_observable(source)
        assert exc.value.offset == len(source.encode("utf-8")) - 2

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_never_crashes_outside_parse_error(self, source):
        try:
            parse_observable(source)
        except ParseError as err:
            assert 0 <= err.offset <= len(source.encode("utf-8"))


class TestFormat:
    def test_zero(self):
        assert format_observable(Observable.zero()) == "0"

    def test_known_strings(self):
        half_theta = Scalar.term(Fraction(1, 2), theta=1)
        shifted = Q1 - Observable.constant(half_theta) * P2
        assert format_observable(shifted) == "q1 - 1/2*theta*p2"
        f = -Q1 * P1 + Q2 * P2 + THETA * P1 * P2
        assert format_observable(f) == "-q1*p1 + q2*p2 + theta*p1*p2"

    def test_degree_then_variable_order(self):
        f = P2 + Q1 + THETA + Q1 * Q1
        assert format_observable(f) == "q1 + p2 + theta + q1^2"

    def test_unit_coefficients_are_suppressed(self):
        assert format_observable(Q1 * Q2) == "q1*q2"
        assert format_observable(-Q1) == "-q1"
        assert format_observable(Observable.constant(1)) == "1"

    def test_fractional_coefficients(self):
        f = Observable.from_flat({
            (0, 0, 0, 0, 0, 0): Fraction(-3, 4),
            (1, 0, 0, 0, 0, 0): Fraction(1, 2),
            (0, 1, 0, 0, 0, 0): Fraction(-1, 3),
            (0, 0, 1, 0, 1, 0): Fraction(-7),
        })
        assert format_observable(f) == "-3/4 + 1/2*q1 - 1/3*q2 - 7*theta*p1"
        assert format_observable(Observable.constant(Fraction(1, 5))) == "1/5"
        assert format_observable(Observable.constant(-1)) == "-1"


def random_observable(rng, max_degree=4, max_terms=5):
    obs = Observable.zero()
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exps = tuple(rng.randint(0, max_degree) for _ in range(4))
            if sum(exps) <= max_degree:
                break
        coeff = Scalar.term(
            Fraction(rng.randint(-12, 12), rng.randint(1, 8)),
            theta=rng.randint(0, 2),
            hbar=rng.randint(0, 1),
        )
        obs = obs + Observable.term(coeff, exps)
    return obs


class TestRoundTrip:
    def test_parse_format_identity(self):
        rng = random.Random(42)
        for _ in range(300):
            obs = random_observable(rng)
            text = format_observable(obs)
            assert parse_observable(text) == obs
            # formatting is idempotent on its own output
            assert format_observable(parse_observable(text)) == text
