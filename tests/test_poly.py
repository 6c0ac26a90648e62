import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplane.poly import (
    HBAR,
    ONE,
    P1,
    P2,
    Q1,
    Q2,
    THETA,
    Observable,
    Scalar,
)


def fractions_st(max_num=12, max_den=8):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def scalars_st():
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.builds(
        Scalar,
        st.dictionaries(keys, fractions_st(), max_size=3),
    )


def observables_st():
    mono = st.tuples(*[st.integers(0, 2)] * 4)
    return st.builds(
        Observable,
        st.dictionaries(mono, scalars_st(), max_size=4),
    )


class TestScalar:
    def test_zero_coefficients_are_dropped(self):
        s = Scalar({(0, 0): Fraction(0), (1, 0): Fraction(1, 2)})
        assert dict(s.terms()) == {(1, 0): Fraction(1, 2)}

    def test_constant_detection(self):
        assert Scalar.from_rational(3).is_constant
        assert not Scalar.theta().is_constant
        assert Scalar.from_rational(3).constant_value() == 3
        with pytest.raises(ValueError):
            Scalar.theta().constant_value()

    def test_arithmetic_known_values(self):
        s = (Scalar.theta() + 2) * (Scalar.theta() - 2)
        assert s == Scalar.term(1, theta=2) - 4

    def test_pow(self):
        s = Scalar.theta() + 1
        assert s ** 3 == Scalar({(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1})
        with pytest.raises(ValueError):
            s ** -1

    def test_substitute(self):
        s = Scalar.term(Fraction(1, 2), theta=2, hbar=1)
        assert s.substitute(theta=2) == Scalar.term(2, hbar=1)
        assert s.substitute(theta=2, hbar=3) == Scalar.from_rational(6)

    def test_evaluate_exact(self):
        s = Scalar.term(Fraction(3, 4), theta=1) + Scalar.term(1, hbar=2)
        assert s.evaluate(Fraction(1, 3), 2) == Fraction(1, 4) + 4

    @given(scalars_st(), scalars_st(), scalars_st())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(scalars_st())
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero


class TestFlatLayout:
    def test_scalar_arithmetic_stays_scalar(self):
        s = Scalar.theta() + Scalar.hbar()
        for value in (s + s, s - s, s * s, s ** 3, -s, 2 * s, s + 1):
            assert type(value) is Scalar
        assert type(s * Q1) is Observable
        assert type(Q1 + s) is Observable

    def test_scalar_shares_the_observable_arithmetic(self):
        for name in ("__add__", "__mul__", "__pow__"):
            assert name not in vars(Scalar)

    def test_one_map_of_six_exponents(self):
        f = (Q1 + THETA) * (P2 - HBAR) + Observable.term(Scalar.theta(), (1, 0, 0, 0))
        assert dict(f.flat_terms()) == {
            (1, 0, 0, 1, 0, 0): 1,
            (1, 0, 0, 0, 0, 1): -1,
            (0, 0, 0, 1, 1, 0): 1,
            (0, 0, 0, 0, 1, 1): -1,
            (1, 0, 0, 0, 1, 0): 1,
        }
        assert all(type(coeff) is Fraction for _, coeff in f.flat_terms())
        assert dict(f.terms())[(1, 0, 0, 0)] == Scalar.theta() - Scalar.hbar()
        assert f.constant_part() == Scalar.term(-1, theta=1, hbar=1)
        assert Observable.from_flat(dict(f.flat_terms())) == f

    def test_pow_multiplies_only_what_binary_powering_needs(self, monkeypatch):
        calls = []
        original = Observable.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        x = Q1 + THETA
        expected = ONE
        for k in range(1, 18):
            expected = expected * x
            monkeypatch.setattr(Observable, "__mul__", counting)
            calls.clear()
            power = x ** k
            monkeypatch.setattr(Observable, "__mul__", original)
            assert power == expected
            assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1


def flat_observables_st():
    # exponents 0..1 and denominators 1..12, so products collide on keys
    # whose summands have different denominators
    keys = st.tuples(*[st.integers(0, 1)] * 6)
    return st.builds(
        Observable.from_flat,
        st.dictionaries(keys, fractions_st(max_num=9, max_den=12), max_size=6),
    )


def reference_product(f, g):
    out = {}
    for ka, ca in f.flat_terms():
        for kb, cb in g.flat_terms():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {key: coeff for key, coeff in out.items() if coeff}


class TestIntegerAccumulation:
    @given(flat_observables_st(), flat_observables_st(), flat_observables_st())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_plain_fraction_double_loop(self, f, g, h):
        # (g + h) * (g - h) cancels the cross terms g*h - h*g to zero
        for left, right in ((f, g), (g + h, g - h), (f, f)):
            product = dict((left * right).flat_terms())
            assert product == reference_product(left, right)
            assert all(type(coeff) is Fraction and coeff
                       for coeff in product.values())

    def test_cancelling_sums_of_mixed_denominators(self):
        f = Observable.from_flat({(1, 0, 0, 0, 0, 0): Fraction(1, 2),
                                  (0, 1, 0, 0, 0, 0): Fraction(1, 3)})
        g = Observable.from_flat({(0, 1, 0, 0, 0, 0): Fraction(3, 4),
                                  (1, 0, 0, 0, 0, 0): Fraction(-1, 2)})
        # q1*q2: 1/2 * 3/4 - 1/3 * 1/2 = 3/8 - 1/6 = 5/24
        assert dict((f * g).flat_terms()) == {
            (2, 0, 0, 0, 0, 0): Fraction(-1, 4),
            (1, 1, 0, 0, 0, 0): Fraction(5, 24),
            (0, 2, 0, 0, 0, 0): Fraction(1, 4),
        }
        h = Observable.from_flat({(1, 0, 0, 0, 0, 0): Fraction(1, 6),
                                  (0, 1, 0, 0, 0, 0): Fraction(-1, 4)})
        # q1*q2: 1/2 * -1/4 + 1/3 * 1/6 = -1/8 + 1/18, over the lcm 72
        assert (f * h).coefficient((1, 1, 0, 0)) == Scalar.from_rational(
            Fraction(-5, 72))
        assert (f * (g - g)).is_zero

    def test_scalar_times_scalar_stays_scalar(self):
        a = Scalar.term(Fraction(1, 2), theta=1) + Scalar.term(Fraction(2, 3))
        b = Scalar.term(Fraction(3, 4), hbar=1) - Scalar.term(Fraction(5, 6))
        for product in (a * b, a * (b - b), a * Fraction(1, 7), 3 * a):
            assert type(product) is Scalar
        assert (a * b).coefficient(theta=1, hbar=1) == Fraction(3, 8)
        assert (a * b).coefficient() == Fraction(-5, 9)


class TestObservable:
    def test_coordinate_axes(self):
        assert Q1.coefficient((1, 0, 0, 0)) == Scalar.one()
        assert P2.coefficient((0, 0, 0, 1)) == Scalar.one()
        with pytest.raises(ValueError):
            Observable.coordinate(4)

    def test_diff(self):
        f = Q1 * Q1 * P2 + 3 * Q2
        assert f.diff(0) == 2 * Q1 * P2
        assert f.diff(1) == Observable.constant(3)
        assert f.diff(2).is_zero
        assert f.diff(3) == Q1 * Q1

    def test_substitute_is_ring_hom(self):
        f = Q1 * P1 + Q2
        images = {0: Q1 - THETA * P2, 1: Q2 + THETA * P1}
        g = f.substitute(images)
        expected = (Q1 - THETA * P2) * P1 + Q2 + THETA * P1
        assert g == expected

    def test_substitute_params(self):
        f = THETA * Q1 + HBAR * P1
        assert f.substitute_params(theta=Fraction(1, 2)) == \
            Observable.term(Fraction(1, 2), (1, 0, 0, 0)) + HBAR * P1
        assert f.substitute_params(theta=0, hbar=1) == P1

    def test_evaluate(self):
        f = Q1 * P2 - Q2 * P1 + THETA
        # point order is (q1, q2, p1, p2)
        assert f.evaluate((1, 2, 3, 4), theta=Fraction(1, 2)) == \
            pytest.approx(4 - 6 + 0.5)

    def test_evaluate_requires_four_components(self):
        with pytest.raises(ValueError):
            ONE.evaluate((1, 2, 3))

    @given(observables_st(), observables_st(), observables_st())
    @settings(max_examples=50, deadline=None)
    def test_ring_laws(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)

    @given(observables_st(), observables_st())
    @settings(max_examples=50, deadline=None)
    def test_leibniz_for_diff(self, f, g):
        for axis in range(4):
            assert (f * g).diff(axis) == f.diff(axis) * g + f * g.diff(axis)

    @given(observables_st())
    @settings(max_examples=50, deadline=None)
    def test_evaluation_is_ring_hom(self, f):
        rng = random.Random(7)
        point = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(4))
        theta = Fraction(1, 3)
        lhs = (f * f + 2 * f).evaluate_exact(point, theta, 1)
        v = f.evaluate_exact(point, theta, 1)
        assert lhs == v * v + 2 * v

    def test_hash_consistency(self):
        assert hash(Q1 + Q2) == hash(Q2 + Q1)
        assert len({Q1 * P1, P1 * Q1}) == 1
