import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplane.expr import format_observable
from ncplane.heisenberg import (
    AlgebraElement,
    GroupElement,
    NonConstantBracket,
    algebra_bracket,
    cocycle_double_sum,
    extract_cocycle,
    group_commutator,
    group_identity,
    group_inverse,
    group_multiply,
    homomorphism_defect,
    moment_map,
)
from ncplane.poly import Observable, Scalar
from ncplane.sampling import random_algebra_element


def fractions_st(max_num=10, max_den=6):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def algebra_elements_st():
    f = fractions_st()
    return st.builds(
        AlgebraElement,
        st.tuples(f, f),
        st.tuples(f, f),
        f,
        f,
    )


class TestGroupLaw:
    @given(algebra_elements_st(), algebra_elements_st(), algebra_elements_st())
    @settings(max_examples=80, deadline=None)
    def test_associativity(self, g1, g2, g3):
        left = group_multiply(group_multiply(g1, g2), g3)
        right = group_multiply(g1, group_multiply(g2, g3))
        assert left == right

    @given(algebra_elements_st())
    def test_identity_and_inverse(self, g):
        e = group_identity()
        assert group_multiply(g, e) == g
        assert group_multiply(e, g) == g
        assert group_multiply(g, group_inverse(g)) == e
        assert group_multiply(group_inverse(g), g) == e

    def test_known_central_corrections(self):
        g1 = GroupElement(a=(Fraction(1), Fraction(0)))
        g2 = GroupElement(b=(Fraction(1), Fraction(0)))
        prod = group_multiply(g1, g2)
        assert prod.c == Fraction(-1, 2)
        assert prod.d == 0
        # reversed order flips the sign of the correction
        assert group_multiply(g2, g1).c == Fraction(1, 2)

    def test_momentum_translations_pick_up_d(self):
        g1 = GroupElement(b=(Fraction(1), Fraction(0)))
        g2 = GroupElement(b=(Fraction(0), Fraction(1)))
        assert group_multiply(g1, g2).d == Fraction(1, 2)
        assert group_multiply(g2, g1).d == Fraction(-1, 2)

    @given(algebra_elements_st(), algebra_elements_st())
    @settings(max_examples=80, deadline=None)
    def test_product_is_bch_in_exponential_coordinates(self, e1, e2):
        # why one element type serves the group and its algebra
        assert GroupElement is AlgebraElement
        bch = e1 + e2 + algebra_bracket(e1, e2).scale(Fraction(1, 2))
        assert group_multiply(e1, e2) == bch

    def test_commutator_lands_in_center(self):
        rng = random.Random(21)
        for _ in range(100):
            g1 = random_algebra_element(rng)
            g2 = random_algebra_element(rng)
            comm = group_commutator(g1, g2)
            assert comm.a == (0, 0)
            assert comm.b == (0, 0)

    @given(algebra_elements_st(), algebra_elements_st())
    @settings(max_examples=80, deadline=None)
    def test_commutator_closed_form(self, g1, g2):
        comm = group_commutator(g1, g2)
        z1 = (g1.b[0] * g2.a[0] + g1.b[1] * g2.a[1]
              - g2.b[0] * g1.a[0] - g2.b[1] * g1.a[1])
        z2 = g1.b[0] * g2.b[1] - g1.b[1] * g2.b[0]
        assert comm.c == z1
        assert comm.d == z2


class TestMomentMap:
    def test_momentum_generator_is_shifted_position(self):
        e = AlgebraElement(b=(Fraction(0), Fraction(1)))
        assert format_observable(moment_map(e)) == "q2 + 1/2*theta*p1"
        e = AlgebraElement(b=(Fraction(1), Fraction(0)))
        assert format_observable(moment_map(e)) == "q1 - 1/2*theta*p2"

    def test_position_generator_is_momentum(self):
        e = AlgebraElement(a=(Fraction(1), Fraction(0)))
        assert format_observable(moment_map(e)) == "p1"

    def test_central_directions(self):
        e = AlgebraElement(c=Fraction(2), d=Fraction(3))
        assert format_observable(moment_map(e)) == "2 + 3*theta"

    @given(algebra_elements_st(), algebra_elements_st())
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, e1, e2):
        assert moment_map(e1 + e2) == moment_map(e1) + moment_map(e2)


class TestCocycle:
    def test_position_momentum_mixing(self):
        e1 = AlgebraElement(a=(Fraction(1), Fraction(0)))
        e2 = AlgebraElement(b=(Fraction(1), Fraction(0)))
        assert extract_cocycle(e1, e2) == (Fraction(-1), Fraction(0))
        assert extract_cocycle(e2, e1) == (Fraction(1), Fraction(0))

    def test_momentum_momentum_mixing(self):
        e1 = AlgebraElement(b=(Fraction(1), Fraction(0)))
        e2 = AlgebraElement(b=(Fraction(0), Fraction(1)))
        assert extract_cocycle(e1, e2) == (Fraction(0), Fraction(1))

    def test_balanced_pair_cancels(self):
        e1 = AlgebraElement(a=(Fraction(1), Fraction(0)), b=(Fraction(0), Fraction(1)))
        e2 = AlgebraElement(a=(Fraction(0), Fraction(1)), b=(Fraction(1), Fraction(0)))
        z1, _ = extract_cocycle(e1, e2)
        assert z1 == 0

    @given(algebra_elements_st(), algebra_elements_st())
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_formula(self, e1, e2):
        bracket = algebra_bracket(e1, e2)
        assert extract_cocycle(e1, e2) == (bracket.c, bracket.d)

    @given(algebra_elements_st(), algebra_elements_st())
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, e1, e2):
        z1, z2 = extract_cocycle(e1, e2)
        w1, w2 = extract_cocycle(e2, e1)
        assert (z1, z2) == (-w1, -w2)

    @given(algebra_elements_st(), algebra_elements_st(), algebra_elements_st(),
           fractions_st())
    @settings(max_examples=50, deadline=None)
    def test_bilinearity(self, e1, e2, e3, factor):
        z_sum = extract_cocycle(e1 + e2.scale(factor), e3)
        z_a = extract_cocycle(e1, e3)
        z_b = extract_cocycle(e2, e3)
        assert z_sum == (z_a[0] + factor * z_b[0], z_a[1] + factor * z_b[1])

    def test_double_sum_doubles_momentum_part(self):
        rng = random.Random(22)
        for _ in range(60):
            e1 = random_algebra_element(rng)
            e2 = random_algebra_element(rng)
            z1, z2 = extract_cocycle(e1, e2)
            doubled = cocycle_double_sum(e1, e2)
            expected = Scalar.term(z1) + Scalar.term(2 * z2, theta=1)
            assert doubled == expected

    def test_nonconstant_bracket_rejected(self):
        # quadratic generators fall outside the translation algebra
        from ncplane.heisenberg import _constant_scalar_bracket
        from ncplane.poly import P1, Q1
        from ncplane.symplectic import standard_poisson_bracket

        with pytest.raises(NonConstantBracket):
            _constant_scalar_bracket(standard_poisson_bracket(Q1 * Q1, P1 * Q1))


class TestHomomorphismDefect:
    @given(algebra_elements_st(), algebra_elements_st())
    @settings(max_examples=80, deadline=None)
    def test_extended_defect_vanishes(self, e1, e2):
        assert homomorphism_defect(e1, e2, extended=True).is_zero

    def test_abelian_defect_is_cocycle(self):
        e1 = AlgebraElement(a=(Fraction(1), Fraction(0)))
        e2 = AlgebraElement(b=(Fraction(1), Fraction(0)))
        defect = homomorphism_defect(e1, e2, extended=False)
        assert defect == Observable.constant(Fraction(-1))

    @given(algebra_elements_st(), algebra_elements_st())
    @settings(max_examples=50, deadline=None)
    def test_abelian_defect_matches_extract(self, e1, e2):
        z1, z2 = extract_cocycle(e1, e2)
        defect = homomorphism_defect(e1, e2, extended=False)
        expected = Observable.constant(Scalar.term(z1) + Scalar.term(z2, theta=1))
        assert defect == expected


class TestAlgebraBracket:
    @given(algebra_elements_st(), algebra_elements_st(), algebra_elements_st())
    @settings(max_examples=50, deadline=None)
    def test_jacobi(self, e1, e2, e3):
        # brackets land in the center, so nested brackets vanish identically
        total = (
            algebra_bracket(e1, algebra_bracket(e2, e3))
            + algebra_bracket(e2, algebra_bracket(e3, e1))
            + algebra_bracket(e3, algebra_bracket(e1, e2))
        )
        assert total == AlgebraElement((0, 0), (0, 0), 0, 0)

    def test_group_commutator_matches_algebra_bracket(self):
        rng = random.Random(23)
        for _ in range(100):
            e1 = random_algebra_element(rng)
            e2 = random_algebra_element(rng)
            comm = group_commutator(e1, e2)
            bracket = algebra_bracket(e1, e2)
            assert (comm.c, comm.d) == (bracket.c, bracket.d)
