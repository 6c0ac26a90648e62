"""Centrally extended translation symmetry of the deformed plane.

Momentum translations fail to commute once the symplectic form carries the
theta term, and position translations pick up the usual Heisenberg phase.
Both obstructions are 2-cocycles on the abelian translation algebra:

    z1(e, e') = b_i a'^i - b'_i a^i        (position/momentum mixing)
    z2(e, e') = b_1 b'_2 - b_2 b'_1        (momentum/momentum mixing)

The group is two-step nilpotent, so its exponential coordinates are the
algebra's coordinates: a group element is the ``AlgebraElement`` it is the
exponential of, and the extended group multiplies as

    (a, b, c, d)(a', b', c', d') =
        (a + a', b + b',
         c + c' + (b_i a'^i - b'_i a^i) / 2,
         d + d' + (b_1 b'_2 - b_2 b'_1) / 2).

All arithmetic is generic over exact rationals; sticking to ``Fraction``
inputs keeps every group identity exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import HALF, Observable, P1, P2, Q1, Q2, Scalar
from .symplectic import poisson_bracket, standard_poisson_bracket

Pair = tuple


class NonConstantBracket(ValueError):
    """Moment map bracket depends on the coordinates; no central value exists."""


@dataclass(frozen=True)
class AlgebraElement:
    """Element a^i e_i + b_i f^i + c z + d s of the extended algebra.

    ``a`` generates position translations, ``b`` momentum translations,
    ``c`` and ``d`` the two central directions.
    """

    a: Pair = (0, 0)
    b: Pair = (0, 0)
    c: Fraction | int | float = 0
    d: Fraction | int | float = 0

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            (self.a[0] + other.a[0], self.a[1] + other.a[1]),
            (self.b[0] + other.b[0], self.b[1] + other.b[1]),
            self.c + other.c,
            self.d + other.d,
        )

    def scale(self, factor) -> "AlgebraElement":
        return AlgebraElement(
            (factor * self.a[0], factor * self.a[1]),
            (factor * self.b[0], factor * self.b[1]),
            factor * self.c,
            factor * self.d,
        )


# BCH, two-step nilpotent: exp(e1) exp(e2) = exp(e1 + e2 + [e1, e2] / 2)
GroupElement = AlgebraElement


def group_identity() -> GroupElement:
    return GroupElement((0, 0), (0, 0), 0, 0)


def group_multiply(g1: GroupElement, g2: GroupElement) -> GroupElement:
    mix = g1.b[0] * g2.a[0] + g1.b[1] * g2.a[1] \
        - g2.b[0] * g1.a[0] - g2.b[1] * g1.a[1]
    wedge = g1.b[0] * g2.b[1] - g1.b[1] * g2.b[0]
    return GroupElement(
        (g1.a[0] + g2.a[0], g1.a[1] + g2.a[1]),
        (g1.b[0] + g2.b[0], g1.b[1] + g2.b[1]),
        g1.c + g2.c + HALF * mix,
        g1.d + g2.d + HALF * wedge,
    )


def group_inverse(g: GroupElement) -> GroupElement:
    # the cocycles are antisymmetric, so negating every slot suffices
    return GroupElement((-g.a[0], -g.a[1]), (-g.b[0], -g.b[1]), -g.c, -g.d)


def group_commutator(g1: GroupElement, g2: GroupElement) -> GroupElement:
    product = group_multiply(group_multiply(g1, g2),
                             group_multiply(group_inverse(g1), group_inverse(g2)))
    return product


def moment_map(e: AlgebraElement) -> Observable:
    """Classical generator of the one-parameter flow of ``e``.

    Position translations are generated by the momenta; momentum
    translations by the deformation-corrected positions. The central
    directions map to the constants 1 and theta.
    """
    half_theta = Observable.constant(Scalar.theta() * HALF)
    gen_q1 = Q1 - half_theta * P2
    gen_q2 = Q2 + half_theta * P1
    return (
        e.a[0] * P1 + e.a[1] * P2
        + e.b[0] * gen_q1 + e.b[1] * gen_q2
        + Observable.constant(Fraction(e.c))
        + Fraction(e.d) * Observable.constant(Scalar.theta())
    )


def _constant_scalar_bracket(bracket: Observable) -> Scalar:
    if not bracket.is_constant:
        raise NonConstantBracket(
            "bracket of moment maps is coordinate dependent; "
            "inputs must be translation generators"
        )
    return bracket.constant_part()


def extract_cocycle(e1: AlgebraElement, e2: AlgebraElement) -> tuple[Fraction, Fraction]:
    """Central charges (z1, z2) read off the bracket of two moment maps.

    The bracket of translation generators is a constant of the form
    z1 + theta z2; anything else raises ``NonConstantBracket``.
    """
    bracket = standard_poisson_bracket(moment_map(e1), moment_map(e2))
    constant = _constant_scalar_bracket(bracket)
    z1 = constant.coefficient(theta=0, hbar=0)
    z2 = constant.coefficient(theta=1, hbar=0)
    residue = constant - Scalar.term(z1) - Scalar.term(z2, theta=1)
    if residue:
        raise NonConstantBracket("bracket constant has unexpected parameter content")
    return z1, z2


def cocycle_double_sum(e1: AlgebraElement, e2: AlgebraElement) -> Scalar:
    """Central constant under the full deformed bracket.

    Summing the deformed bivector over both index orders doubles the pure
    momentum-momentum contribution relative to ``extract_cocycle``: the
    result is z1 + 2 theta z2. Both values are reported by the CLI so the
    two bookkeepings can be compared directly.
    """
    bracket = poisson_bracket(moment_map(e1), moment_map(e2))
    return _constant_scalar_bracket(bracket)


def algebra_bracket(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Lie bracket on the extended algebra; lands in the center."""
    z1 = (e1.b[0] * e2.a[0] + e1.b[1] * e2.a[1]
          - e2.b[0] * e1.a[0] - e2.b[1] * e1.a[1])
    z2 = e1.b[0] * e2.b[1] - e1.b[1] * e2.b[0]
    return AlgebraElement((0, 0), (0, 0), z1, z2)


def homomorphism_defect(e1: AlgebraElement, e2: AlgebraElement,
                        extended: bool = True) -> Observable:
    """Bracket of moment maps minus the moment map of the bracket.

    With the central extension in place the defect vanishes identically;
    against the plain abelian algebra it is the cocycle constant itself.
    """
    lhs = standard_poisson_bracket(moment_map(e1), moment_map(e2))
    if extended:
        rhs = moment_map(algebra_bracket(e1, e2))
    else:
        rhs = Observable.zero()
    return lhs - rhs
