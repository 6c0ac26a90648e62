"""Seeded random generators for observables and algebra elements.

The verification suite and the test corpus both need reproducible random
inputs; centralizing the generators keeps their distributions identical
across the two.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .heisenberg import AlgebraElement
from .poly import Observable, Scalar


def random_fraction(rng: random.Random, max_num: int = 16, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_scalar(rng: random.Random, include_params: bool = True) -> Scalar:
    theta_pow = rng.randint(0, 2) if include_params else 0
    hbar_pow = rng.randint(0, 1) if include_params else 0
    return Scalar.term(random_fraction(rng), theta=theta_pow, hbar=hbar_pow)


def random_observable(rng: random.Random, max_degree: int = 3, max_terms: int = 4,
                      include_params: bool = True) -> Observable:
    obs = Observable.zero()
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exps = tuple(rng.randint(0, max_degree) for _ in range(4))
            if sum(exps) <= max_degree:
                break
        obs = obs + Observable.term(random_scalar(rng, include_params), exps)
    return obs


def random_algebra_element(rng: random.Random, unit_box: bool = False) -> AlgebraElement:
    if unit_box:
        def draw():
            return Fraction(rng.randint(-16, 16), 16)
    else:
        def draw():
            return random_fraction(rng)
    return AlgebraElement(
        a=(draw(), draw()),
        b=(draw(), draw()),
        c=draw(),
        d=draw(),
    )
