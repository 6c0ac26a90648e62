"""Acceptance criteria for the package, one test and one printed line each.

Every test announces its verdict on the real terminal (bypassing capture)
so a full run shows nine PASS/FAIL lines regardless of pytest verbosity.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from ncplane.cli import main as cli_main
from ncplane.dynamics import compile_observable, evolve
from ncplane.expr import ParseError, format_observable, parse_observable
from ncplane.grid import GridSpec, gaussian
from ncplane.heisenberg import (
    AlgebraElement,
    extract_cocycle,
    group_commutator,
)
from ncplane.operators import (
    commutator_check,
    quantized_cocycle_check,
    weyl_check,
)
from ncplane.poly import ONE, P1, P2, Q1, Q2, THETA
from ncplane.sampling import random_algebra_element, random_observable
from ncplane.symplectic import (
    bopp_shift,
    poisson_bracket,
    standard_poisson_bracket,
)

GRID = GridSpec(n=256, l=20.0, theta=0.1, hbar=1.0)


@pytest.fixture(scope="module")
def packet():
    return gaussian(GRID, center=(0.5, -1.0), sigma=1.2, momentum=(0.6, -0.4))


@pytest.fixture
def announce(capsys):
    def _announce(criterion: str, passed: bool, detail: str):
        line = f"{criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line)
        assert passed, line

    return _announce


def test_criterion_1_coordinate_brackets(announce):
    relations = (
        poisson_bracket(Q1, Q2) == THETA
        and poisson_bracket(Q1, P1) == ONE
        and poisson_bracket(Q2, P2) == ONE
        and poisson_bracket(Q1, P2).is_zero
        and poisson_bracket(Q2, P1).is_zero
        and poisson_bracket(P1, P2).is_zero
    )
    frozen = poisson_bracket(Q1 * P2, Q2 * P1)
    string_ok = format_observable(frozen) == "-q1*p1 + q2*p2 + theta*p1*p2"
    value_ok = frozen.evaluate_exact(
        (1, 2, 3, 4), Fraction(1, 2), 1) == Fraction(11)
    announce("criterion-1 coordinate brackets",
             relations and string_ok and value_ok,
             "exact {q1,q2}=theta relations and frozen quadratic example")


def test_criterion_2_deformed_relations_both_pictures(announce):
    deformed_side = (
        poisson_bracket(Q1, Q2) == THETA
        and poisson_bracket(Q1, P1) == ONE
        and poisson_bracket(Q2, P2) == ONE
        and poisson_bracket(P1, P2).is_zero
    )
    shifted_q1, shifted_q2 = bopp_shift(Q1), bopp_shift(Q2)
    canonical_side = (
        standard_poisson_bracket(shifted_q1, shifted_q2) == THETA
        and standard_poisson_bracket(shifted_q1, P1) == ONE
        and standard_poisson_bracket(shifted_q2, P2) == ONE
        and standard_poisson_bracket(shifted_q1, P2).is_zero
        and standard_poisson_bracket(shifted_q2, P1).is_zero
        and standard_poisson_bracket(P1, P2).is_zero
    )
    announce("criterion-2 deformed algebra",
             deformed_side and canonical_side,
             "same relations from the deformed bracket and from shifted "
             "coordinates under the standard bracket")


def test_criterion_3_shift_intertwines_brackets(announce):
    rng = random.Random(101)
    trials = 100
    failures = 0
    for _ in range(trials):
        f = random_observable(rng)
        g = random_observable(rng)
        lhs = standard_poisson_bracket(bopp_shift(f), bopp_shift(g))
        rhs = bopp_shift(poisson_bracket(f, g))
        if lhs != rhs:
            failures += 1
    announce("criterion-3 shift equivalence", failures == 0,
             f"exact agreement on {trials} random observables "
             f"({failures} failures)")


def test_criterion_4_group_commutator_matches_cocycle(announce):
    rng = random.Random(102)
    trials = 200
    failures = 0
    for _ in range(trials):
        e1 = random_algebra_element(rng)
        e2 = random_algebra_element(rng)
        comm = group_commutator(e1, e2)
        if (comm.c, comm.d) != extract_cocycle(e1, e2):
            failures += 1
    known = (
        extract_cocycle(AlgebraElement(a=(Fraction(1), Fraction(0))),
                        AlgebraElement(b=(Fraction(1), Fraction(0))))
        == (Fraction(-1), Fraction(0))
        and extract_cocycle(AlgebraElement(b=(Fraction(1), Fraction(0))),
                            AlgebraElement(b=(Fraction(0), Fraction(1))))
        == (Fraction(0), Fraction(1))
    )
    announce("criterion-4 central extension", failures == 0 and known,
             f"group commutators reproduce both cocycles exactly on "
             f"{trials} rational pairs")


def test_criterion_5_grid_commutators(announce, packet):
    qq = commutator_check(packet, "qq")[0]
    pp = commutator_check(packet, "pp")[0]
    qp = max(commutator_check(packet, "qp"), key=lambda c: c.error)
    passed = qq.error < 1e-6 and pp.error < 1e-10 and qp.error < 1e-6
    announce("criterion-5 grid commutators", passed,
             f"[q1',q2']=i*theta err={qq.error:.2e} (tol 1e-6), "
             f"[p1,p2]=0 err={pp.error:.2e} (tol 1e-10), "
             f"[qi',pj]=i*hbar*delta worst err={qp.error:.2e} (tol 1e-6)")


def test_criterion_6_quantized_cocycle(announce, packet):
    rng = random.Random(103)
    trials = 50
    worst = 0.0
    for _ in range(trials):
        e1 = random_algebra_element(rng, unit_box=True)
        e2 = random_algebra_element(rng, unit_box=True)
        result = quantized_cocycle_check(packet, e1, e2)
        worst = max(worst, result.error)
    announce("criterion-6 operator cocycle", worst < 1e-6,
             f"[P(e1),P(e2)] = i(hbar z1 + theta z2) on {trials} pairs, "
             f"worst err={worst:.2e} (tol 1e-6)")


def test_criterion_7_weyl_relations(announce, packet):
    checks = weyl_check(packet, a=(0.8, 0.3), b=(0.5, -0.7))
    tols = {"uu": 1e-10, "vv": 1e-8, "vu": 1e-8, "uw": 1e-12, "vw": 1e-12}
    passed = all(checks[name].error < tol for name, tol in tols.items())
    worst = max(checks.values(), key=lambda c: c.error)
    announce("criterion-7 weyl relations", passed,
             f"five exchange phases within tolerance, worst "
             f"{worst.name} err={worst.error:.2e}")


MALFORMED = [
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


def test_criterion_8_parser_round_trip_and_errors(announce, capsys):
    rng = random.Random(104)
    trials = 500
    round_trip_failures = 0
    for _ in range(trials):
        obs = random_observable(rng, max_degree=4, max_terms=6)
        if parse_observable(format_observable(obs)) != obs:
            round_trip_failures += 1

    offset_failures = 0
    for source, offset in MALFORMED:
        try:
            parse_observable(source)
            offset_failures += 1
        except ParseError as err:
            if err.offset != offset:
                offset_failures += 1
        code = cli_main(["bracket", source, "q1"])
        captured = capsys.readouterr()
        if code != 2 or f"byte offset {offset}" not in captured.err:
            offset_failures += 1

    announce("criterion-8 parser",
             round_trip_failures == 0 and offset_failures == 0,
             f"format/parse identity on {trials} random observables and "
             f"{len(MALFORMED)} malformed inputs rejected with exact byte "
             f"offsets through both the library and the CLI")


def test_criterion_9_classical_dynamics(announce):
    oscillator = parse_observable("(p1^2 + q1^2)/2")
    trajectory = evolve(oscillator, (1.0, 0.0, 0.0, 0.0), theta=0.0,
                        t_final=2 * np.pi, dt=1e-3)
    closure = max(abs(trajectory[-1][1][axis] - (1.0, 0.0, 0.0, 0.0)[axis])
                  for axis in range(4))

    isotropic = parse_observable("(p1^2 + p2^2 + q1^2 + q2^2)/2")
    energy = compile_observable(isotropic, theta=0.3)
    path = evolve(isotropic, (1.0, 0.5, -0.25, 0.75), theta=0.3,
                  t_final=10.0, dt=1e-3)
    e0 = energy(path[0][1])
    drift = max(abs(energy(state) - e0) for _, state in path[::100])

    announce("criterion-9 dynamics",
             closure < 1e-6 and drift < 1e-8,
             f"oscillator orbit closes to {closure:.2e} after one period "
             f"(tol 1e-6); energy drift {drift:.2e} over t=10 at theta=0.3 "
             f"(tol 1e-8)")
