import math

import numpy as np
import pytest

from ncplane.dynamics import NonFiniteState, compile_observable, evolve
from ncplane.expr import parse_observable
from ncplane.poly import P1, Q1

OSCILLATOR = parse_observable("(p1^2 + q1^2)/2")
ISOTROPIC = parse_observable("(p1^2 + p2^2 + q1^2 + q2^2)/2")


def test_compile_observable_matches_exact_evaluation():
    f = parse_observable("q1*p2 - theta*q2^2 + hbar*p1/3")
    fast = compile_observable(f, theta=0.25, hbar=2.0)
    for point in [(1.0, 2.0, 3.0, 4.0), (-0.5, 0.1, 0.0, 2.5)]:
        assert fast(point) == pytest.approx(
            f.evaluate(point, theta=0.25, hbar=2.0), rel=1e-14)


def test_oscillator_period_closes():
    traj = evolve(OSCILLATOR, (1.0, 0.0, 0.0, 0.0), theta=0.0,
                  t_final=2 * math.pi, dt=1e-3)
    t_end, x_end = traj[-1]
    assert t_end == pytest.approx(2 * math.pi)
    assert max(abs(x_end[i] - (1.0, 0.0, 0.0, 0.0)[i]) for i in range(4)) < 1e-6


def test_oscillator_matches_closed_form_midway():
    traj = evolve(OSCILLATOR, (1.0, 0.0, 0.0, 0.0), theta=0.0,
                  t_final=1.0, dt=1e-3)
    for t, x in traj[:: len(traj) // 10]:
        assert x[0] == pytest.approx(math.cos(t), abs=1e-9)
        assert x[2] == pytest.approx(-math.sin(t), abs=1e-9)


def test_energy_conserved_with_deformation():
    energy = compile_observable(ISOTROPIC, theta=0.3)
    traj = evolve(ISOTROPIC, (1.0, 0.5, -0.25, 0.75), theta=0.3,
                  t_final=10.0, dt=1e-3)
    e0 = energy(traj[0][1])
    drift = max(abs(energy(x) - e0) for _, x in traj[::100])
    assert drift < 1e-8


def test_linear_flow_matches_matrix_exponential():
    # quadratic H gives the linear system xdot = Pi x; exponentiate Pi
    # independently with a scaled Taylor series as the oracle
    theta = 0.4
    pi = np.array([
        [0.0, theta, 1.0, 0.0],
        [-theta, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])

    def expm(a):
        s = 8
        small = a / 2 ** s
        total = np.eye(4)
        term = np.eye(4)
        for k in range(1, 24):
            term = term @ small / k
            total = total + term
        for _ in range(s):
            total = total @ total
        return total

    x0 = np.array([1.0, -0.5, 0.25, 0.3])
    t_final = 1.5
    expected = expm(pi * t_final) @ x0
    traj = evolve(ISOTROPIC, tuple(x0), theta=theta, t_final=t_final, dt=1e-3)
    assert np.allclose(traj[-1][1], expected, atol=1e-9)


def test_step_count_rounding():
    traj = evolve(OSCILLATOR, (1.0, 0.0, 0.0, 0.0), theta=0.0,
                  t_final=1.0, dt=0.3)
    # round(1.0 / 0.3) = 3 steps of 1/3 each
    assert len(traj) == 4
    assert traj[-1][0] == pytest.approx(1.0)


def test_tiny_duration_still_takes_one_step():
    traj = evolve(OSCILLATOR, (1.0, 0.0, 0.0, 0.0), theta=0.0,
                  t_final=1e-5, dt=1.0)
    assert len(traj) == 2


def test_finite_time_blowup_is_reported():
    h = Q1 * Q1 * P1
    with pytest.raises(NonFiniteState):
        evolve(h, (1.0, 0.0, 0.0, 0.0), theta=0.0, t_final=2.0, dt=1e-3)


def test_bad_arguments():
    with pytest.raises(ValueError):
        evolve(OSCILLATOR, (1.0, 0.0, 0.0), theta=0.0, t_final=1.0, dt=0.1)
    with pytest.raises(ValueError):
        evolve(OSCILLATOR, (1.0, 0.0, 0.0, 0.0), theta=0.0, t_final=0.0, dt=0.1)
    with pytest.raises(ValueError):
        evolve(OSCILLATOR, (1.0, 0.0, 0.0, 0.0), theta=0.0, t_final=1.0, dt=-0.1)
    for t_final, dt in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf),
                        (1.0, math.nan), (1e300, 1e-300)):
        with pytest.raises(ValueError):
            evolve(OSCILLATOR, (1.0, 0.0, 0.0, 0.0), theta=0.0,
                   t_final=t_final, dt=dt)
