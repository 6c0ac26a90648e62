"""Classical time evolution under the deformed bracket.

Trajectories follow dx^a/dt = {x^a, H} with the bivector of the deformed
structure, integrated by a fixed-step fourth-order Runge-Kutta scheme. The
step count is chosen so the final sample lands on the requested duration
instead of overshooting it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .poly import Observable
from .symplectic import poisson_bivector

State = tuple[float, float, float, float]
TrajectoryPoint = tuple[float, State]


class NonFiniteState(RuntimeError):
    """Integration produced an overflow or NaN component."""


def compile_observable(obs: Observable, theta: float, hbar: float = 1.0
                       ) -> Callable[[Sequence[float]], float]:
    """Bake an observable into a fast float-valued callable.

    Parameter values are substituted exactly first, so the only floating
    point error is in the final monomial evaluation.
    """
    exact = obs.substitute_params(theta=Fraction(theta), hbar=Fraction(hbar))
    terms = []
    for key, coeff in exact.flat_terms():
        value = float(coeff)
        if value:
            terms.append((key[:4], value))

    def evaluate(x: Sequence[float]) -> float:
        total = 0.0
        for (e0, e1, e2, e3), c in terms:
            total += c * x[0] ** e0 * x[1] ** e1 * x[2] ** e2 * x[3] ** e3
        return total

    return evaluate


def evolve(hamiltonian: Observable, x0: Sequence[float], theta: float,
           t_final: float, dt: float, hbar: float = 1.0) -> list[TrajectoryPoint]:
    """Integrate Hamilton's equations, returning (t, state) samples.

    The number of steps is round(t_final / dt), clamped to at least one,
    and the actual step is t_final divided by that count. Raises
    ``NonFiniteState`` as soon as a component stops being finite.
    """
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError("t_final must be positive and finite")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if not math.isfinite(t_final / dt):
        raise ValueError("t_final / dt is too large")
    x = tuple(float(component) for component in x0)
    if len(x) != 4:
        raise ValueError("initial state needs four components")

    grads = [compile_observable(hamiltonian.diff(axis), theta, hbar)
             for axis in range(4)]
    origin = (0, 0, 0, 0)
    pi = [[entry.evaluate(origin, theta, hbar) for entry in row]
          for row in poisson_bivector()]

    def velocity(state):
        g = [grad(state) for grad in grads]
        return tuple(
            pi[a][0] * g[0] + pi[a][1] * g[1] + pi[a][2] * g[2] + pi[a][3] * g[3]
            for a in range(4)
        )

    steps = max(1, round(t_final / dt))
    h = t_final / steps
    half = h / 2.0

    trajectory: list[TrajectoryPoint] = [(0.0, x)]
    for i in range(steps):
        try:
            k1 = velocity(x)
            k2 = velocity(tuple(x[a] + half * k1[a] for a in range(4)))
            k3 = velocity(tuple(x[a] + half * k2[a] for a in range(4)))
            k4 = velocity(tuple(x[a] + h * k3[a] for a in range(4)))
            x = tuple(
                x[a] + (h / 6.0) * (k1[a] + 2.0 * k2[a] + 2.0 * k3[a] + k4[a])
                for a in range(4)
            )
        except OverflowError:
            raise NonFiniteState(f"state overflowed at step {i + 1}") from None
        if not all(math.isfinite(component) for component in x):
            raise NonFiniteState(f"state became non-finite at step {i + 1}")
        trajectory.append(((i + 1) * h, x))
    return trajectory
