"""Operators of the deformed canonical commutation relations on the grid.

Momenta act spectrally, positions pick up a derivative correction along
the opposite axis,

    q1' = q1 + i (theta/2) d_2,    q2' = q2 - i (theta/2) d_1,

which is what closes the deformed algebra: [q1', q2'] = i theta while
[q_i', p_j] = i hbar delta_ij stays canonical. The exponentiated versions
are the translation operators ``apply_u`` (position shifts), the boosted
translations ``apply_v`` (momentum shifts, corrected by a theta-dependent
drift), and the central phases ``apply_w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    Wavefunction,
    inner,
    norm,
    spectral_derivative,
    spectral_translate,
)
from .heisenberg import AlgebraElement

PHASE_NORM_FLOOR = 1e-12

RELATION_TOLERANCES = {
    "uu": 1e-10,
    "vv": 1e-8,
    "vu": 1e-8,
    "uw": 1e-12,
    "vw": 1e-12,
}

COMMUTATOR_TOLERANCES = {
    "qq": 1e-6,
    "pp": 1e-10,
    "qp": 1e-6,
}


class PhaseUndefined(ValueError):
    """State norm is too small for a relative phase to mean anything."""


def apply_position(wfn: Wavefunction, axis: int) -> Wavefunction:
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    spec = wfn.spec
    meshes = spec.meshes()
    multiplied = meshes[axis] * wfn.values
    other = 1 - axis
    correction = spectral_derivative(spec, wfn.values, other)
    sign = 1.0 if axis == 0 else -1.0
    return Wavefunction(spec, multiplied + sign * 0.5j * spec.theta * correction)


def apply_momentum(wfn: Wavefunction, axis: int) -> Wavefunction:
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    spec = wfn.spec
    return Wavefunction(
        spec, -1j * spec.hbar * spectral_derivative(spec, wfn.values, axis))


def apply_u(wfn: Wavefunction, a: Sequence[float]) -> Wavefunction:
    """Position translation by a: psi(q) -> psi(q - a)."""
    return Wavefunction(wfn.spec, spectral_translate(wfn.spec, wfn.values, a))


def apply_v(wfn: Wavefunction, b: Sequence[float]) -> Wavefunction:
    """Momentum boost by b with the deformation drift s(b).

    The drift s(b) = (theta b2 / 2, -theta b1 / 2) is orthogonal to b, so
    the boost phase and the drift translation commute exactly.
    """
    spec = wfn.spec
    drift = (0.5 * spec.theta * b[1], -0.5 * spec.theta * b[0])
    shifted = spectral_translate(spec, wfn.values, drift)
    q1, q2 = spec.meshes()
    phase = np.exp(1j * (b[0] * q1 + b[1] * q2))
    return Wavefunction(spec, phase * shifted)


def apply_w(wfn: Wavefunction, c: float, d: float) -> Wavefunction:
    """Central element: a global phase fixed by both charges."""
    spec = wfn.spec
    scale = np.exp(-1j * (c * spec.hbar + d * spec.theta))
    return Wavefunction(spec, scale * wfn.values)


def quantize_apply(element: AlgebraElement, wfn: Wavefunction) -> Wavefunction:
    """Apply the operator assigned to an algebra element.

    Translations quantize to momenta, boosts to corrected positions, and
    the central directions to multiples of the identity weighted by hbar
    and theta respectively.
    """
    spec = wfn.spec
    total = np.zeros_like(wfn.values)
    for axis in range(2):
        coeff = float(element.a[axis])
        if coeff:
            total = total + coeff * apply_momentum(wfn, axis).values
        coeff = float(element.b[axis])
        if coeff:
            total = total + coeff * apply_position(wfn, axis).values
    central = float(element.c) * spec.hbar + float(element.d) * spec.theta
    if central:
        total = total + central * wfn.values
    return Wavefunction(spec, total)


@dataclass(frozen=True)
class RelationCheck:
    name: str
    predicted: complex
    measured: complex
    error: float
    tol: float
    cocycle: tuple[float, float]   # (z1, z2) charges behind the phase

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


def _exchange(wfn: Wavefunction, first, second, name: str,
              z1: float, z2: float) -> RelationCheck:
    spec = wfn.spec
    scale = norm(wfn)
    if scale < PHASE_NORM_FLOOR:
        raise PhaseUndefined("state norm below the phase-resolution floor")
    forward = first(second(wfn))
    backward = second(first(wfn))
    predicted = complex(np.exp(1j * (z1 + spec.theta * z2)))
    measured = inner(backward, forward) / scale ** 2
    aligned = forward.values - predicted * backward.values
    residual = spec.step * float(np.linalg.norm(aligned)) / scale
    error = max(residual, abs(measured - predicted))
    return RelationCheck(name, predicted, measured, error,
                         RELATION_TOLERANCES[name], (z1, z2))


def weyl_check(wfn: Wavefunction, a: Sequence[float], b: Sequence[float],
               a2: Sequence[float] | None = None,
               b2: Sequence[float] | None = None,
               w: Sequence[float] = (1.0, 1.0)) -> dict[str, RelationCheck]:
    """Measure the five exchange phases of the exponentiated operators.

    Compares each operator pair applied in both orders against the phase
    the group cocycles dictate: translations commute, boosts exchange with
    phase exp(i theta (b1 b2' - b2 b1')), and a boost passes a translation
    at the cost of exp(i b . a). The central element commutes with
    everything. Defaults exercise the mixed relations with the component
    swaps of ``a`` and ``b``.
    """
    if a2 is None:
        a2 = (a[1], a[0])
    if b2 is None:
        b2 = (b[1], b[0])

    def u1(state):
        return apply_u(state, a)

    def u2(state):
        return apply_u(state, a2)

    def v1(state):
        return apply_v(state, b)

    def v2(state):
        return apply_v(state, b2)

    def w0(state):
        return apply_w(state, w[0], w[1])

    checks = {
        "uu": _exchange(wfn, u1, u2, "uu", 0.0, 0.0),
        "vv": _exchange(wfn, v1, v2, "vv", 0.0,
                        b[0] * b2[1] - b[1] * b2[0]),
        "vu": _exchange(wfn, v1, u1, "vu",
                        b[0] * a[0] + b[1] * a[1], 0.0),
        "uw": _exchange(wfn, u1, w0, "uw", 0.0, 0.0),
        "vw": _exchange(wfn, v1, w0, "vw", 0.0, 0.0),
    }
    return checks


@dataclass(frozen=True)
class CommutatorCheck:
    name: str
    expected: complex
    measured: complex
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


def _commutator_residual(wfn: Wavefunction, op_a, op_b, expected: complex,
                         name: str, tol: float) -> CommutatorCheck:
    scale = norm(wfn)
    if scale < PHASE_NORM_FLOOR:
        raise PhaseUndefined("state norm below the phase-resolution floor")
    ab = op_a(op_b(wfn))
    ba = op_b(op_a(wfn))
    commutator = ab.values - ba.values
    step = wfn.spec.step
    measured = complex(np.vdot(wfn.values, commutator)) * step ** 2 / scale ** 2
    defect = commutator - expected * wfn.values
    denom = abs(expected) * scale if expected != 0 else scale
    error = step * float(np.linalg.norm(defect)) / denom
    return CommutatorCheck(name, expected, measured, error, tol)


def commutator_check(wfn: Wavefunction, kind: str) -> list[CommutatorCheck]:
    """Residuals of the deformed canonical commutators on a state.

    ``qq`` probes [q1', q2'] = i theta, ``pp`` the vanishing momentum
    commutator, and ``qp`` all four pairs [q_i', p_j] = i hbar delta_ij.
    """
    spec = wfn.spec
    tol = COMMUTATOR_TOLERANCES.get(kind)
    if tol is None:
        raise ValueError(f"unknown commutator kind {kind!r}")

    def pos(axis):
        return lambda state: apply_position(state, axis)

    def mom(axis):
        return lambda state: apply_momentum(state, axis)

    if kind == "qq":
        return [_commutator_residual(
            wfn, pos(0), pos(1), 1j * spec.theta, "[q1',q2']", tol)]
    if kind == "pp":
        return [_commutator_residual(
            wfn, mom(0), mom(1), 0.0, "[p1,p2]", tol)]
    results = []
    for i in range(2):
        for j in range(2):
            expected = 1j * spec.hbar if i == j else 0.0
            results.append(_commutator_residual(
                wfn, pos(i), mom(j), expected,
                f"[q{i + 1}',p{j + 1}]", tol))
    return results


def quantized_cocycle_check(wfn: Wavefunction, e1: AlgebraElement,
                            e2: AlgebraElement, tol: float = 1e-6
                            ) -> CommutatorCheck:
    """Commutator of two quantized generators against the central charge.

    The operator bracket of the quantization must reproduce
    i (hbar z1 + theta z2) on the nose; this is the operator-level shadow
    of the classical cocycle.
    """
    from .heisenberg import algebra_bracket

    spec = wfn.spec
    bracket = algebra_bracket(e1, e2)
    expected = 1j * (spec.hbar * float(bracket.c) + spec.theta * float(bracket.d))
    return _commutator_residual(
        wfn,
        lambda state: quantize_apply(e1, state),
        lambda state: quantize_apply(e2, state),
        expected, "[P(e1),P(e2)]", tol)
