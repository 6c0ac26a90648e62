"""Operators of the deformed canonical commutation relations on the grid.

Momenta act spectrally, positions pick up a derivative correction along
the opposite axis,

    q1' = q1 + i (theta/2) d_2,    q2' = q2 - i (theta/2) d_1,

which is what closes the deformed algebra: [q1', q2'] = i theta while
[q_i', p_j] = i hbar delta_ij stays canonical. The exponentiated versions
are the translation operators ``apply_u`` (position shifts), the boosted
translations ``apply_v`` (momentum shifts, corrected by a theta-dependent
drift), and the central phases ``apply_w``.

On the grid d_j is the Fourier multiplier i k_j, so every operator here
is a real-space multiplier m(q) and a Fourier multiplier M(k), applied
through the one primitive ``grid.fourier_multiply``. A generator acts as
the sum m(q) psi + F^-1[M(k) F psi]; a group element as the product
m(q) F^-1[M(k) F psi]. With b = (b1, b2), s(b) = (theta b2/2, -theta b1/2):

    operator                 m(q)                        M(k)
    p_j   apply_momentum     0                           hbar k_j
    q1'   apply_position     q1                          -(theta/2) k2
    q2'   apply_position     q2                          +(theta/2) k1
    U(a)  apply_u            1                           exp(-i a.k)
    V(b)  apply_v            exp(i b.q)                  exp(-i s(b).k)
    W     apply_w            exp(-i (c hbar + d theta))  1 (no transform)
    (a, b, c, d) quantize_apply
                             b1 q1 + b2 q2               hbar (a1 k1 + a2 k2)
                               + c hbar + d theta          + (theta/2)(b2 k1 - b1 k2)

Every multiplier is a product or a sum of single-axis factors, so only
1-D axis arrays are ever exponentiated. A product multiplier (``U``,
``V``) costs one 2-D transform pair. A sum c1 k1 + c2 k2 (the generators)
costs one 1-D pair per axis: the same arithmetic as one 2-D pair, but a
2-D transform spreads its rounding over the whole box, where the
position multiplier of a second operator amplifies it, while a 1-D pair
keeps the rounding of a localized state inside its strip. On the verify
suite's cocycle check a 2-D pair made the residual up to 3.5 times
larger; per-axis pairs keep it within a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    Wavefunction,
    along,
    fourier_multiply,
    inner,
    norm,
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


def _check_axis(axis: int):
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")


def apply_position(wfn: Wavefunction, axis: int) -> Wavefunction:
    _check_axis(axis)
    spec = wfn.spec
    sign = -1.0 if axis == 0 else 1.0
    out = fourier_multiply(
        wfn.values,
        along(1 - axis, sign * 0.5 * spec.theta * spec.wavenumbers()))
    out += along(axis, spec.axis_points()) * wfn.values
    return Wavefunction.adopt(spec, out)


def apply_momentum(wfn: Wavefunction, axis: int) -> Wavefunction:
    _check_axis(axis)
    spec = wfn.spec
    return Wavefunction.adopt(spec, fourier_multiply(
        wfn.values, along(axis, spec.hbar * spec.wavenumbers())))


def apply_u(wfn: Wavefunction, a: Sequence[float]) -> Wavefunction:
    """Position translation by a: psi(q) -> psi(q - a)."""
    return Wavefunction.adopt(
        wfn.spec, spectral_translate(wfn.spec, wfn.values, a))


def apply_v(wfn: Wavefunction, b: Sequence[float]) -> Wavefunction:
    """Momentum boost by b with the deformation drift s(b).

    The drift s(b) = (theta b2 / 2, -theta b1 / 2) is orthogonal to b, so
    the boost phase and the drift translation commute exactly.
    """
    spec = wfn.spec
    drift = (0.5 * spec.theta * b[1], -0.5 * spec.theta * b[0])
    out = spectral_translate(spec, wfn.values, drift)
    q = spec.axis_points()
    out *= along(0, np.exp(1j * b[0] * q))
    out *= along(1, np.exp(1j * b[1] * q))
    return Wavefunction.adopt(spec, out)


def apply_w(wfn: Wavefunction, c: float, d: float) -> Wavefunction:
    """Central element: a global phase fixed by both charges."""
    spec = wfn.spec
    scale = np.exp(-1j * (c * spec.hbar + d * spec.theta))
    return Wavefunction.adopt(spec, scale * wfn.values)


def quantize_apply(element: AlgebraElement, wfn: Wavefunction) -> Wavefunction:
    """Apply the operator assigned to an algebra element.

    Translations quantize to momenta, boosts to corrected positions, and
    the central directions to multiples of the identity weighted by hbar
    and theta respectively. The sum is one real-space multiplier plus a
    Fourier multiplier c1 k1 + c2 k2, applied as one 1-D transform pair
    per axis with a nonzero coefficient.
    """
    spec = wfn.spec
    a1, a2 = (float(coeff) for coeff in element.a)
    b1, b2 = (float(coeff) for coeff in element.b)
    half_theta = 0.5 * spec.theta
    q, k = spec.axis_points(), spec.wavenumbers()
    central = float(element.c) * spec.hbar + float(element.d) * spec.theta
    out = (central + b1 * along(0, q) + b2 * along(1, q)) * wfn.values
    for axis, coeff in enumerate((spec.hbar * a1 + half_theta * b2,
                                  spec.hbar * a2 - half_theta * b1)):
        if coeff:
            out += fourier_multiply(wfn.values, along(axis, coeff * k))
    return Wavefunction.adopt(spec, out)


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


def _phase_scale(wfn: Wavefunction) -> float:
    scale = norm(wfn)
    if scale < PHASE_NORM_FLOOR:
        raise PhaseUndefined("state norm below the phase-resolution floor")
    return scale


def _exchange(wfn: Wavefunction, scale: float, first, second,
              first_once: Wavefunction, second_once: Wavefunction,
              name: str, z1: float, z2: float) -> RelationCheck:
    """Compare A B psi against B A psi, given A psi and B psi."""
    spec = wfn.spec
    forward = first(second_once)
    backward = second(first_once)
    predicted = complex(np.exp(1j * (z1 + spec.theta * z2)))
    measured = inner(backward, forward) / scale ** 2
    misaligned = predicted * backward.values
    misaligned -= forward.values
    residual = spec.step * float(np.linalg.norm(misaligned)) / scale
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
    swaps of ``a`` and ``b``. Each operator acts on ``wfn`` once; that
    first application is shared by every relation it enters.
    """
    scale = _phase_scale(wfn)
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

    # Relations run in the order that keeps at most three shared first
    # applications alive; the report keeps the canonical order.
    u1_psi, w_psi = u1(wfn), w0(wfn)
    uu = _exchange(wfn, scale, u1, u2, u1_psi, u2(wfn), "uu", 0.0, 0.0)
    uw = _exchange(wfn, scale, u1, w0, u1_psi, w_psi, "uw", 0.0, 0.0)
    v1_psi = v1(wfn)
    vu = _exchange(wfn, scale, v1, u1, v1_psi, u1_psi, "vu",
                   b[0] * a[0] + b[1] * a[1], 0.0)
    del u1_psi
    vw = _exchange(wfn, scale, v1, w0, v1_psi, w_psi, "vw", 0.0, 0.0)
    del w_psi
    vv = _exchange(wfn, scale, v1, v2, v1_psi, v2(wfn), "vv",
                   0.0, b[0] * b2[1] - b[1] * b2[0])
    return {"uu": uu, "vv": vv, "vu": vu, "uw": uw, "vw": vw}


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


def _commutator_residual(wfn: Wavefunction, scale: float, op_a, op_b,
                         a_once: Wavefunction, b_once: Wavefunction,
                         expected: complex, name: str,
                         tol: float) -> CommutatorCheck:
    """Measure [A, B] psi against ``expected`` psi, given A psi and B psi."""
    commutator = op_a(b_once).values - op_b(a_once).values
    step = wfn.spec.step
    measured = complex(np.vdot(wfn.values, commutator)) * step ** 2 / scale ** 2
    commutator -= expected * wfn.values
    denom = abs(expected) * scale if expected != 0 else scale
    error = step * float(np.linalg.norm(commutator)) / denom
    return CommutatorCheck(name, expected, measured, error, tol)


def commutator_check(wfn: Wavefunction, kind: str) -> list[CommutatorCheck]:
    """Residuals of the deformed canonical commutators on a state.

    ``qq`` probes [q1', q2'] = i theta, ``pp`` the vanishing momentum
    commutator, and ``qp`` all four pairs [q_i', p_j] = i hbar delta_ij.
    Each operator acts on ``wfn`` once; that first application is shared
    by every commutator it enters.
    """
    spec = wfn.spec
    tol = COMMUTATOR_TOLERANCES.get(kind)
    if tol is None:
        raise ValueError(f"unknown commutator kind {kind!r}")
    scale = _phase_scale(wfn)
    pos = [lambda state, axis=axis: apply_position(state, axis)
           for axis in range(2)]
    mom = [lambda state, axis=axis: apply_momentum(state, axis)
           for axis in range(2)]

    if kind == "qq":
        return [_commutator_residual(
            wfn, scale, pos[0], pos[1], pos[0](wfn), pos[1](wfn),
            1j * spec.theta, "[q1',q2']", tol)]
    if kind == "pp":
        return [_commutator_residual(
            wfn, scale, mom[0], mom[1], mom[0](wfn), mom[1](wfn),
            0.0, "[p1,p2]", tol)]
    mom_psi = [op(wfn) for op in mom]
    results = []
    for i in range(2):
        pos_psi = pos[i](wfn)
        for j in range(2):
            results.append(_commutator_residual(
                wfn, scale, pos[i], mom[j], pos_psi, mom_psi[j],
                1j * spec.hbar if i == j else 0.0,
                f"[q{i + 1}',p{j + 1}]", tol))
        del pos_psi
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
    scale = _phase_scale(wfn)

    def p1(state):
        return quantize_apply(e1, state)

    def p2(state):
        return quantize_apply(e2, state)

    return _commutator_residual(wfn, scale, p1, p2, p1(wfn), p2(wfn),
                                expected, "[P(e1),P(e2)]", tol)
