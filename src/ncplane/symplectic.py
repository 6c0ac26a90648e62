"""Symplectic structure of the deformed plane and its exact Poisson calculus.

The phase space is R^4 with coordinates (q1, q2, p1, p2) and symplectic
form

    Omega = dq^i ^ dp_i + (theta/2) eps^{ij} dp_i ^ dp_j,   eps^{12} = +1.

Its matrix, the matrix inverse and the Poisson bivector are constant in
the coordinates and are written out below as literals; the bivector is
the inverse with its momentum rows and columns reflected. Everything is
exact, and the induced brackets are

    {q1, q2} = theta,   {q^i, p_j} = delta^i_j,   {p_i, p_j} = 0.
"""

from __future__ import annotations

from .poly import HALF, ONE, THETA, Observable, P1, P2, Q1, Q2

_O = Observable.zero()

# Omega_{ab} in the coordinate basis (q1, q2, p1, p2)
_FORM = (
    (_O, _O, ONE, _O),
    (_O, _O, _O, ONE),
    (-ONE, _O, _O, THETA),
    (_O, -ONE, -THETA, _O),
)

_INVERSE = (
    (_O, THETA, -ONE, _O),
    (-THETA, _O, _O, -ONE),
    (ONE, _O, _O, _O),
    (_O, ONE, _O, _O),
)

# Pi^{ab} = {x^a, x^b}
_BIVECTOR = (
    (_O, THETA, ONE, _O),
    (-THETA, _O, _O, ONE),
    (-ONE, _O, _O, _O),
    (_O, -ONE, _O, _O),
)


class NonExactForm(ValueError):
    """The contracted 1-form is not closed, so no generating observable exists."""


def form_matrix():
    return [list(row) for row in _FORM]


def form_inverse():
    return [list(row) for row in _INVERSE]


def poisson_bivector():
    return [list(row) for row in _BIVECTOR]


def _contract(entries, vector) -> Observable:
    return sum((entry * component for entry, component in zip(entries, vector)
                if entry), Observable.zero())


def poisson_bracket(f: Observable, g: Observable) -> Observable:
    """Deformed bracket {f, g} = Pi^{ab} (d_a f)(d_b g), exact.

    With the bivector above this is the canonical bracket plus
    theta (d_{q1}f d_{q2}g - d_{q2}f d_{q1}g).
    """
    df = [f.diff(a) for a in range(4)]
    dg = [g.diff(b) for b in range(4)]
    return (df[0] * dg[2] - df[2] * dg[0] + df[1] * dg[3] - df[3] * dg[1]
            + THETA * (df[0] * dg[1] - df[1] * dg[0]))


def standard_poisson_bracket(f: Observable, g: Observable) -> Observable:
    """Undeformed bracket sum_i (d_{q^i}f d_{p_i}g - d_{p_i}f d_{q^i}g).

    Written out apart from ``poisson_bracket`` so the two stay
    independent checks of each other.
    """
    return (
        f.diff(0) * g.diff(2) - f.diff(2) * g.diff(0)
        + f.diff(1) * g.diff(3) - f.diff(3) * g.diff(1)
    )


def hamiltonian_vector_field(f: Observable) -> list[Observable]:
    """Components xi^a with xi contracted into Omega giving df.

    Solving Omega_{ab} xi^b = d_a f componentwise is xi = -Omega^{-1} df
    with the inverse acting on the index layout used here.
    """
    df = [f.diff(b) for b in range(4)]
    return [-_contract(row, df) for row in _INVERSE]


def contract_to_observable(xi: list[Observable]) -> Observable:
    """Recover f from its Hamiltonian vector field, up to the constant.

    The contraction alpha_b = xi^a Omega_{ab} must be an exact 1-form;
    otherwise the field is not Hamiltonian and ``NonExactForm`` is raised.
    The potential is rebuilt by integrating one axis at a time, with the
    integration constant fixed to zero.
    """
    if len(xi) != 4:
        raise ValueError("vector field needs four components")
    alpha = [_contract([row[b] for row in _FORM], xi) for b in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            if alpha[b].diff(a) != alpha[a].diff(b):
                raise NonExactForm(
                    f"d alpha != 0 on the ({a},{b}) plane; field is not Hamiltonian"
                )
    f = Observable.zero()
    residual = list(alpha)
    for axis in range(4):
        piece = _integrate_axis(residual[axis], axis)
        f = f + piece
        for b in range(4):
            residual[b] = residual[b] - piece.diff(b)
    for b in range(4):
        if not residual[b].is_zero:
            raise NonExactForm("nonzero residual after integration; form not exact")
    return f


def _integrate_axis(obs: Observable, axis: int) -> Observable:
    out = {}
    for key, coeff in obs.flat_terms():
        e = key[axis] + 1
        out[key[:axis] + (e,) + key[axis + 1:]] = coeff / e
    return Observable.from_flat(out)


def bopp_shift(f: Observable) -> Observable:
    """Substitute q^i -> q^i - (theta/2) eps^{ij} p_j, momenta unchanged.

    Pulls deformed coordinates back to canonical ones: the images of the
    plain coordinates under the standard bracket reproduce the deformed
    bracket relations.
    """
    half_theta = HALF * THETA
    return f.substitute({0: Q1 - half_theta * P2, 1: Q2 + half_theta * P1})
