"""Self-contained verification suite over every layer of the package.

Each check is either exact (algebraic identities on random rational
inputs, where any failure is a hard zero-tolerance event) or numeric
(grid representation residuals with per-check tolerances). The suite
report serializes deterministically so runs can be diffed.

The exact checks of the bracket algebra and of the group layer are two
tables, ``BRACKET_IDENTITIES`` and ``GROUP_IDENTITIES``. Each entry names
an identity, its trial count, how one trial's inputs are drawn from the
seeded rng, and the identity itself; one loop runs a table and reports
the number of failed trials as the check's error. The tables run in
order from one shared rng, so their draws fix the report.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dynamics import evolve
from .expr import format_observable, parse_observable
from .grid import GridSpec, TailOverflow, gaussian, norm
from .heisenberg import (
    AlgebraElement,
    algebra_bracket,
    extract_cocycle,
    group_commutator,
    group_identity,
    group_inverse,
    group_multiply,
    homomorphism_defect,
)
from .operators import (
    apply_u,
    apply_v,
    apply_w,
    commutator_check,
    quantized_cocycle_check,
    weyl_check,
)
from .poly import ONE, Observable, P1, P2, Q1, Q2, THETA
from .sampling import random_algebra_element, random_fraction, random_observable
from .symplectic import (
    bopp_shift,
    contract_to_observable,
    hamiltonian_vector_field,
    poisson_bracket,
    standard_poisson_bracket,
)

REPORT_VERSION = "verify-report/1"

EXACT_TOL = 0.0


@dataclass(frozen=True)
class RunConfig:
    theta: float = 0.1
    hbar: float = 1.0
    grid_n: int = 256
    box_l: float = 20.0
    seed: int = 0
    tol: float | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: dict
    measured: object
    expected: object
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.tol


@dataclass
class SuiteReport:
    config: RunConfig
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_text(self) -> str:
        lines = []
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            lines.append(
                f"{verdict} {check.name}: error={check.error:.3e} "
                f"tol={check.tol:.3e}")
        lines.append(f"{'PASS' if self.passed else 'FAIL'} overall "
                     f"({len(self.checks)} checks)")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "version": REPORT_VERSION,
            "config": {
                "theta": self.config.theta,
                "hbar": self.config.hbar,
                "grid_n": self.config.grid_n,
                "box_l": self.config.box_l,
                "seed": self.config.seed,
                "tol": self.config.tol,
            },
            "checks": [
                {
                    "name": check.name,
                    "params": {key: _render(value)
                               for key, value in sorted(check.params.items())},
                    "measured": _render(check.measured),
                    "expected": _render(check.expected),
                    "error": check.error,
                    "tol": check.tol,
                    "passed": check.passed,
                }
                for check in self.checks
            ],
            "pass": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _worst(errors: list[float]) -> float:
    """Largest error, or NaN if any is NaN (``max`` would drop it)."""
    return math.nan if any(map(math.isnan, errors)) else max(errors)


def _render(value):
    if isinstance(value, complex):
        return f"{value.real:.16e}{value.imag:+.16e}j"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


class _Collector:
    def __init__(self, config: RunConfig):
        self.config = config
        self.checks: list[CheckResult] = []

    def add(self, name: str, params: dict, measured, expected,
            error: float, tol: float):
        if self.config.tol is not None:
            tol = self.config.tol
        self.checks.append(CheckResult(
            name, params, measured, expected, float(error), tol))

    def exact(self, name: str, trials: int, failures: int):
        self.add(name, {"trials": trials, "seed": self.config.seed},
                 failures, 0, failures, EXACT_TOL)


def _observables(rng: random.Random, count: int, **shape) -> tuple:
    return tuple(random_observable(rng, **shape) for _ in range(count))


def _elements(rng: random.Random, count: int) -> tuple:
    return tuple(random_algebra_element(rng) for _ in range(count))


def _without_constant(f: Observable) -> Observable:
    return f - Observable.constant(f.constant_part())


def _central(g: AlgebraElement) -> tuple:
    return g.c, g.d


@dataclass(frozen=True)
class Identity:
    """An exact identity checked on ``trials`` seeded random draws.

    ``draw(rng)`` returns the inputs of one trial and ``holds(*inputs)``
    says whether the identity holds on them. Both reach the layers through
    module-level names at call time, so a patched name takes effect.
    """

    name: str
    trials: int
    draw: Callable[[random.Random], tuple]
    holds: Callable[..., bool]


BRACKET_IDENTITIES = (
    Identity("bracket-antisymmetry", 200,
             lambda rng: _observables(rng, 2),
             lambda f, g: poisson_bracket(f, g) == -poisson_bracket(g, f)),
    Identity("bracket-leibniz", 200,
             lambda rng: _observables(rng, 3, max_degree=2),
             lambda f, g, h: poisson_bracket(f, g * h)
             == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)),
    Identity("bracket-jacobi", 200,
             lambda rng: _observables(rng, 3, max_degree=2, max_terms=3),
             lambda f, g, h: (poisson_bracket(f, poisson_bracket(g, h))
                              + poisson_bracket(g, poisson_bracket(h, f))
                              + poisson_bracket(h, poisson_bracket(f, g))
                              ).is_zero),
    Identity("hamiltonian-exactness-roundtrip", 200,
             lambda rng: (_without_constant(random_observable(rng)),),
             lambda f: contract_to_observable(
                 hamiltonian_vector_field(f)) == f),
    Identity("bopp-oracle-equivalence", 100,
             lambda rng: _observables(rng, 2),
             lambda f, g: standard_poisson_bracket(bopp_shift(f), bopp_shift(g))
             == bopp_shift(poisson_bracket(f, g))),
    Identity("theta-zero-limit", 100,
             lambda rng: _observables(rng, 2),
             lambda f, g: poisson_bracket(f, g).substitute_params(theta=0)
             == standard_poisson_bracket(f.substitute_params(theta=0),
                                         g.substitute_params(theta=0))),
)

GROUP_IDENTITIES = (
    Identity("group-associativity", 500,
             lambda rng: _elements(rng, 3),
             lambda g1, g2, g3: group_multiply(group_multiply(g1, g2), g3)
             == group_multiply(g1, group_multiply(g2, g3))),
    Identity("group-inverse", 200,
             lambda rng: _elements(rng, 1),
             lambda g: group_multiply(g, group_inverse(g)) == group_identity()),
    Identity("cocycle-antisymmetry", 200,
             lambda rng: _elements(rng, 2),
             lambda e1, e2: extract_cocycle(e1, e2)
             == tuple(-z for z in extract_cocycle(e2, e1))),
    Identity("cocycle-bilinearity", 200,
             lambda rng: (*_elements(rng, 3), random_fraction(rng)),
             lambda e1, e2, e3, k: extract_cocycle(e1 + e2.scale(k), e3)
             == tuple(za + k * zb for za, zb in zip(extract_cocycle(e1, e3),
                                                    extract_cocycle(e2, e3)))),
    Identity("homomorphism-defect-extended", 200,
             lambda rng: _elements(rng, 2),
             lambda e1, e2: homomorphism_defect(e1, e2, extended=True).is_zero),
    Identity("commutator-cocycle-match", 200,
             lambda rng: _elements(rng, 2),
             lambda e1, e2: _central(group_commutator(e1, e2))
             == extract_cocycle(e1, e2)),
    Identity("algebra-jacobi", 200,
             lambda rng: _elements(rng, 3),
             lambda e1, e2, e3: (algebra_bracket(e1, algebra_bracket(e2, e3))
                                 + algebra_bracket(e2, algebra_bracket(e3, e1))
                                 + algebra_bracket(e3, algebra_bracket(e1, e2))
                                 ) == AlgebraElement()),
)


def _check_identities(col: _Collector, rng: random.Random, identities):
    for identity in identities:
        failures = sum(not identity.holds(*identity.draw(rng))
                       for _ in range(identity.trials))
        col.exact(identity.name, identity.trials, failures)


def _check_bracket_algebra(col: _Collector, rng: random.Random):
    _check_identities(col, rng, BRACKET_IDENTITIES[:3])
    # the fixed-input relations keep their place after the Jacobi identity
    relations_hold = (
        poisson_bracket(Q1, Q2) == THETA
        and poisson_bracket(Q1, P1) == ONE
        and poisson_bracket(Q2, P2) == ONE
        and poisson_bracket(Q1, P2).is_zero
        and poisson_bracket(Q2, P1).is_zero
        and poisson_bracket(P1, P2).is_zero
    )
    col.add("noncommutative-coordinate-brackets", {},
            format_observable(poisson_bracket(Q1, Q2)), "theta",
            0.0 if relations_hold else 1.0, EXACT_TOL)
    _check_identities(col, rng, BRACKET_IDENTITIES[3:])


def _check_group(col: _Collector, rng: random.Random):
    _check_identities(col, rng, GROUP_IDENTITIES)


def _grid_spec(config: RunConfig) -> GridSpec:
    return GridSpec(n=config.grid_n, l=config.box_l,
                    theta=config.theta, hbar=config.hbar)


def _check_representation(col: _Collector, rng: random.Random):
    config = col.config
    spec = _grid_spec(config)
    packet = gaussian(spec, center=(0.5, -1.0), sigma=1.2, momentum=(0.6, -0.4))
    base_norm = norm(packet)

    col.add("gaussian-normalization", {"sigma": 1.2},
            base_norm, 1.0, abs(base_norm - 1.0), 1e-12)

    try:
        gaussian(spec, center=(config.box_l - 1.0, 0.0), sigma=1.0)
        tail_error = 1.0
    except TailOverflow:
        tail_error = 0.0
    col.add("gaussian-tail-guard", {}, "TailOverflow" if tail_error == 0.0
            else "accepted", "TailOverflow", tail_error, EXACT_TOL)

    a, b = (0.8, 0.3), (0.5, -0.7)
    for name, op in (("u", lambda w: apply_u(w, a)),
                     ("v", lambda w: apply_v(w, b)),
                     ("w", lambda w: apply_w(w, 0.4, -1.2))):
        moved = norm(op(packet))
        col.add(f"unitarity-{name}", {}, moved, base_norm,
                abs(moved - base_norm), 1e-12)

    composed = apply_u(apply_u(packet, a), (0.25, -0.5))
    direct = apply_u(packet, (a[0] + 0.25, a[1] - 0.5))
    residual = spec.step * float(np.linalg.norm(
        composed.values - direct.values))
    col.add("u-composition", {"a": list(a), "a2": [0.25, -0.5]},
            residual, 0.0, residual, 1e-10)

    b2 = (-0.7, 0.5)
    composed = apply_v(apply_v(packet, b2), b)
    wedge = b[0] * b2[1] - b[1] * b2[0]
    phase = complex(np.exp(0.5j * spec.theta * wedge))
    direct = apply_v(packet, (b[0] + b2[0], b[1] + b2[1]))
    residual = spec.step * float(np.linalg.norm(
        composed.values - phase * direct.values))
    col.add("v-composition-phase", {"b": list(b), "b2": list(b2)},
            residual, 0.0, residual, 1e-8)

    for name, check in weyl_check(packet, a, b).items():
        col.add(f"weyl-{name}",
                {"z1": check.cocycle[0], "z2": check.cocycle[1]},
                check.measured, check.predicted, check.error, check.tol)

    for kind in ("qq", "pp", "qp"):
        results = commutator_check(packet, kind)
        worst = max(results, key=lambda item: item.error)
        col.add(f"ccr-{kind}", {"relations": len(results)},
                worst.measured, worst.expected, worst.error, worst.tol)

    errors = []
    for _ in range(50):
        e1 = random_algebra_element(rng, unit_box=True)
        e2 = random_algebra_element(rng, unit_box=True)
        errors.append(quantized_cocycle_check(packet, e1, e2).error)
    worst_error = _worst(errors)
    col.add("quantize-cocycle-consistency", {"trials": 50},
            worst_error, 0.0, worst_error, 1e-6)

    flat_spec = GridSpec(n=config.grid_n, l=config.box_l,
                         theta=0.0, hbar=config.hbar)
    flat_packet = gaussian(flat_spec, center=(0.5, -1.0), sigma=1.2,
                           momentum=(0.6, -0.4))
    flat_qq = commutator_check(flat_packet, "qq")[0]
    boosted = apply_v(flat_packet, b)
    q1, q2 = flat_spec.meshes()
    plain = np.exp(1j * (b[0] * q1 + b[1] * q2)) * flat_packet.values
    boost_residual = flat_spec.step * float(np.linalg.norm(
        boosted.values - plain))
    degeneration = max(flat_qq.error, boost_residual)
    col.add("theta-zero-degeneration", {}, degeneration, 0.0,
            degeneration, 1e-12)

    coarse_spec = GridSpec(n=128, l=config.box_l,
                           theta=config.theta, hbar=config.hbar)
    fine_spec = GridSpec(n=256, l=config.box_l,
                         theta=config.theta, hbar=config.hbar)
    coarse = commutator_check(
        gaussian(coarse_spec, sigma=1.2), "qq")[0].error
    fine = commutator_check(
        gaussian(fine_spec, sigma=1.2), "qq")[0].error
    col.add("grid-convergence", {"coarse_n": 128, "fine_n": 256},
            fine, coarse, _worst([0.0, fine - coarse]), 1e-12)


def _check_dynamics(col: _Collector):
    config = col.config
    oscillator = parse_observable("(p1^2 + p2^2 + q1^2 + q2^2)/2")
    trajectory = evolve(oscillator, (1.0, 0.5, -0.25, 0.75),
                        theta=config.theta, t_final=10.0, dt=1e-3)
    energy0 = oscillator.evaluate(trajectory[0][1], theta=config.theta)
    drift = max(abs(oscillator.evaluate(state, theta=config.theta) - energy0)
                for _, state in trajectory[::200])
    col.add("energy-conservation", {"t_final": 10.0, "dt": 1e-3},
            drift, 0.0, drift, 1e-8)


def run_suite(config: RunConfig | None = None) -> SuiteReport:
    config = config or RunConfig()
    _grid_spec(config)  # reject a bad grid before any layer runs
    rng = random.Random(config.seed)
    collector = _Collector(config)
    _check_bracket_algebra(collector, rng)
    _check_group(collector, rng)
    _check_representation(collector, rng)
    _check_dynamics(collector)
    return SuiteReport(config, collector.checks)
