"""The three seeded workloads of the ncplane benchmark.

Each workload is a closed loop with one client: the next op starts only
after the previous one has returned. A workload turns a seed into an
endless, deterministic stream of op specs, runs one op (the timed part)
and checks the op's output by an independent route (the untimed part).
The package is driven only through its public functions.

- ``verify``: one op is ``ncplane verify-all --seed S --format json``
  through ``ncplane.cli.main``; every layer runs.
- ``exact``: one op is ``ncplane bracket F G``, ``bopp F`` or ``vf F``
  through ``ncplane.cli.main``; only the exact algebra runs, no numpy.
- ``grid``: one op builds a fresh ``GridSpec(n=512)`` and Gaussian state
  and runs one representation check; only ``grid`` and ``operators`` run.

The streams are stratified: every block of ``block`` consecutive specs
holds each op shape exactly once, in a seeded order, so the latency
quantiles do not depend on how the seed happens to weight the op kinds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

COORDS = ("q1", "q2", "p1", "p2")
VARIABLES = COORDS + ("theta", "hbar")


def _capture(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue()


# --------------------------------------------------------------- verify

class VerifyWorkload:
    """The documented whole-package entry point at its defaults."""

    block = 1
    nominal_op_s = 5.5
    grid_n = 256
    # time split of a suite: interpreter-bound algebra, numpy on the grid
    reference_mix = {"python": 0.65, "fft256": 0.35}

    def __init__(self):
        from ncplane import cli
        self._cli = cli

    def specs(self, seed: int):
        rng = random.Random(f"verify/{seed}")
        while True:
            yield rng.randrange(2 ** 31)

    def run(self, suite_seed):
        argv = ["verify-all", "--seed", str(suite_seed), "--format", "json"]
        return _capture(self._cli.main, argv)

    @staticmethod
    def check(suite_seed, output) -> bool:
        code, text = output
        if code != 0:
            return False
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return False
        checks = report.get("checks") or []
        return (report.get("pass") is True and len(checks) > 0
                and all(isinstance(item.get("error"), (int, float))
                        and math.isfinite(item["error"]) for item in checks))


# ---------------------------------------------------------------- exact

def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))


def _linear_form(rng: random.Random, size: int, names=VARIABLES):
    """``size`` distinct variables with nonzero rational coefficients.

    At least one coordinate is always present, so the power is a genuine
    coordinate polynomial and not a constant.
    """
    while True:
        chosen = rng.sample(names, size)
        if any(name in COORDS for name in chosen):
            return tuple((name, _rational(rng)) for name in chosen)


def _render_terms(form, leading: bool) -> str:
    pieces = []
    for index, (name, coeff) in enumerate(form):
        body = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
        if index == 0 and leading:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)


@dataclass(frozen=True)
class Power:
    """``(linear form)^k + linear``: the exact workload's input shape."""

    base: tuple
    k: int
    tail: tuple

    @classmethod
    def draw(cls, rng: random.Random, k: int, size: int) -> "Power":
        tail = _linear_form(rng, rng.randint(1, 2), COORDS)
        return cls(_linear_form(rng, size), k, tail)

    def text(self) -> str:
        return (f"({_render_terms(self.base, True)})^{self.k} "
                f"{_render_terms(self.tail, False)}")

    @staticmethod
    def _linear(form, values) -> Fraction:
        return sum((coeff * values[name] for name, coeff in form), Fraction(0))

    def value(self, values) -> Fraction:
        return self._linear(self.base, values) ** self.k \
            + self._linear(self.tail, values)

    def gradient(self, values) -> list[Fraction]:
        """Exact coordinate gradient, from the chain rule on the input form."""
        outer = self.k * self._linear(self.base, values) ** (self.k - 1)
        base, tail = dict(self.base), dict(self.tail)
        return [outer * base.get(name, 0) + tail.get(name, 0)
                for name in COORDS]


def _point(rng: random.Random) -> dict:
    return {name: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for name in VARIABLES}


def evaluate_printed(text: str, values) -> Fraction:
    """Evaluate the CLI's canonical polynomial text at exact values.

    The printed form is ``body (+|-) body ...`` with each body a
    ``*``-joined list of one optional rational and ``name`` or
    ``name^e`` factors. Any other shape raises ``ValueError``.
    """
    tokens = text.strip().split(" ")
    if len(tokens) % 2 == 0:
        raise ValueError(f"malformed polynomial text {text!r}")
    signs = [1] + [{"+": 1, "-": -1}[op] for op in tokens[1::2]]
    bodies = tokens[0::2]
    if bodies[0].startswith("-"):
        signs[0], bodies[0] = -1, bodies[0][1:]
    total = Fraction(0)
    for sign, body in zip(signs, bodies):
        term = Fraction(sign)
        for factor in body.split("*"):
            name, _, exponent = factor.partition("^")
            if name in values:
                term *= values[name] ** (int(exponent) if exponent else 1)
            elif not exponent:
                term *= Fraction(name)
            else:
                raise ValueError(f"malformed factor {factor!r}")
        total += term
    return total


def poisson_tensor(theta: Fraction):
    """The deformed Poisson tensor in (q1, q2, p1, p2), written out."""
    return ((0, theta, 1, 0),
            (-theta, 0, 0, 1),
            (-1, 0, 0, 0),
            (0, -1, 0, 0))


@dataclass(frozen=True)
class ExactSpec:
    kind: str
    f: Power
    g: Power | None
    point: dict

    def argv(self) -> list[str]:
        if self.kind == "bracket":
            return ["bracket", self.f.text(), self.g.text()]
        return [self.kind, self.f.text()]


class ExactWorkload:
    """Few large exact products and deep ``Observable.__pow__``."""

    kinds = ("bracket", "bopp", "vf")
    powers = (2, 3, 4, 5, 6)
    sizes = (2, 3, 4)
    block = len(kinds) * len(powers) * len(sizes)
    nominal_op_s = 0.012
    grid_n = None
    reference_mix = {"python": 1.0}

    def __init__(self):
        from ncplane import cli
        self._cli = cli

    def specs(self, seed: int):
        rng = random.Random(f"exact/{seed}")
        shapes = list(itertools.product(self.kinds, self.powers, self.sizes))
        while True:
            rng.shuffle(shapes)
            for kind, k, size in shapes:
                f = Power.draw(rng, k, size)
                g = Power.draw(rng, rng.choice(self.powers),
                               rng.choice(self.sizes))
                yield ExactSpec(kind, f, g if kind == "bracket" else None,
                                _point(rng))

    def run(self, spec: ExactSpec):
        return _capture(self._cli.main, spec.argv())

    @staticmethod
    def check(spec: ExactSpec, output) -> bool:
        code, text = output
        if code != 0:
            return False
        try:
            if spec.kind == "bracket":
                return _check_bracket(spec, text)
            if spec.kind == "bopp":
                return _check_bopp(spec, text)
            return _check_vf(spec, text)
        except (ValueError, KeyError, ZeroDivisionError):
            return False


def _check_bracket(spec: ExactSpec, text: str) -> bool:
    values = spec.point
    pi = poisson_tensor(values["theta"])
    df = spec.f.gradient(values)
    dg = spec.g.gradient(values)
    expected = sum((pi[a][b] * df[a] * dg[b]
                    for a in range(4) for b in range(4)), Fraction(0))
    return evaluate_printed(text, values) == expected


def _check_bopp(spec: ExactSpec, text: str) -> bool:
    values = spec.point
    half_theta = values["theta"] / 2
    shifted = dict(values)
    shifted["q1"] = values["q1"] - half_theta * values["p2"]
    shifted["q2"] = values["q2"] + half_theta * values["p1"]
    return evaluate_printed(text, values) == spec.f.value(shifted)


def _check_vf(spec: ExactSpec, text: str) -> bool:
    from ncplane.expr import parse_observable
    from ncplane.poly import Observable
    from ncplane.symplectic import contract_to_observable

    lines = text.splitlines()
    if [line.split(":", 1)[0] for line in lines] != list(COORDS):
        return False
    field = [parse_observable(line.split(":", 1)[1]) for line in lines]
    f = parse_observable(spec.f.text())
    f = f - Observable.constant(f.constant_part())
    return contract_to_observable(field) == f


# ----------------------------------------------------------------- grid

@dataclass(frozen=True)
class GridDraw:
    kind: str
    theta: float
    hbar: float
    center: tuple
    sigma: float
    momentum: tuple
    a: tuple
    b: tuple
    e1: object
    e2: object


class GridWorkload:
    """Fresh spec and state per op at n=512, then one residual check."""

    kinds = ("weyl", "qq", "pp", "qp", "cocycle")
    block = len(kinds)
    nominal_op_s = 0.23
    grid_n = 512
    reference_mix = {"fft512": 1.0}
    box_l = 20.0

    def __init__(self):
        from ncplane import grid, heisenberg, operators
        self._grid, self._heisenberg, self._operators = grid, heisenberg, operators

    def specs(self, seed: int):
        rng = random.Random(f"grid/{seed}")
        kinds = list(self.kinds)

        def pair(low, high):
            return (rng.uniform(low, high), rng.uniform(low, high))

        def element():
            def unit():
                return Fraction(rng.randint(-16, 16), 16)
            return self._heisenberg.AlgebraElement(
                (unit(), unit()), (unit(), unit()), unit(), unit())

        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                yield GridDraw(
                    kind=kind, theta=rng.uniform(0.05, 0.5),
                    hbar=rng.uniform(0.5, 2.0), center=pair(-2.0, 2.0),
                    sigma=rng.uniform(0.8, 1.6), momentum=pair(-1.0, 1.0),
                    a=pair(-1.0, 1.0), b=pair(-1.0, 1.0),
                    e1=element(), e2=element())

    def run(self, draw: GridDraw):
        grid, operators = self._grid, self._operators
        spec = grid.GridSpec(n=self.grid_n, l=self.box_l,
                             theta=draw.theta, hbar=draw.hbar)
        packet = grid.gaussian(spec, center=draw.center, sigma=draw.sigma,
                               momentum=draw.momentum)
        if draw.kind == "weyl":
            checks = list(operators.weyl_check(packet, draw.a, draw.b).values())
        elif draw.kind == "cocycle":
            checks = [operators.quantized_cocycle_check(packet, draw.e1, draw.e2)]
        else:
            checks = operators.commutator_check(packet, draw.kind)
        return tuple((check.name, check.error, check.tol) for check in checks)

    @staticmethod
    def check(draw: GridDraw, output) -> bool:
        """Every check passes its own tolerance with a finite error."""
        return len(output) > 0 and all(
            math.isfinite(error) and error <= tol for _, error, tol in output)


WORKLOADS = {
    "verify": VerifyWorkload,
    "exact": ExactWorkload,
    "grid": GridWorkload,
}
