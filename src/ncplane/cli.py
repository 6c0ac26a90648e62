"""Command line front end.

Exit codes: 0 success, 1 a verification or representation check failed,
2 malformed input (expression syntax or bad arguments), 3 a numeric
runtime failure (invalid grid geometry, non-finite trajectory, a number
out of float range).

Only the exact layers are imported here. ``rep-check`` and ``verify-all``
import the grid layers, and with them numpy, when they run, so the exact
commands start without them.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction

from .dynamics import NonFiniteState, compile_observable, evolve
from .expr import (
    MAX_LITERAL_DIGITS,
    ParseError,
    format_observable,
    parse_observable,
)
from .heisenberg import (
    AlgebraElement,
    GroupElement,
    cocycle_double_sum,
    extract_cocycle,
    group_commutator,
    group_multiply,
    moment_map,
)
from .poly import COORD_NAMES, Observable, Scalar
from .symplectic import (
    bopp_shift,
    hamiltonian_vector_field,
    poisson_bracket,
)


# The parts of a number as Fraction reads it: digits, decimal places, and
# a denominator or a decimal exponent. Loose is enough: Fraction still
# refuses whatever is malformed.
_NUMBER_PARTS = re.compile(
    r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:/([\d_]*)|[eE]([-+]?[\d_]*))?\s*")


def _rational(text: str) -> Fraction:
    """A decimal or ratio whose size is bounded before it is built.

    ``Fraction("1e9999999")`` computes 10**9999999, which takes seconds,
    so the text is measured first. As for a literal in an expression, the
    numerator and the denominator may have at most ``MAX_LITERAL_DIGITS``
    digits, counting the places a decimal exponent adds; the number then
    fits in ``MAX_COEFF_BITS`` bits.
    """
    parts = _NUMBER_PARTS.fullmatch(text)
    try:
        if parts is not None:
            whole, places, denominator, exponent = (
                (group or "").replace("_", "") for group in parts.groups())
            shift = int(exponent or 0)
            digits = max(len(whole) + len(places) + max(shift, 0),
                         len(places) - min(shift, 0), len(denominator))
            if digits > MAX_LITERAL_DIGITS:
                raise argparse.ArgumentTypeError(
                    f"{text!r} is too large: a number may have at most "
                    f"{MAX_LITERAL_DIGITS} digits, counting those its "
                    f"exponent adds")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational number") from None


def _duration(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive finite number")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative finite number")
    return value


def _point(text: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "point must be four comma-separated numbers: q1,q2,p1,p2")
    return tuple(_rational(part.strip()) for part in parts)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call and reused: parse_args leaves the parser
    # unchanged, and each call gets a fresh namespace.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--theta", type=_rational, default=Fraction(1, 10),
                        help="deformation parameter, decimal or ratio "
                             "like 1/10 (default 0.1)")
    common.add_argument("--hbar", type=_rational, default=Fraction(1),
                        help="Planck constant, decimal or ratio (default 1)")
    common.add_argument("--grid-n", type=int, default=256,
                        help="grid points per axis (default 256)")
    common.add_argument("--box-l", type=float, default=20.0,
                        help="box half-width (default 20.0)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks (default 0)")
    common.add_argument("--tol", type=_tolerance, default=None,
                        help="override every check tolerance")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    common.add_argument("--point", type=_point, default=None,
                        help="phase-space point q1,q2,p1,p2 for evaluation")

    parser = argparse.ArgumentParser(
        prog="ncplane",
        description="canonical group quantization of the deformed plane")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("bracket", parents=[common],
                         help="deformed Poisson bracket of two expressions")
    cmd.add_argument("f")
    cmd.add_argument("g")
    cmd.set_defaults(func=_cmd_bracket)

    cmd = sub.add_parser("vf", parents=[common],
                         help="Hamiltonian vector field of an expression")
    cmd.add_argument("f")
    cmd.set_defaults(func=_cmd_vf)

    cmd = sub.add_parser("bopp", parents=[common],
                         help="rewrite in canonical coordinates")
    cmd.add_argument("f")
    cmd.set_defaults(func=_cmd_bopp)

    cmd = sub.add_parser("cocycle", parents=[common],
                         help="central charges of two algebra elements")
    cmd.add_argument("element", nargs=12, type=_rational,
                     metavar="X",
                     help="a1 a2 b1 b2 c d for each of the two elements")
    cmd.set_defaults(func=_cmd_cocycle)

    cmd = sub.add_parser("grouplaw", parents=[common],
                         help="product and commutator of two group elements")
    cmd.add_argument("element", nargs=12, type=_rational,
                     metavar="X",
                     help="a1 a2 b1 b2 c d for each of the two elements")
    cmd.set_defaults(func=_cmd_grouplaw)

    cmd = sub.add_parser("momentmap", parents=[common],
                         help="observable generating an algebra element")
    cmd.add_argument("element", nargs=6, type=_rational,
                     metavar="X", help="a1 a2 b1 b2 c d")
    cmd.set_defaults(func=_cmd_momentmap)

    cmd = sub.add_parser("rep-check", parents=[common],
                         help="Weyl relations and commutators on the grid")
    cmd.set_defaults(func=_cmd_rep_check)

    cmd = sub.add_parser("evolve", parents=[common],
                         help="integrate Hamilton's equations, print CSV")
    cmd.add_argument("hamiltonian")
    cmd.add_argument("--x0", type=_point, required=True,
                     help="initial point q1,q2,p1,p2")
    cmd.add_argument("--time", type=_duration, required=True, help="duration")
    cmd.add_argument("--dt", type=_duration, default=1e-3,
                     help="step size (default 1e-3)")
    cmd.set_defaults(func=_cmd_evolve)

    cmd = sub.add_parser("verify-all", parents=[common],
                         help="run the full verification suite")
    cmd.set_defaults(func=_cmd_verify_all)

    return parser


def _evaluation_suffix(obs: Observable, args) -> str:
    point = args.point
    value = obs.evaluate_exact(point, args.theta, args.hbar)
    rendered = ", ".join(str(component) for component in point)
    return f"value at ({rendered}), theta={args.theta}: {value}"


def _cmd_bracket(args) -> int:
    f = parse_observable(args.f)
    g = parse_observable(args.g)
    result = poisson_bracket(f, g)
    print(format_observable(result))
    if args.point is not None:
        print(_evaluation_suffix(result, args))
    return 0


def _cmd_vf(args) -> int:
    f = parse_observable(args.f)
    xi = hamiltonian_vector_field(f)
    for name, component in zip(COORD_NAMES, xi):
        print(f"{name}: {format_observable(component)}")
    return 0


def _cmd_bopp(args) -> int:
    f = parse_observable(args.f)
    result = bopp_shift(f)
    print(format_observable(result))
    if args.point is not None:
        print(_evaluation_suffix(result, args))
    return 0


def _elements(values) -> list[AlgebraElement]:
    """One element per run of six values a1 a2 b1 b2 c d."""
    return [AlgebraElement((a1, a2), (b1, b2), c, d)
            for a1, a2, b1, b2, c, d in zip(*[iter(values)] * 6)]


def _cmd_cocycle(args) -> int:
    e1, e2 = _elements(args.element)
    z1, z2 = extract_cocycle(e1, e2)
    central = Scalar.term(z1) + Scalar.term(z2, theta=1)
    doubled = cocycle_double_sum(e1, e2)
    print(f"z1 = {z1}")
    print(f"z2 = {z2}")
    print(f"central value: "
          f"{format_observable(Observable.constant(central))}")
    print(f"double-sum convention: "
          f"{format_observable(Observable.constant(doubled))}")
    return 0


def _format_group_element(g: GroupElement) -> str:
    return (f"a=({g.a[0]}, {g.a[1]}) b=({g.b[0]}, {g.b[1]}) "
            f"c={g.c} d={g.d}")


def _cmd_grouplaw(args) -> int:
    g1, g2 = _elements(args.element)
    print(f"product: {_format_group_element(group_multiply(g1, g2))}")
    print(f"commutator: {_format_group_element(group_commutator(g1, g2))}")
    return 0


def _cmd_momentmap(args) -> int:
    (element,) = _elements(args.element)
    print(format_observable(moment_map(element)))
    return 0


def _cmd_rep_check(args) -> int:
    from .grid import GridSpec, gaussian
    from .operators import commutator_check, weyl_check

    spec = GridSpec(n=args.grid_n, l=args.box_l,
                    theta=float(args.theta), hbar=float(args.hbar))
    packet = gaussian(spec, center=(0.5, -1.0), sigma=1.2,
                      momentum=(0.6, -0.4))
    checks = [(f"weyl-{name}", check) for name, check
              in weyl_check(packet, (0.8, 0.3), (0.5, -0.7)).items()]
    checks += [(f"ccr {check.name}", check) for kind in ("qq", "pp", "qp")
               for check in commutator_check(packet, kind)]
    failures = 0
    for label, check in checks:
        tol = args.tol if args.tol is not None else check.tol
        passed = check.error <= tol
        failures += 0 if passed else 1
        print(f"{'PASS' if passed else 'FAIL'} {label}: "
              f"error={check.error:.3e} tol={tol:.3e}")
    return 0 if failures == 0 else 1


def _cmd_evolve(args) -> int:
    hamiltonian = parse_observable(args.hamiltonian)
    x0 = tuple(float(component) for component in args.x0)
    trajectory = evolve(hamiltonian, x0, theta=float(args.theta),
                        t_final=args.time, dt=args.dt, hbar=float(args.hbar))
    energy = compile_observable(hamiltonian, float(args.theta),
                                float(args.hbar))
    print("t,q1,q2,p1,p2,H")
    for t, state in trajectory:
        row = ",".join(f"{component:.12g}" for component in state)
        print(f"{t:.12g},{row},{energy(state):.12g}")
    return 0


def _cmd_verify_all(args) -> int:
    from .verify import RunConfig, run_suite

    config = RunConfig(theta=float(args.theta), hbar=float(args.hbar),
                       grid_n=args.grid_n, box_l=args.box_l, seed=args.seed,
                       tol=args.tol)
    report = run_suite(config)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error at byte offset {err.offset}: {err.reason} "
              f"(expected {err.expected})", file=sys.stderr)
        return 2
    except NonFiniteState as err:
        print(f"integration failed: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OverflowError as err:
        print(f"error: number out of float range: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
