"""Exact polynomial arithmetic for phase-space observables.

One sparse map holds a polynomial in the four phase-space coordinates
``(q1, q2, p1, p2)`` and the two formal parameters, the deformation
``theta`` and the Planck constant ``hbar``. Each key is the six exponents
``(q1, q2, p1, p2, theta, hbar)`` of a monomial and each value its
nonzero ``fractions.Fraction`` coefficient: the flat layout of Monagan and
Pearce's sparse polynomial arithmetic. ``Observable`` is that map, with
its ring operations written once; ``Scalar`` is the subset free of the
coordinates, i.e. the coefficient ring Q[theta, hbar], and shares every
operation.

Zero coefficients are never stored, so structural equality is ring
equality and ``is_zero`` is a dictionary emptiness check. A map is never
changed after construction, so values may share one. Nothing is rounded
until an explicit numeric evaluation, which goes through ``Fraction`` end
to end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Union

RationalLike = Union[int, Fraction]

COORD_NAMES = ("q1", "q2", "p1", "p2")
PARAM_NAMES = ("theta", "hbar")

ParamKey = tuple[int, int]          # (theta power, hbar power)
MonomialKey = tuple[int, int, int, int]  # exponents of q1, q2, p1, p2
Key = tuple[int, int, int, int, int, int]  # q1, q2, p1, p2, theta, hbar

_ZERO_MONO: MonomialKey = (0, 0, 0, 0)
_ONE_KEY: Key = (0, 0, 0, 0, 0, 0)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _as_scalar(value: "ScalarLike") -> "Scalar":
    if isinstance(value, Scalar):
        return value
    return Scalar.from_rational(_as_fraction(value))


def _result_type(a: "Observable", b: "Observable") -> type:
    # a Scalar result only when neither operand has room for coordinates
    return type(a) if isinstance(b, type(a)) else type(b)


class Observable:
    """Polynomial in (q1, q2, p1, p2, theta, hbar) over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[MonomialKey, "ScalarLike"] | None = None):
        flat: dict[Key, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                for key, value in _as_scalar(coeff)._terms.items():
                    flat[tuple(mono) + key[4:]] = value
        self._terms = flat

    @classmethod
    def _new(cls, terms: dict[Key, Fraction]):
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def from_flat(cls, terms: Mapping[Key, RationalLike]):
        """Build from six-exponent keys ``(q1, q2, p1, p2, theta, hbar)``."""
        flat = {}
        for key, coeff in terms.items():
            frac = _as_fraction(coeff)
            if frac:
                flat[tuple(key)] = frac
        return cls._new(flat)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, value: "ScalarLike") -> "Observable":
        return cls._new(_as_scalar(value)._terms)

    @classmethod
    def coordinate(cls, axis: int) -> "Observable":
        if axis not in (0, 1, 2, 3):
            raise ValueError("axis must be 0..3 (q1, q2, p1, p2)")
        key = [0, 0, 0, 0]
        key[axis] = 1
        return cls({tuple(key): Scalar.one()})

    @classmethod
    def term(cls, coeff: "ScalarLike", exponents: MonomialKey) -> "Observable":
        return cls({tuple(exponents): coeff})

    def flat_terms(self) -> Iterator[tuple[Key, Fraction]]:
        """The stored ``(six-exponent key, coefficient)`` pairs."""
        return iter(self._terms.items())

    def terms(self) -> Iterator[tuple[MonomialKey, "Scalar"]]:
        """Coordinate monomials with their Q[theta, hbar] coefficients."""
        groups: dict[MonomialKey, dict[Key, Fraction]] = {}
        for key, coeff in self._terms.items():
            groups.setdefault(key[:4], {})[_ZERO_MONO + key[4:]] = coeff
        return ((mono, Scalar._new(params)) for mono, params in groups.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, exponents: MonomialKey) -> "Scalar":
        mono = tuple(exponents)
        return Scalar._new({_ZERO_MONO + key[4:]: coeff
                            for key, coeff in self._terms.items()
                            if key[:4] == mono})

    def constant_part(self) -> "Scalar":
        return self.coefficient(_ZERO_MONO)

    @property
    def is_constant(self) -> bool:
        return all(key[:4] == _ZERO_MONO for key in self._terms)

    def degree(self) -> int:
        """Total degree over all six variables, theta and hbar included."""
        return max((sum(key) for key in self._terms), default=0)

    def _coerce(self, other) -> "Observable | None":
        if isinstance(other, Observable):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in rhs._terms.items():
            if key in out:
                total = out[key] + coeff
                if total:
                    out[key] = total
                else:
                    del out[key]
            else:
                out[key] = coeff
        return _result_type(self, rhs)._new(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)._new({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # Each output key accumulates an integer (numerator, denominator)
        # pair, combined over the lcm of the denominators; every surviving
        # sum becomes a Fraction (and is reduced) once, at the end.
        acc: dict[Key, tuple[int, int]] = {}
        get = acc.get
        right = [(key, c.numerator, c.denominator)
                 for key, c in rhs._terms.items()]
        for (a0, a1, a2, a3, a4, a5), c1 in self._terms.items():
            n1 = c1.numerator
            d1 = c1.denominator
            for (b0, b1, b2, b3, b4, b5), n2, d2 in right:
                key = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)
                prev = get(key)
                den = d1 * d2
                if prev is None:
                    acc[key] = (n1 * n2, den)
                elif prev[1] == den:
                    acc[key] = (prev[0] + n1 * n2, den)
                else:
                    num, d = prev
                    g = gcd(d, den)
                    acc[key] = (num * (den // g) + n1 * n2 * (d // g),
                                d // g * den)
        return _result_type(self, rhs)._new(
            {key: Fraction(num, den) for key, (num, den) in acc.items() if num})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """Binary powering: one multiply per squaring and per further bit."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if exponent == 0:
            return type(self)._new({_ONE_KEY: Fraction(1)})
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def diff(self, axis: int) -> "Observable":
        """Exact partial derivative along one coordinate axis."""
        if axis not in (0, 1, 2, 3):
            raise ValueError("axis must be 0..3 (q1, q2, p1, p2)")
        out: dict[Key, Fraction] = {}
        for key, coeff in self._terms.items():
            e = key[axis]
            if e:
                out[key[:axis] + (e - 1,) + key[axis + 1:]] = coeff * e
        return type(self)._new(out)

    def substitute(self, images: Mapping[int, "Observable"]) -> "Observable":
        """Ring homomorphism replacing coordinates by the given observables.

        Axes absent from ``images`` are left alone.
        """
        basis = [images.get(axis, Observable.coordinate(axis)) for axis in range(4)]
        total = Observable.zero()
        for mono, coeff in self.terms():
            piece = coeff
            for axis, e in enumerate(mono):
                if e:
                    piece = piece * basis[axis] ** e
            total = total + piece
        return total

    def substitute_params(self, theta: RationalLike | None = None,
                          hbar: RationalLike | None = None):
        """Partially evaluate formal parameters at exact rational values."""
        values = (None if theta is None else _as_fraction(theta),
                  None if hbar is None else _as_fraction(hbar))
        out: dict[Key, Fraction] = {}
        for key, coeff in self._terms.items():
            exps = list(key)
            for slot, value in zip((4, 5), values):
                if value is not None:
                    coeff *= value ** exps[slot]
                    exps[slot] = 0
            key = tuple(exps)
            out[key] = out[key] + coeff if key in out else coeff
        return type(self)._new({key: coeff for key, coeff in out.items() if coeff})

    def evaluate_exact(self, point: Iterable, theta, hbar) -> Fraction:
        """Evaluate at a phase-space point with exact rational arithmetic.

        Floats are converted to their exact binary values first, so the
        result is deterministic and the only rounding happens in the caller.
        """
        x = [Fraction(component) for component in point]
        if len(x) != 4:
            raise ValueError("phase-space point must have four components")
        total = Fraction(0)
        if self._terms:
            x += [Fraction(theta), Fraction(hbar)]
        for key, coeff in self._terms.items():
            for value, e in zip(x, key):
                if e:
                    coeff *= value ** e
            total += coeff
        return total

    def evaluate(self, point: Iterable, theta=0, hbar=1) -> float:
        return float(self.evaluate_exact(point, theta, hbar))

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "Observable(0)"
        bits = []
        for mono, coeff in sorted(self.terms()):
            name = "*".join(
                f"{COORD_NAMES[axis]}^{e}" if e > 1 else COORD_NAMES[axis]
                for axis, e in enumerate(mono) if e
            )
            bits.append(f"{coeff!r}*{name}" if name else repr(coeff))
        return "Observable(" + " + ".join(bits) + ")"


class Scalar(Observable):
    """Element of Q[theta, hbar]: an ``Observable`` free of the coordinates.

    Arithmetic is ``Observable``'s; a result stays a ``Scalar`` when both
    operands are. The methods below read and write the parameter-only
    view, keyed by ``(theta power, hbar power)``.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[ParamKey, RationalLike] | None = None):
        flat: dict[Key, Fraction] = {}
        if terms:
            for (tp, hp), coeff in terms.items():
                frac = _as_fraction(coeff)
                if frac:
                    flat[_ZERO_MONO + (tp, hp)] = frac
        self._terms = flat

    @classmethod
    def from_rational(cls, value: RationalLike) -> "Scalar":
        return cls({(0, 0): value})

    @classmethod
    def term(cls, coeff: RationalLike, theta: int = 0, hbar: int = 0) -> "Scalar":
        return cls({(theta, hbar): coeff})

    @classmethod
    def one(cls) -> "Scalar":
        return cls.from_rational(1)

    @classmethod
    def theta(cls) -> "Scalar":
        return cls.term(1, theta=1)

    @classmethod
    def hbar(cls) -> "Scalar":
        return cls.term(1, hbar=1)

    def terms(self) -> Iterator[tuple[ParamKey, Fraction]]:
        return ((key[4:], coeff) for key, coeff in self._terms.items())

    def coefficient(self, theta: int = 0, hbar: int = 0) -> Fraction:
        return self._terms.get(_ZERO_MONO + (theta, hbar), Fraction(0))

    @property
    def is_constant(self) -> bool:
        """True when no formal parameter appears."""
        return all(key == _ONE_KEY for key in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("scalar depends on a formal parameter")
        return self.coefficient()

    def substitute(self, theta: RationalLike | None = None,
                   hbar: RationalLike | None = None) -> "Scalar":
        """Partially evaluate formal parameters at exact rational values."""
        return self.substitute_params(theta=theta, hbar=hbar)

    def evaluate(self, theta, hbar) -> Fraction:
        return self.evaluate_exact((0, 0, 0, 0), theta, hbar)

    def __repr__(self) -> str:
        if not self._terms:
            return "Scalar(0)"
        bits = []
        for (tp, hp), coeff in sorted(self.terms()):
            piece = str(coeff)
            if tp:
                piece += f"*theta^{tp}" if tp > 1 else "*theta"
            if hp:
                piece += f"*hbar^{hp}" if hp > 1 else "*hbar"
            bits.append(piece)
        return "Scalar(" + " + ".join(bits) + ")"


ScalarLike = Union[Scalar, int, Fraction]


# Convenient building blocks; these are fresh-from-constructor and immutable.
Q1 = Observable.coordinate(0)
Q2 = Observable.coordinate(1)
P1 = Observable.coordinate(2)
P2 = Observable.coordinate(3)
THETA = Observable.constant(Scalar.theta())
HBAR = Observable.constant(Scalar.hbar())
ONE = Observable.constant(1)
HALF = Fraction(1, 2)
