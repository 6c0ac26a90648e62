"""Periodic grid discretization of wavefunctions on the plane.

States live on an n-by-n sample of the square [-l, l)^2 with axis 0 along
q1 and axis 1 along q2. Derivatives and translations act spectrally, so
smooth localized states are represented to near machine precision as long
as their tails stay clear of the box edge. Every spectral operation is one
call of ``fourier_multiply``: transform, scale by a Fourier multiplier,
transform back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

WFN_FORMAT = "wfn-json/1"
# A complex n-by-n state takes 16 n^2 bytes: 64 MiB at this cap.
MAX_GRID_N = 2048


class TailOverflow(ValueError):
    """Requested state puts significant weight on the box boundary."""


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry plus the physical constants of the representation."""

    n: int
    l: float
    theta: float
    hbar: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 16 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two, at least 16")
        if self.n > MAX_GRID_N:
            raise ValueError(f"n must be at most {MAX_GRID_N}, got {self.n}")
        for name in ("l", "theta", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.l > 0:
            raise ValueError("box half-width l must be positive")
        # A finite l can still overflow the step 2l/n, or underflow it so
        # far that the Nyquist wavenumber pi/step overflows.
        step = self.step
        if not (step > 0 and math.isfinite(step)
                and math.isfinite(math.pi / step)):
            raise ValueError(
                f"l must give a finite grid step 2l/n and wavenumber "
                f"pi/step, got l={self.l!r} with n={self.n}")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        # The 1-D axis points and wavenumbers, shared read-only by every
        # state and operator on this grid.
        points = -self.l + step * np.arange(self.n)
        wavenumbers = 2.0 * np.pi * np.fft.fftfreq(self.n, d=step)
        for name, array in (("_points", points), ("_wavenumbers", wavenumbers)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def step(self) -> float:
        return 2.0 * self.l / self.n

    def axis_points(self) -> np.ndarray:
        return self._points

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        q = self._points
        return np.meshgrid(q, q, indexing="ij")

    def wavenumbers(self) -> np.ndarray:
        return self._wavenumbers


@dataclass(frozen=True)
class Wavefunction:
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.values, dtype=np.complex128, copy=True))

    @classmethod
    def adopt(cls, spec: GridSpec, values: np.ndarray) -> "Wavefunction":
        """Wrap a freshly computed array without copying it.

        The caller hands ``values`` over: nothing else may hold a reference
        to it, because it becomes the state's read-only storage.
        """
        wfn = object.__new__(cls)
        object.__setattr__(wfn, "spec", spec)
        wfn._freeze(np.asarray(values, dtype=np.complex128))
        return wfn

    def _freeze(self, arr: np.ndarray):
        if arr.shape != (self.spec.n, self.spec.n):
            raise ValueError(
                f"values must have shape ({self.spec.n}, {self.spec.n})")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def norm(wfn: Wavefunction) -> float:
    return wfn.spec.step * float(np.linalg.norm(wfn.values))


def inner(left: Wavefunction, right: Wavefunction) -> complex:
    if left.spec != right.spec:
        raise ValueError("wavefunctions live on different grids")
    return left.spec.step ** 2 * complex(np.vdot(left.values, right.values))


def normalized(wfn: Wavefunction) -> Wavefunction:
    scale = norm(wfn)
    if scale == 0.0:
        raise ValueError("cannot normalize the zero state")
    return Wavefunction.adopt(wfn.spec, wfn.values / scale)


def fourier_multiply(values: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """Return ifft(M * fft(values)) as a fresh array; M is the product of
    the broadcast ``factors``.

    Each factor is an ``(n, 1)``, ``(1, n)`` or ``(n, n)`` array, and the
    transform runs only along the axes where some factor varies: one 1-D
    ``fft``/``ifft`` pair when all of them lie along one axis, otherwise a
    single ``fft2``/``ifft2`` pair. A separable multiplier passed as its
    two 1-D factors is applied in place, without an n-by-n temporary.
    """
    axes = [axis for axis in (0, 1)
            if any(factor.shape[axis] > 1 for factor in factors)]
    if len(axes) == 2:
        transformed = np.fft.fft2(values)
    else:
        transformed = np.fft.fft(values, axis=axes[0])
    for factor in factors:
        transformed *= factor
    if len(axes) == 2:
        return np.fft.ifft2(transformed)
    return np.fft.ifft(transformed, axis=axes[0])


def along(axis: int, vector: np.ndarray) -> np.ndarray:
    """A 1-D array of per-axis values as an ``(n, 1)`` or ``(1, n)`` view."""
    return vector[:, None] if axis == 0 else vector[None, :]


def spectral_derivative(spec: GridSpec, values: np.ndarray, axis: int) -> np.ndarray:
    return fourier_multiply(values, along(axis, 1j * spec.wavenumbers()))


def spectral_translate(spec: GridSpec, values: np.ndarray,
                       shift: Sequence[float]) -> np.ndarray:
    """Evaluate psi(q - shift) by phase rotation in momentum space."""
    k = spec.wavenumbers()
    return fourier_multiply(values, along(0, np.exp(-1j * k * shift[0])),
                            along(1, np.exp(-1j * k * shift[1])))


def gaussian(spec: GridSpec, center: Sequence[float] = (0.0, 0.0),
             sigma: float = 1.0, momentum: Sequence[float] = (0.0, 0.0)
             ) -> Wavefunction:
    """Normalized Gaussian wave packet with optional momentum boost.

    Rejects packets whose six-sigma envelope touches the box edge on
    either axis; a leaking tail would silently break the periodic
    representation.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    for axis in range(2):
        if abs(center[axis]) + 6.0 * sigma >= spec.l:
            raise TailOverflow(
                f"center {center[axis]} with sigma {sigma} leaks through "
                f"the boundary on axis {axis}")
    q = spec.axis_points()
    factors = [
        np.exp(-(q - center[axis]) ** 2 / (4.0 * sigma ** 2)
               + 1j * momentum[axis] * q)
        for axis in range(2)
    ]
    return normalized(Wavefunction.adopt(spec, np.outer(*factors)))


def wavefunction_to_json(wfn: Wavefunction) -> str:
    flat = wfn.values.reshape(-1)
    payload = {
        "format": WFN_FORMAT,
        "n": wfn.spec.n,
        "l": wfn.spec.l,
        "theta": wfn.spec.theta,
        "hbar": wfn.spec.hbar,
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }
    return json.dumps(payload)


def wavefunction_from_json(text: str) -> Wavefunction:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"not valid JSON: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != WFN_FORMAT:
        raise ValueError(f"expected format tag {WFN_FORMAT!r}")
    try:
        spec = GridSpec(
            n=payload["n"], l=float(payload["l"]),
            theta=float(payload["theta"]), hbar=float(payload["hbar"]))
        re = payload["re"]
        im = payload["im"]
    except KeyError as err:
        raise ValueError(f"missing field {err.args[0]!r}") from None
    if not isinstance(re, list) or not isinstance(im, list):
        raise ValueError("re and im must be arrays of samples")
    expected = spec.n * spec.n
    if len(re) != expected or len(im) != expected:
        raise ValueError(
            f"component arrays must have length {expected}, "
            f"got {len(re)} and {len(im)}")
    values = (np.asarray(re, dtype=float)
              + 1j * np.asarray(im, dtype=float)).reshape(spec.n, spec.n)
    if not np.all(np.isfinite(values)):
        raise ValueError("component arrays contain non-finite entries")
    return Wavefunction.adopt(spec, values)
