"""Re-measure the ROADMAP baseline table on this machine.

    python3 perfbench/baseline.py

Prints one JSON object: the grid operations at n=256 (median ms over
``REPS`` calls each, and the same in units of one fft2+ifft2 pair) and
the wall time of ``run_suite()`` split by its four check groups. It is a
one-off cross-check of the figures the benchmark replaces, not part of
the benchmark's runs.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from hostspeed import HostSpeed  # noqa: E402
from run import machine_info  # noqa: E402

# Calls timed per grid operation; the two checks get a quarter of them.
REPS = 40

# run_suite's check groups, by the layer each one covers.
SUITE_GROUPS = {
    "algebra": "_check_bracket_algebra",
    "group": "_check_group",
    "representation": "_check_representation",
    "dynamics": "_check_dynamics",
}


def median_ms(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def grid_table() -> dict:
    from ncplane.grid import GridSpec, gaussian
    from ncplane.heisenberg import AlgebraElement
    from ncplane.operators import (apply_u, apply_v, commutator_check,
                                   quantize_apply, weyl_check)

    spec = GridSpec(n=256, l=20.0, theta=0.1, hbar=1.0)
    packet = gaussian(spec, center=(0.5, -1.0), sigma=1.2, momentum=(0.6, -0.4))
    element = AlgebraElement((0.5, -0.25), (0.75, 0.5), 0.5, -0.25)
    pair = HostSpeed({"fft256": 1.0}).median_ms("fft256", REPS)
    rows = {
        "fft2+ifft2 pair": pair,
        "apply_u": median_ms(lambda: apply_u(packet, (0.8, 0.3))),
        "apply_v": median_ms(lambda: apply_v(packet, (0.5, -0.7))),
        "quantize_apply": median_ms(lambda: quantize_apply(element, packet)),
        "weyl_check": median_ms(
            lambda: weyl_check(packet, (0.8, 0.3), (0.5, -0.7)), REPS // 4),
        'commutator_check("qp")': median_ms(
            lambda: commutator_check(packet, "qp"), REPS // 4),
    }
    return {name: {"ms": value, "fft_pair_units": value / pair}
            for name, value in rows.items()}


def suite_split() -> dict:
    """Seconds in each check group of one default ``run_suite()``."""
    from ncplane import verify

    spent = {}
    originals = {}
    for layer, attr in SUITE_GROUPS.items():
        original = originals[attr] = getattr(verify, attr)

        def timed(*args, _original=original, _layer=layer):
            start = time.perf_counter()
            try:
                return _original(*args)
            finally:
                spent[_layer] = time.perf_counter() - start

        setattr(verify, attr, timed)
    try:
        start = time.perf_counter()
        verify.run_suite()
        spent["total"] = time.perf_counter() - start
    finally:
        for attr, original in originals.items():
            setattr(verify, attr, original)
    return spent


def main() -> int:
    print(json.dumps({
        "machine": machine_info(),
        "grid_n256": grid_table(),
        "run_suite_s": suite_split(),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
