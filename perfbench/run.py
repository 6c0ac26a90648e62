"""Benchmark of ncplane: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {verify,exact,grid} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, so it needs no install. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; an earlier line holds
the run's metadata.

``--trace 0`` measures the end-to-end metrics: the set-up time of fresh
processes, then a closed loop of ops until their summed latency reaches
``--seconds``. Each op's output is checked after its latency is taken.

``--trace 1`` measures the per-layer metrics: each op of a fixed,
seed-determined list runs once untraced and once under
``tracing.Tracer``, so the work counts repeat exactly and the tracing
overhead is the difference of the two median latencies. The spans are
written to ``perfbench/out/``.
"""

import os

# OpenBLAS reads this once, when numpy loads; np.vdot would otherwise use
# up to 64 threads on a machine with 2 cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes timed per run; setup_s is their median.
SETUP_PROBES = 15
# fft2+ifft2 pairs timed per grid size in the calibration of a traced run.
CALIBRATION_PAIRS = {256: 40, 512: 12}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_path():
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_ops(workload, specs, *, seconds=None, check=True, between=None,
            keep_outputs=False):
    """Run ops in a closed loop; return (latencies, passed, outputs).

    Stops after ``specs`` is exhausted or once the summed latency reaches
    ``seconds``. An op that raises counts as failed. With ``check`` each
    output is checked after its latency is taken, outside the timing; then
    ``between`` is called with the summed latency so far. Outputs are kept
    only on request.
    """
    latencies, passed, outputs = [], [], []
    total = 0.0
    for spec in specs:
        if seconds is not None and total >= seconds:
            break
        start = time.perf_counter()
        try:
            output = workload.run(spec)
        except Exception:  # an op that raises is a failed op, not a crash
            latency = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            output = None
        else:
            latency = time.perf_counter() - start
        total += latency
        latencies.append(latency)
        if keep_outputs:
            outputs.append(output)
        passed.append(output is not None
                      and (not check or workload.check(spec, output)))
        if between is not None:
            between(total)
    return latencies, passed, outputs


def percentile(values, share: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def setup_time(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first op being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if probe.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with code {probe.returncode}")
    return elapsed


def src_line_count() -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((SRC / "ncplane").glob("*.py")))


def machine_info() -> dict:
    """Recorded with every result as metadata, never as a metric."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_line_count(),
    }


def end_to_end(args, workload_cls) -> tuple[dict, int, int, dict]:
    from hostspeed import HostSpeed

    workload = workload_cls()
    host = HostSpeed(workload_cls.reference_mix)
    setup = []

    def between_ops(op_seconds):
        # The set-up probes are spread over the timed phase, so that their
        # median sees the host as the ops did, not one moment of it.
        host.sample_due(op_seconds)
        while (len(setup) < SETUP_PROBES
               and len(setup) * args.seconds / SETUP_PROBES <= op_seconds):
            setup.append(setup_time(args.workload, args.seed))

    latencies, passed, _ = run_ops(workload, workload.specs(args.seed),
                                   seconds=args.seconds, between=between_ops)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = sum(passed)
    wall = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": percentile(latencies, 0.9) * 1e3,
        "ops_per_s": ok / sum(latencies),
    }
    # Times at the nominal host speed (see hostspeed.py). The set-up probes
    # ran spread over the same phase, so the run's slowdown applies to them.
    slowdown = host.slowdown()
    values = {
        "setup_s": statistics.median(setup) / slowdown,
        "op_p50_ms": wall["op_p50_ms"] / slowdown,
        "op_p90_ms": wall["op_p90_ms"] / slowdown,
        "ops_per_s": wall["ops_per_s"] * slowdown,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    metrics = {name: (value, END_TO_END_UNITS[name])
               for name, value in values.items()}
    extra = {"wall_clock": wall, "host_slowdown": slowdown,
             "reference_ms": {name: sample_summary(v)
                              for name, v in host.samples.items()},
             "setup_samples_s": setup, "ops": len(latencies),
             "beyond_p90": sum(lat * 1e3 > wall["op_p90_ms"]
                               for lat in latencies),
             "fail_ratio": (len(passed) - ok) / len(passed)}
    return metrics, len(passed), len(passed) - ok, extra


def sample_summary(samples: list[float]) -> dict:
    """Count, mean and median of kernel samples; quartiles from two on."""
    summary = {"n": len(samples), "mean": statistics.fmean(samples),
               "median": statistics.median(samples)}
    if len(samples) >= 2:
        summary["quartiles"] = statistics.quantiles(samples, n=4)
    return summary


def calibration_ms() -> dict[int, float]:
    """Median fft2+ifft2 pair time in ms at each calibrated grid size."""
    from hostspeed import HostSpeed

    host = HostSpeed({f"fft{n}": 1.0 for n in CALIBRATION_PAIRS})
    return {n: host.median_ms(f"fft{n}", pairs)
            for n, pairs in CALIBRATION_PAIRS.items()}


def traced_ops(workload_cls, seconds: float) -> int:
    """Ops in a traced run: whole blocks, about ``seconds / 2`` untraced."""
    blocks = max(1, round(seconds / 2 / workload_cls.nominal_op_s
                          / workload_cls.block))
    return blocks * workload_cls.block


def per_layer(args, workload_cls) -> tuple[dict, int, int, dict]:
    from tracing import Tracer, layer_metrics

    calibration = calibration_ms()
    workload = workload_cls()
    count = traced_ops(workload_cls, args.seconds)
    specs = list(itertools.islice(workload.specs(args.seed), count))
    # Each op runs untraced, then traced, so the two latencies see the same
    # host and their difference is the tracing overhead.
    tracer = Tracer()
    plain, traced, failed = [], [], 0
    for index, spec in enumerate(specs):
        latency, passed, output = run_ops(workload, [spec], keep_outputs=True)
        tracer.op_id = index
        with tracer:
            traced_latency, _, traced_output = run_ops(
                workload, [spec], check=False, keep_outputs=True)
        plain += latency
        traced += traced_latency
        # tracing must not change a result: the traced output must equal
        # the untraced output that was checked
        failed += not (passed[0] and output == traced_output)

    n = workload_cls.grid_n
    metrics = layer_metrics(tracer, sum(traced), calibration.get(n, 0.0))
    metrics["trace.overhead_ms"] = (
        (statistics.median(traced) - statistics.median(plain)) * 1e3, "ms")
    for size, value in calibration.items():
        metrics[f"grid.fft_pair_ms_n{size}"] = (value, "ms")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    import numpy as np
    np.savez_compressed(spans_path, **tracer.spans())
    extra = {"ops": count, "spans_file": str(spans_path.relative_to(ROOT)),
             "untraced_p50_ms": statistics.median(plain) * 1e3,
             "traced_p50_ms": statistics.median(traced) * 1e3}
    return metrics, count, failed, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "exact", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncplane" / "__init__.py").is_file():
        print(f"perfbench: no ncplane package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    _import_path()
    from workloads import WORKLOADS

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, extra = measure(args, WORKLOADS[args.workload])
    run_info = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({"metadata": {**run_info, **machine_info(), **extra}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
