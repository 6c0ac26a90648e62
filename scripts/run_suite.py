#!/usr/bin/env python3
"""Run the verification suite across a batch of seeds.

The single-seed run is what `ncplane verify-all` does; sweeping seeds
here guards against a lucky draw of random inputs hiding an algebraic
failure.
"""

import argparse
import sys

from ncplane.verify import RunConfig, _worst, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of consecutive seeds to run (default 5)")
    parser.add_argument("--theta", type=float, default=0.1)
    parser.add_argument("--hbar", type=float, default=1.0)
    parser.add_argument("--grid-n", type=int, default=256)
    parser.add_argument("--box-l", type=float, default=20.0)
    parser.add_argument("--verbose", action="store_true",
                        help="print every check, not just failures")
    args = parser.parse_args()

    worst: dict[str, float] = {}
    failed = False
    for seed in range(args.seeds):
        config = RunConfig(theta=args.theta, hbar=args.hbar,
                           grid_n=args.grid_n, box_l=args.box_l, seed=seed)
        report = run_suite(config)
        for check in report.checks:
            worst[check.name] = _worst([worst.get(check.name, 0.0),
                                        check.error])
            if not check.passed:
                failed = True
                print(f"seed {seed}: FAIL {check.name} "
                      f"error={check.error:.3e} tol={check.tol:.3e}")
        status = "ok" if report.passed else "FAILED"
        print(f"seed {seed}: {status} ({len(report.checks)} checks)")

    if args.verbose:
        print()
        width = max(len(name) for name in worst)
        for name in sorted(worst):
            print(f"{name:<{width}}  worst error {worst[name]:.3e}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
