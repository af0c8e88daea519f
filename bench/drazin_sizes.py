"""Latency of geninv.drazin against the input size, for the README's reference table.

    python3 bench/drazin_sizes.py [--seed 0] [--calls 40]

Inputs are the drazin workloads' core-nilpotent matrices (index cycling
1, 2, 3, or 1, 2 at n = 2).  Prints, per n, the median raw time, the median time in
reference microseconds (see run.py), and whether every result matched
its closed form.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import run  # pins BLAS to one thread before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from antitri import geninv  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--calls", type=int, default=40)
    args = p.parse_args()
    rng = np.random.default_rng(args.seed)
    print("n    raw_p50_us   ref_p50_us   all_correct")
    for n in (2, 4, 8, 16, 32, 64):
        inputs = [workloads.core_nilpotent(rng, n, 1 + k % min(3, n)) for k in range(6)]
        raw, ref, ok = [], [], True
        for k in range(args.calls):
            a, expected = inputs[k % len(inputs)]
            started = time.perf_counter()
            run.reference_kernel()
            kernel_done = time.perf_counter()
            out = geninv.drazin(a)
            done = time.perf_counter()
            raw.append(1e6 * (done - kernel_done))
            ref.append(run.KERNEL_REF_US * (done - kernel_done) / (kernel_done - started))
            ok = ok and checker.check_equal(out.drazin, expected, workloads.DRAZIN_TOL).ok
        print(f"{n:<4} {statistics.median(raw):>11.1f} {statistics.median(ref):>12.1f}   {ok}")


if __name__ == "__main__":
    main()
