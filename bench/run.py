"""Run one benchmark workload against the antitri sources beside this directory.

    python3 bench/run.py --workload golden --seed 1 --seconds 16 --trace 0

Prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything
runs closed-loop in this one process, with BLAS pinned to one thread,
except the antitri command-line processes, which run one at a time.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

IN_PROCESS_SHARE = 0.3  # of --seconds; the rest runs command-line processes
SETUP_REPEATS = 5
MIN_CLI_RUNS = 5
CLI_TIMEOUT_S = 120
IMPORT_ONLY = "import time; t = time.perf_counter(); import antitri; print(time.perf_counter() - t)"

# Reference kernel.  The host's speed swings by about 1.7x within seconds as
# other tenants load it, and that moves a run's median latency by 15-40 %.
# Each timed call is therefore preceded by this fixed numpy kernel, which
# slows down in step, and the call is reported in reference microseconds:
# its time over the kernel's time, times KERNEL_REF_US.
KERNEL_REF_US = 300.0
_KERNEL_A = np.random.default_rng(0).standard_normal((4, 4)) * (1 + 1j)


def reference_kernel() -> None:
    a = _KERNEL_A
    for _ in range(25):
        b = a @ _KERNEL_A
        c = np.abs(b)
        a = b / c.flat[int(np.argmax(c))]
        a = np.outer(a[0], a[:, 1]) + a


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Items judged, failures, and the timed calls of one measured phase."""

    def __init__(self):
        self.items = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.seconds: list[float] = []  # each timed call
        self.kernel_seconds: list[float] = []  # the reference kernel just before it

    @property
    def busy_s(self) -> float:
        return sum(self.seconds)

    def ref_us(self) -> list[float]:
        """Each call in reference microseconds."""
        return [KERNEL_REF_US * s / k for s, k in zip(self.seconds, self.kernel_seconds)]

    def judge(self, op, verdicts) -> None:
        self.items += len(verdicts)
        for v in verdicts:
            if not v.ok:
                self.failed += 1
                if not op.known_fault:
                    self.unexpected.append(f"{type(op).__name__} {vars(op).get('theorem_id', '')}: {v.why}")


def run_rounds(workload, first_round: int, busy_s: float, tally: Tally, tracer=None) -> int:
    """Whole rounds until the timed calls add up to busy_s; returns the next round."""
    r = first_round
    perf = time.perf_counter
    while tally.busy_s < busy_s:
        for op in workload.round(r):
            started = perf()
            reference_kernel()
            kernel_done = perf()
            if tracer is not None:
                tracer.enabled = True
            out = op.run()
            done = perf()
            if tracer is not None:
                tracer.enabled = False
            tally.kernel_seconds.append(kernel_done - started)
            tally.seconds.append(done - kernel_done)
            tally.judge(op, op.check(out))
        r += 1
    return r


def run_process(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    started = time.perf_counter()
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    return time.perf_counter() - started, proc


def ref_ms(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """A process's wall time in reference milliseconds.

    The kernel is timed five times just before the process and the
    median taken; timed after it, the kernel runs on cold caches.
    """
    kernel_s = []
    for _ in range(5):
        started = time.perf_counter()
        reference_kernel()
        kernel_s.append(time.perf_counter() - started)
    wall, proc = run_process(argv, env)
    return 1e-3 * KERNEL_REF_US * wall / statistics.median(kernel_s), proc


def import_seconds(env: dict) -> float:
    """Seconds that ``import antitri`` takes in a fresh process."""
    _, proc = run_process([sys.executable, "-c", IMPORT_ONLY], env)
    if proc.returncode != 0:
        raise RuntimeError(f"importing antitri failed in a fresh process:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_cli(workload, i: int, env: dict, tally: Tally) -> float:
    """One checked antitri command-line process; returns its time in reference ms."""
    cli = workload.cli(i)
    took, proc = ref_ms([sys.executable, "-m", "antitri.cli", *cli.argv], env)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    verdict = cli.check(proc.returncode, report)
    if not verdict.ok:
        tally.unexpected.append(f"antitri {' '.join(cli.argv)}: {verdict.why} {proc.stderr[-300:]}")
    return took


def setup(make, args, workdir: str, env: dict):
    """Set up SETUP_REPEATS times; returns the last workload and the median set-up seconds.

    Set-up is a fresh process's ``import antitri``, then building the
    inputs and running one warm-up round; checking that round is not
    counted.
    """
    imports = [import_seconds(env) for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload = make(args.seed, workdir)
        workload.build()
        outputs = [(op, op.run()) for op in workload.round(0)]
        builds.append(time.perf_counter() - started)
        warm = Tally()
        for op, out in outputs:
            warm.judge(op, op.check(out))
        if warm.unexpected:
            raise RuntimeError("warm-up round failed: " + "; ".join(warm.unexpected[:3]))
    setup_s = statistics.median(imports) + statistics.median(builds)
    return workload, setup_s


def measure(args, workdir: str) -> dict:
    import antitri
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workload, setup_s = setup(workloads.WORKLOADS[args.workload], args, workdir, env)

    in_process_s = args.seconds * IN_PROCESS_SHARE
    plain, traced = Tally(), Tally()
    if args.trace:
        next_round = run_rounds(workload, 1, in_process_s / 2, plain)
        tracer = tracing.Tracer()
        tracer.install(antitri)
        run_rounds(workload, next_round, in_process_s / 2, traced, tracer)
    else:
        run_rounds(workload, 1, in_process_s, plain)

    cli_times, import_times = [], []
    started = time.perf_counter()
    while len(cli_times) < MIN_CLI_RUNS or time.perf_counter() - started < args.seconds - in_process_s:
        cli_times.append(run_cli(workload, len(cli_times), env, plain))
        if args.trace:
            import_times.append(ref_ms([sys.executable, "-c", "import antitri"], env)[0])

    unexpected = plain.unexpected + traced.unexpected
    for line in unexpected[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": plain.items + traced.items,
        "failed": plain.failed + traced.failed,
    }
    if args.trace:
        # per-layer seconds to reference milliseconds, by the kernel time of the same phase
        to_ref_ms = 1e-3 * KERNEL_REF_US / statistics.mean(traced.kernel_seconds)
        metrics = tracer.metrics(len(traced.seconds), to_ref_ms)
        units = {name: "ref_ms/op" if name.endswith("_ms") else "1/op" for name in metrics}
        per_item = [sum(t.ref_us()) / t.items for t in (plain, traced)]
        metrics["cli.import_ms"] = statistics.median(import_times)
        metrics["cli.command_ms"] = statistics.median(cli_times) - metrics["cli.import_ms"]
        metrics["trace.overhead_pct"] = 100.0 * (per_item[1] / per_item[0] - 1.0)
        units.update({"cli.import_ms": "ref_ms", "cli.command_ms": "ref_ms", "conditions.yield": "ratio",
                      "trace.overhead_pct": "%"})
    else:
        ref_us = plain.ref_us()
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_ref_s": 1e6 * plain.items / sum(ref_us),
            "op_p50_ref_us": statistics.median(ref_us),
            "op_p90_ref_us": statistics.quantiles(ref_us, n=10, method="inclusive")[-1],
            "cli_ref_ms": statistics.median(cli_times),
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_ref_s": "1/ref_s",
                 "op_p50_ref_us": "ref_us", "op_p90_ref_us": "ref_us", "cli_ref_ms": "ref_ms"}
        raw = plain.seconds
        print(f"raw timings: {len(raw)} calls, p50 {1e6 * statistics.median(raw):.1f} us, "
              f"reference kernel p50 {1e6 * statistics.median(plain.kernel_seconds):.1f} us", file=sys.stderr)
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "antitri" / "__init__.py").is_file():
        print(f"error: no antitri sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import antitri

    if Path(antitri.__file__).resolve().parent != SRC / "antitri":
        print(f"error: imported antitri from {antitri.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="bench-", dir=scratch)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
