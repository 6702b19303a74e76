"""Benchmark command for borelsum.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
One process, one thread, closed loop: each call starts when the previous one
and its check have finished.  The last line of standard output is a JSON
object with keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, from
wrappers installed around borelsum functions (see tracing.py).  A short
per-operation summary goes to standard error.

Timings are scaled to a reference host speed.  The host shares its cores
with other work, whose load moves the speed of any code by tens of percent
over seconds to minutes.  So after each call, in the loop and in set-up,
the run times a fixed piece of mpmath and Fraction arithmetic that
does not use borelsum (host_unit), and divides its reference time by the
time measured: the host's speed factor, 1 at the reference speed.
Program time and set-up time are multiplied by that factor, so ops_per_s
counts passed calls per second at the reference speed; the raw values are
in the summary on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

WORKLOAD_NAMES = ("interactive", "tight-tolerance", "eta-integral", "boundary")
END_TO_END_UNITS = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}
# set-up is sampled in fresh interpreters until there are at least 3
# samples and 4 s of them (at most 9): cheap set-ups get more samples,
# because host noise moves a short measurement the most
SETUP_MIN_SAMPLES, SETUP_MIN_SECONDS, SETUP_MAX_SAMPLES = 3, 4.0, 9
# seconds of one host_unit(), measured once on the 2-core reference host
# (Python 3.11.7, mpmath 1.3.0 without gmpy2); a constant, so it scales
# every run alike and cancels in any comparison between two commits
HOST_UNIT_S = 0.00052
# host-speed sampling time per second of program time, after each call of
# the loop and after each warm-up call
HOST_SHARE_LOOP, HOST_SHARE_SETUP = 0.1, 0.25


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and warm up, then print the set-up time")
    return parser.parse_args(argv)


def import_program(root: str):
    """Import borelsum from root/src and nowhere else."""
    src = os.path.join(root, "src")
    init = os.path.join(src, "borelsum", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"no borelsum sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import borelsum
    import borelsum.cli  # noqa: F401  (the workloads call into it)
    import borelsum.transseries  # noqa: F401

    if os.path.realpath(os.path.dirname(borelsum.__file__)) != os.path.realpath(os.path.dirname(init)):
        raise SystemExit(f"borelsum was imported from {borelsum.__file__}, not from {src}")
    return borelsum


def host_unit() -> None:
    """A fixed piece of arithmetic like the program's, independent of it."""
    # imported here, so that set-up times the first import of mpmath
    from mpmath import mp

    with mp.workdps(25):
        x = mp.mpf(3) / 7
        total = mp.mpf(0)
        for k in range(1, 25):
            total += mp.exp(-x * k) / k
    exact = Fraction(0)
    for k in range(1, 25):
        exact += Fraction(1, k * k)


class HostSpeed:
    """The host's speed relative to the reference, from host_unit timings."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def sample(self, seconds: float) -> None:
        """Run host units for about the given time, and at least one."""
        start = perf_counter()
        while True:
            host_unit()
            self.units += 1
            now = perf_counter()
            if now - start >= seconds:
                break
        self.seconds += now - start

    @property
    def factor(self) -> float:
        return self.units * HOST_UNIT_S / self.seconds


def setup_samples(args, first: tuple[float, float]) -> list[tuple[float, float]]:
    """first, then the (raw, scaled) set-up times of fresh interpreters
    running this file with --setup-probe, one at a time."""
    out = [first]
    while len(out) < SETUP_MAX_SAMPLES and (
            len(out) < SETUP_MIN_SAMPLES or sum(raw for raw, _ in out) < SETUP_MIN_SECONDS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        raw, scaled = done.stdout.strip().splitlines()[-1].split()
        out.append((float(raw), float(scaled)))
    return out


class Tally:
    def __init__(self) -> None:
        self.host = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.passed = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = defaultdict(list)
        self.failed_kinds: dict[str, int] = defaultdict(int)
        self.bad_checks: list[str] = []

    def run_group(self, group, errors) -> None:
        outputs, times, failed = [], [], False
        for kind, call in group.calls:
            start = perf_counter()
            try:
                outputs.append(call())
            except errors:
                failed = True
                self.failed_kinds[kind] += 1
            times.append(perf_counter() - start)
            self.host.sample(HOST_SHARE_LOOP * times[-1])
        self.attempted += len(times)
        self.busy += sum(times)
        if failed:
            self.failed += len(times)
            return
        checks = group.check(outputs)
        bad = [c for c in checks if not c.passed]
        if bad:
            self.bad_checks += [f"{group.label}: {c.name} residual {c.residual} > bound {c.bound}"
                                for c in bad]
            return
        self.passed += len(times)
        self.latencies += times
        for (kind, _), t in zip(group.calls, times):
            self.by_kind[kind].append(t)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()

    start = perf_counter()
    borelsum = import_program(root)
    import_s = perf_counter() - start

    from mpmath import mp

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    mp.dps = workload.dps
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(borelsum)
    # the host speed is sampled after each warm-up call, so that the
    # samples follow the host's load through set-up
    host = HostSpeed()
    setup_raw = import_s
    for call in workload.warmup:
        start = perf_counter()
        call()
        seconds = perf_counter() - start
        setup_raw += seconds
        host.sample(HOST_SHARE_SETUP * seconds)
    setup = (setup_raw, setup_raw * host.factor)
    if args.setup_probe:
        print(*map(repr, setup))
        return 0

    refs = workloads.References()
    inputs = workloads.Inputs(args.seed)
    tally = Tally()
    if tracer is not None:
        tracer.start_loop()
    rounds = 0
    loop_start = perf_counter()
    while True:
        for group in workload.round(inputs, rounds, refs):
            tally.run_group(group, workloads.LIBRARY_ERRORS + (workloads.CliFailure,))
        rounds += 1
        if perf_counter() - loop_start >= args.seconds:
            break
    wall = perf_counter() - loop_start

    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "wall_s": round(wall, 3), "busy_s": round(tally.busy, 3),
        "host_factor": tally.host.factor,
        "failed_kinds": dict(tally.failed_kinds),
        "median_ms_by_kind": {k: round(1000 * statistics.median(v), 3)
                              for k, v in sorted(tally.by_kind.items())},
    }
    # median and tail latency are steady only with many calls per run, so
    # they are reported here and not as end-to-end metrics
    summary["op_p50_ms"] = 1000 * statistics.median(tally.latencies)
    if len(tally.latencies) >= 100:
        summary["op_p90_ms"] = 1000 * statistics.quantiles(tally.latencies, n=10)[-1]
    for line in tally.bad_checks:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer is not None:
        tracer.uninstall()
        units = tracing.metric_units()
        values = tracer.metrics(tally.attempted)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        tracer.write(os.path.join(root, ".perfbench",
                                  f"trace-{args.workload}-seed{args.seed}.tsv"))
        summary["spans"] = len(tracer.spans)
    else:
        setups = setup_samples(args, setup)
        summary["raw_setup_samples_s"] = [round(raw, 4) for raw, _ in setups]
        summary["raw_ops_per_s"] = tally.passed / tally.busy
        values = {
            "ops_per_s": tally.passed / (tally.busy * tally.host.factor),
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": not tally.bad_checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
