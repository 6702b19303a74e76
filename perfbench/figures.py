"""Regenerate the reference figures quoted in perfbench/README.md.

    python3 perfbench/figures.py [--seed 1] [--seconds 15]

Run from the root of a source checkout.  Prints, as JSON lines:

- the exact counts of three single calls (quadrature evaluations and
  _adaptive_segment calls, peak working precision inside _dawson_maclaurin);
- for each workload, an untraced and a traced run of run.py with the same
  seed: per-layer metrics, and the tracing overhead as the traced minus the
  untraced time spent in program calls per operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))


def single_call_counts() -> list[dict]:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from mpmath import mp

    import borelsum
    import tracing

    out = []
    mp.dps = 25
    for label, call in tracing.reference_calls(borelsum).items():
        tracer = tracing.traced(borelsum, call)
        out.append({
            "call": label,
            "integrand_evals": tracer.counts["specfun.integrand_evals"],
            "adaptive_segment_calls": tracer.counts["specfun.panels"],
            "bisections": tracer.counts["specfun.bisections"],
            "peak_dps": tracer.peak_dps,
        })
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    summary = json.loads(done.stderr.strip().splitlines()[-1])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return summary, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()
    for line in single_call_counts():
        print(json.dumps(line), flush=True)
    for workload in WORKLOAD_NAMES:
        plain, plain_result = bench(workload, args.seed, args.seconds, 0)
        traced, traced_result = bench(workload, args.seed, args.seconds, 1)
        # program time at the reference host speed (see run.py)
        per_op = plain["busy_s"] * plain["host_factor"] / plain_result["attempted"]
        traced_per_op = traced["busy_s"] * traced["host_factor"] / traced_result["attempted"]
        print(json.dumps({
            "workload": workload,
            "seed": args.seed,
            "untraced_s_per_op": per_op,
            "traced_s_per_op": traced_per_op,
            "tracing_overhead": traced_per_op / per_op - 1,
            "spans_per_op": traced["spans"] / traced_result["attempted"],
            "untraced_summary": plain,
            "per_layer": {k: v["value"] for k, v in traced_result["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
