#!/usr/bin/env python3
"""Reduced-size smoke test of the benchmark: all four workloads in seconds.

    python3 perfbench/smoke.py

For each workload, runs the harness at the smoke sizes once untraced and
once traced, and fails (exit 1) unless
  * every check of run.py passes (digests of all iterations agree, the
    traced iterations reproduce the untraced digest, the traced span trees
    are whole),
  * the untraced and traced runs report the same digest,
  * the metric names are exactly those BENCHMARK.json declares.
"""

import sys

import run


def main():
    spec = run.load_spec()
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    binary = run.build()
    failures = []
    for workload in run.WORKLOADS:
        digests = set()
        for trace in (False, True):
            raw = run.run_harness(binary, workload, 0, 0.3, trace, "smoke")
            label = f"{workload} trace={int(trace)}"
            failures += [f"{label}: {p}" for p in run.check(raw, {})]
            digests |= {it["digest"] for it in raw["iterations"]}
            names = set(raw["layers"] if trace else run.end_to_end(raw))
            want = layer_names if trace else e2e_names
            if names != want:
                failures.append(f"{label}: metric names differ: missing "
                                f"{sorted(want - names)}, extra "
                                f"{sorted(names - want)}")
        if len(digests) != 1:
            failures.append(f"{workload}: digests differ across runs: "
                            f"{sorted(digests)}")
        run.log(f"smoke {workload}: {'ok' if not failures else 'FAILED'}")
    for failure in failures:
        run.log(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
