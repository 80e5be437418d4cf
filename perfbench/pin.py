#!/usr/bin/env python3
"""Pins the output digests and work counts the benchmark checks against.

    python3 perfbench/pin.py [workload ...]

For every workload (default: all four) and each of the six seed classes
(seed mod 6), runs one untraced and one traced iteration at full size,
requires the two digests to agree, and writes the digest and the pinned
counts into perfbench/reference.json. Rerun it only when a change is meant
to alter the workloads' outputs, and say so in the change.
"""

import json
import sys

import run


def main(argv):
    workloads = argv or list(run.WORKLOADS)
    binary = run.build()
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for workload in workloads:
        for seed_class in range(6):
            raw = run.run_harness(binary, workload, seed_class, 0.01,
                                  trace=True, size="full")
            digests = {it["digest"] for it in raw["iterations"]}
            errors = [it["error"] for it in raw["iterations"] if it["error"]]
            if raw["failures"] or errors or len(digests) != 1:
                sys.exit(f"{workload} seed {seed_class}: {raw['failures']} "
                         f"{errors} {sorted(digests)}")
            key = str(seed_class)
            reference.setdefault("digests", {}).setdefault(workload, {})[
                key] = digests.pop()
            reference.setdefault("counts", {}).setdefault(workload, {})[
                key] = {name: raw["layers"][name]
                        for name in run.PINNED_COUNTS}
            run.log(f"pinned {workload} seed class {seed_class}")
            path.write_text(json.dumps(reference, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
