#!/usr/bin/env python3
"""Benchmark of the attribution pipeline: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the harness (perfbench/harness)
and the libraries it drives from ../src into .bench_build/perfbench, runs
one workload for about <s> seconds, checks every iteration's output digest
against the digest pinned for that seed in perfbench/reference.json (and,
for seed 0, the paper-table cells in perfbench/reference/*.csv), and prints
the result as one JSON object on the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Everything else (build log, run notes) goes to standard error. Exits
nonzero without a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attrib205", "binary", "label_chains", "scale_stream")
POOL_THREADS = 4  # fixed pool size, capped by the cores present

# Counts that are a pure function of the inputs: pinned per seed.
PINNED_COUNTS = ("ml.trees", "ml.rows_predicted", "llm.samples",
                 "corpus.samples")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build():
    """Configures once, then rebuilds incrementally. Returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(POOL_THREADS, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def run_harness(binary, workload, seed, seconds, trace, size):
    """Runs the harness once and returns its raw report."""
    scratch = build_dir() / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = dict(os.environ)
    env["SCA_THREADS"] = str(min(POOL_THREADS, os.cpu_count() or 1))
    try:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0",
             "--size", size, "--scratch", str(scratch)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RAW "):
            raw = json.loads(line[len("PERFBENCH_RAW "):])
        else:
            log(line)
    if proc.returncode != 0 or raw is None:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return raw


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference():
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def table_rows(csv_text, columns=None):
    """Data rows (C1.., A) of a bench CSV, optionally a column subset."""
    rows = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        if not cells or not (cells[0] == "A" or cells[0][1:].isdigit()):
            continue
        rows.append(cells if columns is None else [cells[i] for i in columns])
    return rows


def expected_table(workload):
    """Paper-table cells the seed-0 result must reproduce, or None."""
    if workload == "attrib205":
        text = (HERE / "reference" / "table09_feature_based.csv").read_text()
        return table_rows(text, [0, 1, 2, 3])  # C and the 2017 columns
    if workload == "binary":
        return table_rows((HERE / "reference" / "table10_binary.csv")
                          .read_text())
    return None


def check(raw, reference):
    """Marks every iteration ok or not; returns the list of problems."""
    problems = list(raw["failures"])
    workload, seed_class = raw["workload"], str(raw["seed_class"])
    pinned = None
    if raw["size"] == "full":
        pinned = reference.get("digests", {}).get(workload, {}).get(seed_class)
        if pinned is None:
            problems.append(f"no digest pinned for {workload} seed class "
                            f"{seed_class}")
    else:
        # Reduced sizes have no pins: every iteration, traced or not, must
        # agree with the first.
        ok = [it for it in raw["iterations"] if not it["error"]]
        pinned = ok[0]["digest"] if ok else None
    table = expected_table(workload) if raw["seed_class"] == 0 and \
        raw["size"] == "full" else None
    for index, it in enumerate(raw["iterations"]):
        reason = it["error"]
        if not reason and it["digest"] != pinned:
            reason = f"digest {it['digest']} != pinned {pinned}"
        if not reason and table is not None and \
                table_rows(it["table"]) != table:
            reason = "result differs from the paper-bench CSV cells"
        it["ok"] = not reason
        if reason:
            problems.append(f"iteration {index}: {reason}")
    if raw["traced"] and raw["size"] == "full":
        counts = reference.get("counts", {}).get(workload, {}).get(seed_class)
        for name in PINNED_COUNTS:
            got = raw["layers"].get(name)
            if counts is None or counts.get(name) != got:
                problems.append(f"{name} = {got}, pinned "
                                f"{None if counts is None else counts.get(name)}")
    return problems


def end_to_end(raw):
    """Every end-to-end metric, by the name BENCHMARK.json gives it."""
    timed = [it for it in raw["iterations"] if not it["traced"]]
    done = [it for it in timed if not it["error"]]
    failed = sum(1 for it in timed if not it["ok"])
    log(f"{raw['describe']}; pool {raw['threads']} threads; "
        f"{len(timed)} timed iterations, {len(raw['setup_s'])} set-ups; "
        f"first set-up (from process start) {raw['setup_s'][0]:.4f} s")
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.median(it["wall_s"] for it in done),
        "items_per_s": statistics.median(it["units"] / it["wall_s"]
                                         for it in done),
        "cpu_s": statistics.median(it["cpu_s"] for it in done),
        "peak_rss_mb": raw["peak_rss_mb"],
        "success_rate": 1.0 - failed / len(timed),
    }


def with_units(values, declared):
    """Attaches the declared unit to each value; names must match."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        binary = build()
        raw = run_harness(binary, args.workload, args.seed, args.seconds,
                          args.trace == 1, "full")
    except (RuntimeError, subprocess.CalledProcessError, OSError) as error:
        log(f"perfbench: {error}")
        return 1
    problems = check(raw, load_reference())
    for problem in problems:
        log(f"perfbench: CHECK FAILED: {problem}")
    if not any(not it["traced"] and not it["error"]
               for it in raw["iterations"]):
        log("perfbench: no iteration completed")
        return 1
    spec = load_spec()
    if args.trace:
        metrics = with_units(raw["layers"], spec["per_layer"])
    else:
        metrics = with_units(end_to_end(raw), spec["end_to_end"])
    result = {
        "correct": not problems,
        "attempted": len(raw["iterations"]),
        "failed": sum(1 for it in raw["iterations"] if not it["ok"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
