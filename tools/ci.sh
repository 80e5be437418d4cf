#!/usr/bin/env bash
# CI entry point: build + test the two configurations that gate a PR.
#
#   1. Release        — the tier-1 suite exactly as ROADMAP.md specifies.
#   2. ThreadSanitizer — the same suite under -fsanitize=thread, proving the
#      shared runtime pool, the feature analysis cache and the parallel
#      fold/forest paths are race-free.
#   3. AddressSanitizer + fault injection — the same suite under
#      -fsanitize=address with SCA_FAULT_RATE>0, so every env-driven
#      pipeline exercises the fault-injection/retry/degradation stack and
#      the parser-hardening paths while ASan watches for memory errors.
#
# The Release tree builds from clean, and a warning gate then fails on any
# `warning:` in its build log located in the repository's own files
# (src/, tests/, bench/, tools/, examples/). Warnings located in system
# headers stay allowed: GCC 12 raises -Wrestrict / -Wstringop-overflow
# false positives in char_traits.h and stl_algobase.h through inlining.
#
# After the Release configuration, an observability smoke runs the
# deterministic one-shot pipeline (SCA_PIPELINE_ONCE) at 1 and 8 threads
# with tracing and fault injection on, validates the emitted manifest and
# Chrome trace with sca_cli (which exits nonzero on malformed files or an
# empty metrics snapshot), and byte-compares the stable metrics sections —
# the registry's thread-count-invariance contract, checked on every PR.
# A third, 8-thread run with SCA_LOG on at debug level must give the same
# stable bytes, and its JSONL log must hold the session start and end.
#
# A warm-cache smoke then runs the same pipeline with the persistent cache
# off, cold and warm (SCA_CACHE_DIR), byte-compares outputs and stable
# metrics across all three states and both thread counts, verifies the
# store with `sca_cli cache verify`, and runs the micro_cache bench (which
# exits nonzero unless warm is >= 3x faster than cold with identical
# digests).
#
# A perf-history smoke then proves the regression gate in both directions:
# identical re-runs of the one-shot pipeline must pass `sca_cli history
# check`, a slowdown injected via SCA_OBS_TEST_DELAY_MS must trip it, and
# a tampered stable digest must fail it regardless of timing.
#
# A perf-seed smoke then runs the one-shot pipeline against the committed
# seed baseline (tools/perf/seed_baseline.jsonl): `history check` must pass
# (which also pins the stable digest), and the best-of-3 analysis phase must
# be at least 2x faster than the seed median — the zero-copy lexer / arena
# AST speedup, locked so it cannot silently erode.
#
# A paper-table step then runs the 12 table/figure benches at SCA_THREADS=1
# and 4 and compares the SHA-256 of every CSV they write against the
# committed tools/perf/table_digests.txt, so no change can move a reported
# number without updating the digests in the same commit. Each bench's
# stdout must also be byte-identical between the two thread counts.
# table10_binary and table05_diversity_2017 also run at SCA_THREADS=3,
# where table10's loop over every (fold, tree) pair and the oracle's
# prediction over table05's distinct transformed texts split unevenly over
# the workers; each one's CSV and stdout must equal the 1-thread run's.
#
# A checkpoint-resume smoke runs the one-shot pipeline with
# SCA_CHECKPOINT_DIR set, requires `sca_cli checkpoints` to report every
# loose chain file complete, and byte-compares the pipeline digests of a
# rerun resumed from those files with the first run's.
#
# A benchmark smoke then runs perfbench/smoke.py: all four BENCHMARK.json
# workloads at smoke size, traced and untraced, whose digests must agree.
# It is the only step that drives the benchmark harness.
#
# Finally, an ASan+UBSan tree focused on raw offset arithmetic runs
# lexer_test, parser_fuzz_test and roundtrip_property_test (the zero-copy
# lexer's string_view offsets and the arena parser's node ids), ml_test
# and matrix_test (the forest fit's feature-major `f * rows + i` column
# offsets and the mmap'ed matrix rows), features_test (the feature
# table's CSR term offsets, `row * width` fixed-column offsets and the
# selector's per-label count arrays) and core_test (the fold row indices
# into that table): exactly what -fsanitize=address,undefined exists to
# check.
#
# Usage: tools/ci.sh [jobs]     (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"; shift
  echo "=== configure $dir ($*) ==="
  cmake -B "$dir" -S . "$@"
  echo "=== build $dir ==="
  cmake --build "$dir" -j "$JOBS" 2>&1 | tee "$dir/build.log"
  echo "=== test $dir ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

# Fails on a warning located in a repository file. Diagnostics carry the
# absolute source path, so the checkout prefix is stripped first.
warning_gate() {
  local log="$1" found
  found=$(sed "s|^$PWD/||" "$log" |
    grep -E '^(src|tests|bench|tools|examples)/[^:]+:[0-9]+:([0-9]+:)? warning:' |
    sort -u || true)
  if [ -n "$found" ]; then
    echo "warnings in repository files:" >&2
    echo "$found" >&2
    exit 1
  fi
  echo "=== warning gate ok ==="
}

# From clean, so the gate sees every translation unit, not only the ones a
# previous build left stale.
if [ -f build-release/CMakeCache.txt ]; then
  cmake --build build-release --target clean
fi
run_config build-release -DCMAKE_BUILD_TYPE=Release
warning_gate build-release/build.log

obs_smoke() {
  echo "=== observability smoke (build-release) ==="
  local dir=build-release/obs-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local t
  for t in 1 8; do
    # SCA_CHECKPOINT_DIR and SCA_CACHE_DIR are cleared so a caller's warm
    # directories cannot change what work the two runs actually perform
    # (resumed or cache-served chains would legitimately differ).
    (cd "$dir" &&
     SCA_PIPELINE_ONCE=1 SCA_THREADS=$t SCA_FAULT_RATE=0.05 \
       SCA_CHECKPOINT_DIR= SCA_CACHE_DIR= \
       SCA_TRACE="trace_t$t.json" SCA_MANIFEST="manifest_t$t.json" \
       ../bench/micro_pipeline)
    # Both inspectors fail on malformed input; --stable additionally fails
    # on an empty metrics snapshot (lost telemetry).
    build-release/tools/sca_cli metrics "$dir/manifest_t$t.json" --stable \
      > "$dir/stable_t$t.json"
    build-release/tools/sca_cli trace "$dir/trace_t$t.json" > /dev/null
    grep -q '"status":"complete"' "$dir/manifest_t$t.json" ||
      { echo "manifest_t$t.json not marked complete" >&2; exit 1; }
  done
  cmp "$dir/stable_t1.json" "$dir/stable_t8.json" ||
    { echo "stable metrics differ between SCA_THREADS=1 and 8" >&2; exit 1; }
  # The event log observes without participating: the same 8-thread run
  # with the JSONL log on at debug level must produce the same stable
  # bytes, and the log must hold the bench session's start and end.
  (cd "$dir" &&
   SCA_PIPELINE_ONCE=1 SCA_THREADS=8 SCA_FAULT_RATE=0.05 \
     SCA_CHECKPOINT_DIR= SCA_CACHE_DIR= \
     SCA_TRACE=trace_log_t8.json SCA_MANIFEST=manifest_log_t8.json \
     SCA_LOG=log_t8.jsonl SCA_LOG_LEVEL=debug ../bench/micro_pipeline)
  build-release/tools/sca_cli metrics "$dir/manifest_log_t8.json" --stable \
    > "$dir/stable_log_t8.json"
  cmp "$dir/stable_t8.json" "$dir/stable_log_t8.json" ||
    { echo "stable metrics differ with SCA_LOG on (t=8)" >&2; exit 1; }
  local event
  for event in session_start session_end; do
    grep -q "\"event\":\"$event\"" "$dir/log_t8.jsonl" ||
      { echo "log_t8.jsonl has no $event event" >&2; exit 1; }
  done
  echo "=== observability smoke ok ==="
}
obs_smoke

# Warm-cache smoke: the persistent cache's hard invariant is that results
# are byte-identical with the cache off, cold, or warm — at any thread
# count. Run the deterministic one-shot pipeline in all three states at 1
# and 8 threads, byte-compare the "[pipeline]" digest lines and the stable
# metrics sections, and require the warm manifest to show actual hits.
cache_smoke() {
  echo "=== warm-cache smoke (build-release) ==="
  local dir=build-release/cache-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local t mode cachedir
  for t in 1 8; do
    for mode in off cold warm; do
      cachedir="$PWD/$dir/store_t$t"
      [ "$mode" = off ] && cachedir=
      (cd "$dir" &&
       SCA_PIPELINE_ONCE=1 SCA_THREADS=$t SCA_FAULT_RATE=0.05 \
         SCA_CHECKPOINT_DIR= SCA_CACHE_DIR="$cachedir" \
         SCA_MANIFEST="manifest_${mode}_t$t.json" \
         ../bench/micro_pipeline) | grep '^\[pipeline\]' \
        > "$dir/pipeline_${mode}_t$t.txt"
      build-release/tools/sca_cli metrics "$dir/manifest_${mode}_t$t.json" \
        --stable > "$dir/stable_${mode}_t$t.json"
    done
    for mode in cold warm; do
      cmp "$dir/pipeline_off_t$t.txt" "$dir/pipeline_${mode}_t$t.txt" ||
        { echo "pipeline output differs cache-$mode vs off (t=$t)" >&2
          exit 1; }
      cmp "$dir/stable_off_t$t.json" "$dir/stable_${mode}_t$t.json" ||
        { echo "stable metrics differ cache-$mode vs off (t=$t)" >&2
          exit 1; }
    done
    grep -Eq '"cache_hits":[1-9]' "$dir/manifest_warm_t$t.json" ||
      { echo "warm manifest shows no cache hits (t=$t)" >&2; exit 1; }
    build-release/tools/sca_cli cache verify "$dir/store_t$t" ||
      { echo "cache verify failed (t=$t)" >&2; exit 1; }
    build-release/tools/sca_cli cache stats "$dir/store_t$t" \
      "$dir/manifest_warm_t$t.json"
  done
  # Thread-count invariance across cache states, not just within one.
  cmp "$dir/pipeline_warm_t1.txt" "$dir/pipeline_warm_t8.txt" ||
    { echo "pipeline output differs between SCA_THREADS=1 and 8" >&2
      exit 1; }
  # The dedicated bench enforces the warm >= 3x speedup and the off/cold/
  # warm digest identity on a larger workload (exits nonzero otherwise).
  (cd "$dir" && SCA_CACHE_DIR="$PWD/bench_store" SCA_THREADS= \
     ../bench/micro_cache)
  echo "=== warm-cache smoke ok ==="
}
cache_smoke

# Perf-history smoke: the regression gate must have both a demonstrated
# pass and a demonstrated failure, or it gates nothing. Three clean runs
# build the baseline; `history check` must accept a fourth identical run,
# reject one slowed down by the SCA_OBS_TEST_DELAY_MS test hook (excluded
# from the env comparability class precisely so the delayed run baselines
# against the clean ones), and reject a tampered stable digest outright.
history_smoke() {
  echo "=== perf-history smoke (build-release) ==="
  local dir=build-release/history-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli
  run_pipeline() {
    (cd "$dir" &&
     SCA_PIPELINE_ONCE=1 SCA_THREADS=2 SCA_FAULT_RATE=0.05 \
       SCA_CHECKPOINT_DIR= SCA_CACHE_DIR= SCA_HISTORY="$hist" \
       SCA_OBS_TEST_DELAY_MS="${1:-}" \
       ../bench/micro_pipeline > /dev/null)
  }
  local i
  for i in 1 2 3; do run_pipeline; done
  "$cli" history check "$hist" ||
    { echo "history check failed on identical re-runs" >&2; exit 1; }
  run_pipeline 400
  if "$cli" history check "$hist" > /dev/null; then
    echo "history check missed the injected slowdown" >&2; exit 1
  fi
  sed '$ s/"digest":"[0-9a-f]*"/"digest":"0000000000000000"/' "$hist" \
    > "$dir/tampered.jsonl"
  if "$cli" history check "$dir/tampered.jsonl" --factor 1000 > /dev/null
  then
    echo "history check missed a stable-digest change" >&2; exit 1
  fi
  "$cli" history gc "$hist" --keep 2
  "$cli" history list "$hist"
  echo "=== perf-history smoke ok ==="
}
history_smoke

# Perf-seed smoke: the committed seed baseline is the pre-rework cost of the
# analysis phase. `history check` compares the three fresh runs against it
# (same bench, threads and env class ⇒ same group) and fails on a slowdown
# or a stable-digest change; the awk gate then enforces the stronger claim
# the zero-copy rework made — analysis at least 2x faster than the seed
# median. Best-of-3 vs the seed *median* damps machine noise on both sides.
perf_seed_smoke() {
  echo "=== perf-seed smoke (build-release) ==="
  local dir=build-release/perf-seed-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli
  cp tools/perf/seed_baseline.jsonl "$hist"
  # The seed records' env class is exactly "SCA_PIPELINE_ONCE=1". Run under
  # env -i so no stray SCA_* variable from the caller's shell (even one set
  # to the empty string) can split the fresh records into a different,
  # never-compared group.
  local i
  for i in 1 2 3; do
    (cd "$dir" &&
     env -i PATH="$PATH" HOME="$HOME" \
       SCA_PIPELINE_ONCE=1 SCA_THREADS=1 SCA_HISTORY="$hist" \
       SCA_MANIFEST="manifest_$i.json" \
       ../bench/micro_pipeline > /dev/null)
  done
  "$cli" history check "$hist" ||
    { echo "history check failed against the seed baseline" >&2; exit 1; }
  awk '
    match($0, /"analysis":[0-9.eE+-]+/) {
      v = substr($0, RSTART + 11, RLENGTH - 11) + 0
      a[++n] = v
    }
    END {
      if (n != 6) {
        print "perf-seed smoke: expected 6 analysis records, got " n
        exit 1
      }
      # Median of the three seed records = sum minus min minus max.
      lo = a[1]; hi = a[1]
      for (i = 2; i <= 3; i++) {
        if (a[i] < lo) lo = a[i]
        if (a[i] > hi) hi = a[i]
      }
      med = a[1] + a[2] + a[3] - lo - hi
      best = a[4]
      for (i = 5; i <= 6; i++) if (a[i] < best) best = a[i]
      printf "seed median %.6fs, best new %.6fs, speedup %.2fx\n", \
             med, best, med / best
      if (best * 2 > med) {
        print "perf-seed smoke: analysis phase no longer >= 2x faster " \
              "than the seed baseline"
        exit 1
      }
    }
  ' "$hist" || exit 1
  echo "=== perf-seed smoke ok ==="
}
perf_seed_smoke

# Paper-table pins: the same digests must come out at 1 and at 4 threads
# (the determinism invariant) and must equal the committed ones. A change
# that is meant to move a table updates tools/perf/table_digests.txt and
# EXPERIMENTS.md together. Each bench's stdout (the printed table) must
# also be byte-identical between the two thread counts; only stderr, where
# parallel folds log their progress, may differ. Release on 4 cores: about
# 20 s at 4 threads, 50 s at 1.
table_digest_smoke() {
  echo "=== paper-table digests (build-release) ==="
  local t
  for t in 1 4; do
    tools/perf/table_digests.sh build-release "$t" \
      "build-release/table-digests-t$t" > "build-release/table_digests_t$t.txt"
    diff tools/perf/table_digests.txt "build-release/table_digests_t$t.txt" ||
      { echo "paper-table CSVs differ from the pinned digests at" \
             "SCA_THREADS=$t" >&2; exit 1; }
  done
  local out count=0
  for out in build-release/table-digests-t1/*.out; do
    cmp "$out" "build-release/table-digests-t4/$(basename "$out")" ||
      { echo "paper-table stdout differs between SCA_THREADS=1 and 4:" \
             "$(basename "$out")" >&2; exit 1; }
    count=$((count + 1))
  done
  [ "$count" -eq 12 ] ||
    { echo "paper-table stdout: expected 12 bench outputs, found $count" >&2
      exit 1; }
  local bench t3 csv
  for bench in table10_binary table05_diversity_2017; do
    t3="build-release/$bench-t3"
    rm -rf "$t3" && mkdir -p "$t3"
    (cd "$t3" &&
     env -i PATH="$PATH" HOME="${HOME:-/tmp}" SCA_THREADS=3 SCA_HISTORY=off \
       "../bench/$bench" > "$bench.out" 2> "$bench.err") ||
      { echo "$bench failed at SCA_THREADS=3; see $t3" >&2; exit 1; }
    cmp "$t3/$bench.out" "build-release/table-digests-t1/$bench.out" ||
      { echo "$bench stdout differs between SCA_THREADS=1 and 3" >&2
        exit 1; }
    count=0
    for csv in "$t3"/bench_out/*.csv; do
      cmp "$csv" "build-release/table-digests-t1/bench_out/$(basename "$csv")" ||
        { echo "$bench CSV differs between SCA_THREADS=1 and 3:" \
               "$(basename "$csv")" >&2; exit 1; }
      count=$((count + 1))
    done
    [ "$count" -ge 1 ] ||
      { echo "$bench wrote no CSV at SCA_THREADS=3" >&2; exit 1; }
  done
  echo "=== paper-table digests ok ==="
}
table_digest_smoke

# Out-of-core scale smoke: macro_scale generates a small corpus through the
# sharded matrix builder and asserts its own invariants (streaming vs
# resident prediction identity, RSS bound) with a nonzero exit. The shell
# adds the cross-run claims: the stable metrics — which carry the matrix
# content hash and the fold of every streamed prediction — must be
# byte-identical across SCA_THREADS=1/8 and across shard sizes; an
# injected crash must exit nonzero and the resumed build must reuse its
# segments while reproducing the same stable bytes; and the RSS gate gets
# its demonstrated failure, mirroring the slowdown test: three clean runs
# baseline `history check`, then a run with SCA_OBS_TEST_BALLAST_KB
# (excluded from the env class, like the delay hook) must trip an "rss"
# finding.
scale_smoke() {
  echo "=== out-of-core scale smoke (build-release) ==="
  local dir=build-release/scale-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli

  run_scale() {  # run_scale <tag> <threads> <shard> <corpusdir> [extra env]
    local tag="$1" threads="$2" shard="$3" corpus="$4"; shift 4
    (cd "$dir" &&
     env "$@" SCA_THREADS="$threads" SCA_SCALE_AUTHORS=64 \
       SCA_SCALE_SHARD="$shard" SCA_SCALE_TRAIN_AUTHORS=24 \
       SCA_SCALE_TREES=6 SCA_SCALE_DIR="$corpus" \
       SCA_CHECKPOINT_DIR= SCA_CACHE_DIR= \
       SCA_MANIFEST="manifest_$tag.json" \
       ../bench/macro_scale > "out_$tag.txt")
  }

  run_scale t1 1 16 corpus_t1 ||
    { cat "$dir/out_t1.txt" >&2; echo "macro_scale t1 failed" >&2; exit 1; }
  run_scale t8 8 16 corpus_t8 ||
    { cat "$dir/out_t8.txt" >&2; echo "macro_scale t8 failed" >&2; exit 1; }
  run_scale shard7 8 7 corpus_shard7 ||
    { echo "macro_scale shard-size-7 run failed" >&2; exit 1; }
  local tag
  for tag in t1 t8 shard7; do
    "$cli" metrics "$dir/manifest_$tag.json" --stable \
      > "$dir/stable_$tag.json"
  done
  cmp "$dir/stable_t1.json" "$dir/stable_t8.json" ||
    { echo "scale smoke: stable metrics differ between SCA_THREADS=1 and 8" \
        >&2; exit 1; }
  cmp "$dir/stable_t8.json" "$dir/stable_shard7.json" ||
    { echo "scale smoke: stable metrics depend on the shard size" >&2
      exit 1; }
  grep -q '"rusage_max_rss_kb":' "$dir/manifest_t1.json" ||
    { echo "scale smoke: manifest carries no peak-RSS gauge" >&2; exit 1; }

  # Injected crash: nonzero exit, partial manifest, segments left behind;
  # the resume reuses them and reproduces the clean runs' stable bytes.
  if run_scale crash 2 16 corpus_crash SCA_SCALE_CRASH_SHARDS=2; then
    echo "scale smoke: injected crash did not fail the build" >&2; exit 1
  fi
  ls "$dir"/corpus_crash/seg_* > /dev/null 2>&1 ||
    { echo "scale smoke: crash left no segment checkpoints" >&2; exit 1; }
  run_scale resume 2 16 corpus_crash ||
    { echo "macro_scale resume run failed" >&2; exit 1; }
  grep -Eq '"corpus_shards_resumed":[1-9]' "$dir/manifest_resume.json" ||
    { echo "scale smoke: resume rebuilt everything from scratch" >&2
      exit 1; }
  "$cli" metrics "$dir/manifest_resume.json" --stable \
    > "$dir/stable_resume.json"
  cmp "$dir/stable_t1.json" "$dir/stable_resume.json" ||
    { echo "scale smoke: crash/resume changed the stable metrics" >&2
      exit 1; }

  # RSS gate, both directions: clean re-runs pass, a ballast-bloated run
  # (~12x this workload's ~20 MB peak, far past the 1.5x/32 MiB gates)
  # must be flagged as an "rss" regression.
  local i
  for i in 1 2 3; do
    run_scale "hist$i" 2 16 corpus_hist SCA_HISTORY="$hist" ||
      { echo "macro_scale history run $i failed" >&2; exit 1; }
  done
  "$cli" history check "$hist" ||
    { echo "history check failed on identical scale re-runs" >&2; exit 1; }
  run_scale ballast 2 16 corpus_hist SCA_HISTORY="$hist" \
      SCA_OBS_TEST_BALLAST_KB=262144 ||
    { echo "macro_scale ballast run failed" >&2; exit 1; }
  if "$cli" history check "$hist" > "$dir/rss_check.txt" 2>&1; then
    echo "history check missed the injected RSS blow-up" >&2; exit 1
  fi
  grep -q 'rss' "$dir/rss_check.txt" ||
    { echo "history check failed for a non-rss reason:" >&2
      cat "$dir/rss_check.txt" >&2; exit 1; }
  echo "=== out-of-core scale smoke ok ==="
}
scale_smoke

# Checkpoint-resume smoke: a real pipeline run writes one loose chain file
# per (setting, challenge), the inspector must report every one complete,
# and a rerun resumed from those files must reproduce the first run's
# pipeline digests byte for byte.
checkpoint_smoke() {
  echo "=== checkpoint-resume smoke (build-release) ==="
  local dir=build-release/checkpoint-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local cli=build-release/tools/sca_cli
  local ckpt="$PWD/$dir/ckpt"

  run_once() {  # run_once <tag>; the JSONL debug log records each resume
    (cd "$dir" &&
     SCA_PIPELINE_ONCE=1 SCA_THREADS=2 SCA_FAULT_RATE=0.05 \
       SCA_CHECKPOINT_DIR="$ckpt" SCA_CACHE_DIR= \
       SCA_LOG="log_$1.jsonl" SCA_LOG_LEVEL=debug \
       ../bench/micro_pipeline) | grep '^\[pipeline\]' \
      > "$dir/pipeline_$1.txt"
  }
  run_once first
  ls "$ckpt"/chain_*.jsonl > /dev/null 2>&1 ||
    { echo "checkpoint smoke: pipeline wrote no chain files" >&2; exit 1; }
  "$cli" checkpoints "$ckpt" > "$dir/inspect.txt" ||
    { echo "checkpoint smoke: inspector failed" >&2; exit 1; }
  grep -Eq '^([0-9]+)/\1 chains complete$' "$dir/inspect.txt" ||
    { cat "$dir/inspect.txt" >&2
      echo "checkpoint smoke: not every chain is complete" >&2; exit 1; }

  run_once resumed
  grep -q '"event":"resumed"' "$dir/log_resumed.jsonl" ||
    { echo "checkpoint smoke: rerun resumed no chain" >&2; exit 1; }
  cmp "$dir/pipeline_first.txt" "$dir/pipeline_resumed.txt" ||
    { echo "checkpoint smoke: resumed run diverged from the first run" >&2
      exit 1; }
  echo "=== checkpoint-resume smoke ok ==="
}
checkpoint_smoke

# Flight-recorder smoke: the recorder's hard invariant is that it OBSERVES
# without participating — stable output bytes are identical with the rings
# and watchdog armed or disabled. Then both forensic paths are exercised
# for real: a wedged pool task must trip the watchdog dump, and a SIGSEGV
# delivered mid-run must leave a postmortem the offline reconstructor can
# render.
flight_smoke() {
  echo "=== flight-recorder smoke (build-release) ==="
  local dir=build-release/flight-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local cli=build-release/tools/sca_cli

  # 1) Byte-identity: recorder+watchdog on vs recorder off, at 1 and 8
  # threads. A clean run must also leave no watchdog dump behind.
  local t mode
  for t in 1 8; do
    for mode in on off; do
      local events=256
      [ "$mode" = off ] && events=0
      (cd "$dir" &&
       SCA_PIPELINE_ONCE=1 SCA_THREADS=$t SCA_FAULT_RATE=0.05 \
         SCA_CHECKPOINT_DIR= SCA_CACHE_DIR= \
         SCA_FLIGHT_EVENTS=$events SCA_WATCHDOG_S=2 \
         SCA_FLIGHT_DIR="flight_t${t}_$mode" \
         SCA_MANIFEST="manifest_t${t}_$mode.json" \
         ../bench/micro_pipeline) |
        grep '^\[pipeline\]' > "$dir/pipeline_t${t}_$mode.txt"
      "$cli" metrics "$dir/manifest_t${t}_$mode.json" --stable \
        > "$dir/stable_t${t}_$mode.json"
    done
    cmp "$dir/pipeline_t${t}_on.txt" "$dir/pipeline_t${t}_off.txt" ||
      { echo "flight smoke: recorder changed pipeline digests (t=$t)" >&2
        exit 1; }
    cmp "$dir/stable_t${t}_on.json" "$dir/stable_t${t}_off.json" ||
      { echo "flight smoke: recorder changed stable metrics (t=$t)" >&2
        exit 1; }
    if [ -e "$dir/flight_t${t}_on/watchdog.json" ]; then
      echo "flight smoke: watchdog dumped on a clean run (t=$t)" >&2
      exit 1
    fi
  done
  cmp "$dir/stable_t1_on.json" "$dir/stable_t8_on.json" ||
    { echo "flight smoke: stable metrics differ between threads" >&2
      exit 1; }

  # 2) Wedged pool task (test hook stalls the first task for 6s) must trip
  # the 1s watchdog; the run still completes, the dump names the stall.
  (cd "$dir" &&
   SCA_PIPELINE_ONCE=1 SCA_THREADS=4 SCA_FAULT_RATE=0.05 \
     SCA_CHECKPOINT_DIR= SCA_CACHE_DIR= \
     SCA_OBS_TEST_STALL_MS=6000 SCA_WATCHDOG_S=1 \
     SCA_FLIGHT_DIR=flight-wedge SCA_MANIFEST=manifest_wedge.json \
     ../bench/micro_pipeline > wedge.out 2>&1) ||
    { cat "$dir/wedge.out" >&2
      echo "flight smoke: wedged run did not complete" >&2; exit 1; }
  [ -s "$dir/flight-wedge/watchdog.json" ] ||
    { echo "flight smoke: watchdog never dumped on the wedged run" >&2
      exit 1; }
  grep -q '"cause":"watchdog_stall"' "$dir/flight-wedge/watchdog.json" ||
    { echo "flight smoke: watchdog dump has wrong cause" >&2; exit 1; }
  "$cli" postmortem "$dir/flight-wedge/watchdog.json" \
    > "$dir/wedge_report.txt" ||
    { echo "flight smoke: postmortem could not render watchdog dump" >&2
      exit 1; }
  grep -q 'suspected stall site' "$dir/wedge_report.txt" ||
    { echo "flight smoke: watchdog report names no stall site" >&2
      exit 1; }

  # 3) SIGSEGV mid-run (the stall hook holds the faults-on pipeline open
  # long enough to deliver it): the async-signal-safe handler must leave a
  # parseable postmortem with per-thread timelines. The subshell execs the
  # bench so $! is the bench pid, not a wrapper shell.
  cd "$dir"
  ( exec env SCA_PIPELINE_ONCE=1 SCA_THREADS=4 SCA_FAULT_RATE=0.05 \
      SCA_CHECKPOINT_DIR= SCA_CACHE_DIR= \
      SCA_OBS_TEST_STALL_MS=8000 SCA_FLIGHT_DIR=flight-crash \
      ../bench/micro_pipeline > crash.out 2>&1 ) &
  local pid=$!
  sleep 2
  kill -SEGV "$pid" 2> /dev/null || true
  local rc=0
  wait "$pid" || rc=$?
  cd - > /dev/null
  [ "$rc" -eq 139 ] ||
    { echo "flight smoke: SEGV run exited $rc, expected 139" >&2; exit 1; }
  [ -s "$dir/flight-crash/postmortem.json" ] ||
    { echo "flight smoke: no postmortem after SIGSEGV" >&2; exit 1; }
  "$cli" postmortem "$dir/flight-crash/postmortem.json" \
    > "$dir/crash_report.txt" ||
    { echo "flight smoke: postmortem could not parse the SIGSEGV dump" >&2
      exit 1; }
  grep -q 'cause=signal signal=SIGSEGV' "$dir/crash_report.txt" ||
    { echo "flight smoke: report missing SIGSEGV cause" >&2; exit 1; }
  grep -q '^thread ' "$dir/crash_report.txt" ||
    { echo "flight smoke: report has no per-thread timelines" >&2
      exit 1; }
  echo "=== flight-recorder smoke ok ==="
}
flight_smoke

# Benchmark smoke: the harness builds its own Release tree (.bench_build/).
bench_smoke() {
  echo "=== benchmark smoke (perfbench) ==="
  python3 perfbench/smoke.py ||
    { echo "benchmark smoke failed" >&2; exit 1; }
  echo "=== benchmark smoke ok ==="
}
bench_smoke

# TSan needs a few threads to have anything to race; don't let SCA_THREADS=1
# from the caller's environment turn the parallel paths off.
SCA_THREADS="${SCA_TSAN_THREADS:-4}" \
  run_config build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSCA_SANITIZE=thread
# Faults-on pass: dataset builders read SCA_FAULT_RATE from the environment,
# so the whole suite runs through the resilient client stack (injection,
# retries, validation re-parses) under ASan. The determinism tests still
# pass because retried output is byte-identical to a faults-off run.
SCA_FAULT_RATE="${SCA_CI_FAULT_RATE:-0.05}" \
  run_config build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSCA_SANITIZE=address

# ASan+UBSan focused pass over the code that lives on raw offsets: every
# token is a string_view into a shared buffer, every AST node an index into
# a pooled arena, every forest-fit feature read a `f * rows + i` offset
# into one feature-major buffer, and every matrix row a span into a
# mapping. Out-of-bounds views, misaligned access and overflowing offset
# arithmetic are the realistic failure modes, and the fuzz/property/golden
# suites are the inputs most likely to provoke them. The binaries run
# directly (not via ctest) because only these five targets are built in
# this tree.
ubsan_focus() {
  local targets=(lexer_test parser_fuzz_test roundtrip_property_test
                 ml_test matrix_test features_test core_test)
  echo "=== configure build-asan-ubsan (lexer/parser/forest/matrix/feature" \
       "table focus) ==="
  cmake -B build-asan-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSCA_SANITIZE=address+undefined
  echo "=== build build-asan-ubsan ==="
  cmake --build build-asan-ubsan -j "$JOBS" --target "${targets[@]}"
  echo "=== test build-asan-ubsan ==="
  local t
  for t in "${targets[@]}"; do
    "build-asan-ubsan/tests/$t" ||
      { echo "$t failed under ASan+UBSan" >&2; exit 1; }
  done
}
ubsan_focus

echo "=== ci ok ==="
