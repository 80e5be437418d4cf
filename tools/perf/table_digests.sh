#!/usr/bin/env bash
# Runs the 12 paper-table benches (table01..table10, fig02, fig03_05) from a
# fresh work directory at a given SCA_THREADS and prints the SHA-256 of
# every table/figure CSV they write, in `sha256sum` format sorted by name.
# The suite wall time goes to stderr.
#
# Usage: tools/perf/table_digests.sh <build-dir> <threads> <work-dir>
#
#   tools/perf/table_digests.sh build-release 4 /tmp/tables \
#     | diff tools/perf/table_digests.txt -
#
# tools/perf/table_digests.txt holds the committed digests; they are the
# same at every thread count. The benches run under `env -i`, so no SCA_*
# knob from the caller's shell (scale-down sizes, cache, faults) can change
# what they compute.
set -euo pipefail

if [ "$#" -ne 3 ]; then
  echo "usage: $0 <build-dir> <threads> <work-dir>" >&2
  exit 2
fi
bench_dir="$(cd "$1/bench" && pwd)"
threads="$2"
work="$3"

rm -rf "$work" && mkdir -p "$work"
start=$(date +%s.%N)
for bench in table01_datasets table02_transformed table03_binary_datasets \
             table04_num_styles table05_diversity_2017 \
             table06_diversity_2018 table07_diversity_2019 table08_naive \
             table09_feature_based table10_binary fig02_nct_vs_ct \
             fig03_05_examples; do
  (cd "$work" &&
   env -i PATH="$PATH" HOME="${HOME:-/tmp}" SCA_THREADS="$threads" \
     SCA_HISTORY=off "$bench_dir/$bench" > "$bench.out" 2>&1) ||
    { echo "$bench failed; see $work/$bench.out" >&2; exit 1; }
done
end=$(date +%s.%N)
awk -v s="$start" -v e="$end" -v t="$threads" \
  'BEGIN { printf "paper suite: %.1f s at SCA_THREADS=%s\n", e - s, t }' >&2

cd "$work/bench_out"
sha256sum -- *.csv | LC_ALL=C sort -k 2
