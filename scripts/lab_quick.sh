#!/usr/bin/env bash
# Quick experiment-lab pass: run every registered scenario's quick sweep,
# write the JSONL results (the artifact CI uploads to seed the bench
# trajectory), and assert the determinism contract — the same seed must
# produce byte-identical results at different --threads values.
# Usage: scripts/lab_quick.sh [build-dir] [out-dir]
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-results}"

"${build_dir}/smn_lab" --list >/dev/null

# The shipped artifact: quick sweep of every scenario, with timings.
"${build_dir}/smn_lab" --quick --reps=3 --out="${out_dir}/quick.jsonl" --timings

# Determinism check: identical bytes at 1 vs 7 worker threads (timings off,
# since wall-clock is host-dependent by design).
"${build_dir}/smn_lab" --quick --reps=3 --threads=1 --out="${out_dir}/det-t1.jsonl"
"${build_dir}/smn_lab" --quick --reps=3 --threads=7 --out="${out_dir}/det-t7.jsonl"
if ! cmp "${out_dir}/det-t1.jsonl" "${out_dir}/det-t7.jsonl"; then
    echo "ERROR: smn_lab results differ between --threads=1 and --threads=7" >&2
    exit 1
fi
rm -f "${out_dir}/det-t1.jsonl" "${out_dir}/det-t7.jsonl"

# --csv selects CSV output (its first line is the header), and it
# conflicts with an explicit --format=jsonl.
"${build_dir}/smn_lab" --scenario=gossip --quick --reps=1 --csv --no-progress \
    >"${out_dir}/csv-flag.out" 2>/dev/null
csv_head="$(head -n 1 "${out_dir}/csv-flag.out")"
rm -f "${out_dir}/csv-flag.out"
if [[ "${csv_head}" != scenario,* ]]; then
    echo "ERROR: smn_lab --csv did not write CSV (first line: ${csv_head})" >&2
    exit 1
fi
if "${build_dir}/smn_lab" --scenario=gossip --quick --reps=1 --csv --format=jsonl \
    --no-progress >/dev/null 2>&1; then
    echo "ERROR: smn_lab accepted --csv together with --format=jsonl" >&2
    exit 1
fi

echo "lab quick pass OK: $(wc -l < "${out_dir}/quick.jsonl") records in ${out_dir}/quick.jsonl"
