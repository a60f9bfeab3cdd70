#!/usr/bin/env bash
# Smoke-run the perf tool with tiny parameters. Catches bench bit-rot
# (stale APIs, broken CLI parsing) without burning CI minutes on full
# measurements. Usage: scripts/bench_smoke.sh [build-dir]
set -euo pipefail

build_dir="${1:-build}"

if [ -x "${build_dir}/bench_micro_kernels" ]; then
    "${build_dir}/bench_micro_kernels" --benchmark_min_time=0.01
else
    echo "bench_micro_kernels not built (Google Benchmark missing) — skipped"
fi
