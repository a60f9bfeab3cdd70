#!/usr/bin/env bash
# crash_resume.sh — end-to-end crash-safety check for journaled sweeps
# (docs/robustness.md). Legs 1-3 each assert that the merged output is
# byte-identical to an uninterrupted reference run; leg 4 bounds what the
# journal costs; leg 5 checks that a failed fsync keeps the records:
#
#   1. SIGKILL: a journaled sweep is killed with -9 mid-flight, then
#      finished with --resume. The journal's torn final line (if the kill
#      landed inside an append) must be tolerated.
#   2. Transient faults: SMN_FAILPOINTS injects a 50% per-unit failure
#      rate; --retries drives every unit to completion anyway.
#   3. Failure reporting: a unit that fails on every attempt must leave a
#      failed_units record and exit 3 while the healthy units complete.
#   4. Journaling overhead: the time the journal spends in its own appends
#      and fsync (the timing record's journal_s) must stay within 2% of
#      the journaled sweep's wall clock (sweep_wall_s).
#   5. Failed fsync: a journal on /dev/null cannot be fsynced, so the run
#      must exit nonzero, yet still write the point's completed record.
#
# Usage: scripts/crash_resume.sh [build-dir] [work-dir]
set -euo pipefail

build_dir="${1:-build}"
work_dir="${2:-$(mktemp -d)}"
mkdir -p "${work_dir}"

lab="${build_dir}/smn_lab"
if [ ! -x "${lab}" ]; then
    echo "crash_resume: ${lab} not found (build first)" >&2
    exit 1
fi

# Heavy enough that a kill 0.5s in lands mid-sweep on a fast machine,
# small enough to finish in a few seconds: 16 reps of a 400x400 grid with
# 64 agents. Timings stay off — wall-clock fields would break byte
# comparison by design.
common=(--scenario=grid_broadcast --sweep="side=400;k=64" --reps=16
        --seed=7 --no-progress)

echo "[crash_resume] reference run"
"${lab}" "${common[@]}" --out="${work_dir}/reference.jsonl"
total_units=16

# ---------------------------------------------------------------- leg 1
echo "[crash_resume] leg 1: SIGKILL mid-sweep, then --resume"
partial=0
for attempt in 1 2 3 4 5; do
    rm -f "${work_dir}/kill.jsonl" "${work_dir}/kill.jsonl.journal"
    "${lab}" "${common[@]}" --journal --out="${work_dir}/kill.jsonl" &
    pid=$!
    sleep 0.5
    if kill -9 "${pid}" 2>/dev/null; then
        set +e; wait "${pid}"; status=$?; set -e
        [ "${status}" -eq 137 ] || { echo "expected exit 137 after SIGKILL, got ${status}" >&2; exit 1; }
    else
        set +e; wait "${pid}"; set -e  # finished before the kill landed
    fi
    done_units="$(grep -c '^unit ' "${work_dir}/kill.jsonl.journal" || true)"
    if [ "${done_units}" -gt 0 ] && [ "${done_units}" -lt "${total_units}" ]; then
        partial=1
        echo "  killed with ${done_units}/${total_units} units journaled (attempt ${attempt})"
        break
    fi
    echo "  attempt ${attempt}: kill landed outside the sweep (${done_units}/${total_units} units), retrying"
done
if [ "${partial}" -ne 1 ]; then
    echo "  WARNING: never caught the sweep mid-flight; resume still checked against a complete journal"
fi
"${lab}" "${common[@]}" --resume="${work_dir}/kill.jsonl.journal" \
    --out="${work_dir}/resumed.jsonl"
cmp "${work_dir}/reference.jsonl" "${work_dir}/resumed.jsonl" || {
    echo "crash_resume: resumed output differs from the uninterrupted run" >&2
    exit 1
}
echo "  resume output byte-identical"

# ---------------------------------------------------------------- leg 2
echo "[crash_resume] leg 2: injected transient faults + --retries"
SMN_FAILPOINTS="unit_body=0.5@42" \
    "${lab}" "${common[@]}" --retries=5 --out="${work_dir}/flaky.jsonl"
cmp "${work_dir}/reference.jsonl" "${work_dir}/flaky.jsonl" || {
    echo "crash_resume: retried output differs from the fault-free run" >&2
    exit 1
}
echo "  retried output byte-identical"

# ---------------------------------------------------------------- leg 3
echo "[crash_resume] leg 3: permanent failures are reported, not fatal"
set +e
SMN_FAILPOINTS="unit_body=0.3@9" \
    "${lab}" "${common[@]}" --out="${work_dir}/failed.jsonl" 2> "${work_dir}/failed.err"
status=$?
set -e
[ "${status}" -eq 3 ] || {
    echo "crash_resume: expected exit 3 with permanently failing units, got ${status}" >&2
    cat "${work_dir}/failed.err" >&2
    exit 1
}
grep -q '"record":"failed_units"' "${work_dir}/failed.jsonl" || {
    echo "crash_resume: no failed_units record in the output" >&2
    exit 1
}
# The healthy units still aggregated into a point record.
grep -q '"scenario":"grid_broadcast"' "${work_dir}/failed.jsonl" || {
    echo "crash_resume: point record missing from the failing run" >&2
    exit 1
}
echo "  failures reported (exit 3), healthy units completed"

# ---------------------------------------------------------------- leg 4
# The journal appends one line per completed replication and fsyncs once at
# the end of the pass; it times both itself and reports them as journal_s
# in the --timings record, next to sweep_wall_s. One sweep measures the
# cost directly: comparing sweeps with and without --journal cannot resolve
# 2% when whole sweeps jitter by more than that run to run. r = 4 is the
# point's r_c, where a replication reaches T_B in about 100 steps.
echo "[crash_resume] leg 4: journaling overhead (journal's own I/O time, 2% budget)"
"${lab}" --scenario=grid_broadcast --sweep="side=128;k=1024;radius=4" \
    --reps=96 --threads=1 --timings --no-progress --journal --out="${work_dir}/overhead.jsonl"
python3 - "${work_dir}/overhead.jsonl" <<'PY'
import json, sys
timing = next(json.loads(line)["timing"] for line in open(sys.argv[1]) if '"timing"' in line)
journal, wall = timing["journal_s"], timing["sweep_wall_s"]
share = journal / wall * 100
print(f"  journal appends + fsync: {journal * 1e3:.3f} ms of a {wall:.3f} s sweep, "
      f"{share:.3f}% (budget 2%)")
sys.exit(f"crash_resume: journaling costs {share:.2f}% of sweep wall" if share > 2.0 else 0)
PY

# ---------------------------------------------------------------- leg 5
echo "[crash_resume] leg 5: a failed journal fsync still writes the records"
set +e
"${lab}" --scenario=gossip --sweep="side=12;k=4" --reps=2 --no-progress \
    --journal=/dev/null --out="${work_dir}/unsynced.jsonl" 2> "${work_dir}/unsynced.err"
status=$?
set -e
[ "${status}" -ne 0 ] || {
    echo "crash_resume: a failed journal fsync exited 0" >&2
    exit 1
}
grep -q 'fsync failed' "${work_dir}/unsynced.err" || {
    echo "crash_resume: the fsync error was not reported" >&2
    cat "${work_dir}/unsynced.err" >&2
    exit 1
}
grep -q '"scenario":"gossip"' "${work_dir}/unsynced.jsonl" || {
    echo "crash_resume: the point record is missing after the failed fsync" >&2
    exit 1
}
echo "  exit ${status} with the fsync error, point record written"

echo "crash_resume: all legs OK"
