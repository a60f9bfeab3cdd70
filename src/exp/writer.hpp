// writer.hpp — structured result emission for the experiment lab.
//
// One record per (scenario, parameter point): the aggregated replication
// statistics of every metric the scenario reported. Two formats:
//
//   * JsonlWriter — one JSON object per line (the `results/*.jsonl`
//     pipeline format; schema documented in docs/experiments.md and
//     versioned via the "schema" field);
//   * CsvWriter — long-format CSV (one row per metric per point), built on
//     stats::Table so quoting matches every other CSV the repo emits.
//
// Numbers are rendered with std::to_chars shortest round-trip, so records
// are byte-identical across platforms and runs — the property the
// determinism acceptance test (`exp_test`) and `scripts/lab_quick.sh`
// both check. Timing fields are opt-in: wall-clock depends on the host, so
// including it would break byte-level comparison.
//
// Crash atomicity: every writer flushes at record boundaries (one line =
// one flush), so a crash mid-run can lose only whole trailing records —
// never a torn line. Combined with the sweep journal (io/journal.hpp)
// this makes interrupted runs resumable with byte-identical merged
// output; see docs/robustness.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "exp/runner.hpp"

namespace smn::exp {

/// JSON string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(const std::string& text);

/// Emits one JSON object per PointResult on a single line.
class JsonlWriter {
public:
    /// `timings` adds the host-dependent "timing" object to each record;
    /// `counters` adds the build-dependent "counters" object. Both are
    /// opt-in so the default output stays byte-identical across hosts.
    explicit JsonlWriter(std::ostream& os, bool timings = false, bool counters = false)
        : os_{&os}, timings_{timings}, counters_{counters} {}

    void write(const PointResult& result);

private:
    std::ostream* os_;
    bool timings_;
    bool counters_;
};

/// Long-format CSV: header once, then one row per metric per point.
class CsvWriter {
public:
    explicit CsvWriter(std::ostream& os, bool timings = false, bool counters = false)
        : os_{&os}, timings_{timings}, counters_{counters} {}

    void write(const PointResult& result);

private:
    std::ostream* os_;
    bool timings_;
    bool counters_;
    bool wrote_header_{false};
};

/// Run-level context for the provenance header record.
struct RunProvenance {
    int threads{0};        ///< resolved replication thread count
    std::uint64_t seed{0};
    int reps{0};
};

/// Writes the `{"record":"provenance",...}` header line: schema version,
/// git sha / build type / SIMD backend baked in at configure time, whether
/// telemetry was compiled in, and the run's thread/seed/reps context.
/// Host-dependent — the lab emits it only under --timings/--counters.
void write_provenance(std::ostream& os, const RunProvenance& run);

/// Writes the `{"schema":1,"record":"failed_units",...}` summary line
/// listing every replication that failed all its attempts across the
/// sweep's points (params, rep, attempts, final error). No-op when every
/// unit succeeded, so healthy output is unchanged. `results` must all
/// belong to one scenario (one summary record per scenario).
void write_failed_units(std::ostream& os, const std::vector<PointResult>& results);

}  // namespace smn::exp
