// journal.hpp — append-only sweep journal for crash-safe resume.
//
// exp::run_points appends one line per completed (scenario, unit) to a
// sidecar journal next to the JSONL output. If the process dies — crash,
// SIGKILL, power loss — `smn_lab --resume=JOURNAL` replays the journal,
// skips every recorded unit, and re-runs only the missing ones. Because
// every unit is a pure function of (base_seed, point, rep_index), and
// metric doubles round-trip exactly through the shortest-round-trip
// encoding the journal shares with the JSONL writer, the merged output
// is byte-identical to an uninterrupted run.
//
// Format (text, one record per '\n'-terminated line):
//
//   smn-sweep-journal v1 fingerprint=<16 hex digits>
//   unit <scenario> <index> wall=<double> <name>=<double> ...
//
// The fingerprint hashes the sweep definition (scenario names + resolved
// sweep text), base seed, replication count, and the writing build's git
// SHA, so a journal can never be resumed against a different experiment.
// Appends are a single POSIX write() to an O_APPEND descriptor, so lines
// from concurrent worker threads never interleave; a torn final line
// (the crash case) is detected and discarded on load, while corruption
// anywhere earlier is reported as JournalError. Fail-point site
// "journal_append" (util/failpoint.hpp) makes appends fail on demand for
// crash-drill tests.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smn::io {

/// Raised on journal open/parse/append failures: missing file on resume,
/// fingerprint mismatch, malformed non-final line, or I/O errors.
class JournalError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Identifies a sweep: same fingerprint ⇔ same units with same meanings.
/// Hashes (FNV-1a) the base seed, reps, every (scenario name, resolved
/// sweep text) pair in order, and the build git SHA.
[[nodiscard]] std::uint64_t sweep_fingerprint(
    std::uint64_t seed, int reps,
    const std::vector<std::pair<std::string, std::string>>& scenarios,
    std::string_view build_sha);

/// One completed unit as recorded in (or replayed from) the journal.
struct JournalUnit {
    std::map<std::string, double> metrics;  ///< per-rep metric samples
    double wall_seconds{0.0};               ///< unit wall-clock (informational)
};

/// Append-only journal of completed sweep units, keyed by fingerprint.
/// Thread-safe: record() may be called concurrently from worker threads.
class SweepJournal {
public:
    /// Opens a journal. `resume == false` creates/truncates the file and
    /// writes the header; `resume == true` requires an existing journal,
    /// verifies its fingerprint against `fingerprint`, and loads the
    /// completed units (tolerating a torn final line). Throws
    /// JournalError on mismatch or malformed content.
    SweepJournal(std::string path, std::uint64_t fingerprint, bool resume);
    ~SweepJournal();

    SweepJournal(const SweepJournal&) = delete;
    SweepJournal& operator=(const SweepJournal&) = delete;

    /// Completed unit lookup (units replayed at open + recorded since).
    [[nodiscard]] const JournalUnit* find(std::string_view scenario, int unit) const;

    /// Number of units replayed from the file at open (resume only).
    [[nodiscard]] std::size_t replayed() const noexcept { return replayed_; }

    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

    /// Appends one completed unit and remembers it for find(). The line
    /// reaches the kernel before return (single write() syscall); call
    /// sync() to force it to the platter.
    void record(std::string_view scenario, int unit, const JournalUnit& data);

    /// fsync()s the journal file descriptor; throws JournalError when the
    /// fsync fails.
    void sync();

    /// Wall-clock seconds spent so far inside record()'s write and
    /// sync()'s fsync: what journaling adds to a sweep, measured where it
    /// happens rather than as the difference of two noisy sweep timings.
    [[nodiscard]] double io_seconds() const;

private:
    std::string path_;
    std::uint64_t fingerprint_{0};
    int fd_{-1};
    std::size_t replayed_{0};
    double io_seconds_{0.0};  ///< guarded by mutex_
    mutable std::mutex mutex_;
    std::map<std::pair<std::string, int>, JournalUnit, std::less<>> units_;
};

}  // namespace smn::io
