// args.hpp — minimal command-line options for smn_lab, the perf tools and
// the examples.
//
// Every such binary accepts `--key=value` overrides plus built-in flags:
//   --quick      shrink problem sizes / replication counts (CI smoke mode)
//   --csv        emit CSV instead of the aligned table
//   --threads=N  worker threads for replication runners, 1..1024 (default:
//                sim::default_threads(), which honors $SMN_THREADS)
//   --help       print every declared key with its fallback value and exit
// Unknown keys throw (all of them listed in one message), and duplicate
// options throw, so typos and script-assembled double flags fail fast
// instead of silently running the wrong experiment.
//
// The get_* calls double as declarations: each records its key, fallback,
// and type, which is what --help prints. Harness mains therefore need no
// separate option table — reject_unknown() (called after all get_*s)
// handles both the typo check and the --help exit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace smn::sim {

/// Parsed `--key=value` arguments with typed access.
class Args {
public:
    /// Parses argv; throws std::invalid_argument on malformed input.
    Args(int argc, const char* const* argv);

    /// Declares a key as known and returns its value (or `fallback`).
    [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback);
    [[nodiscard]] double get_double(const std::string& key, double fallback);
    [[nodiscard]] std::string get_string(const std::string& key, const std::string& fallback);
    [[nodiscard]] bool get_flag(const std::string& key);

    /// True if `--quick` was passed (recognized automatically).
    [[nodiscard]] bool quick() const noexcept { return quick_; }
    /// True if `--csv` was passed.
    [[nodiscard]] bool csv() const noexcept { return csv_; }
    /// True if `--help` was passed.
    [[nodiscard]] bool help() const noexcept { return help_; }

    /// Worker-thread count: `--threads=N` when given (must lie in
    /// [1, sim::kMaxThreads]), else sim::default_threads() (which honors
    /// the SMN_THREADS environment variable). The key is built in — never
    /// rejected as unknown.
    [[nodiscard]] int threads() const;

    /// Call after all get_* calls. If `--help` was passed, prints the
    /// declared options to stdout and exits with status 0; otherwise
    /// throws if the command line contained keys that were never declared.
    void reject_unknown() const;

    /// The --help listing: built-in flags plus every declared key with its
    /// fallback (in declaration order).
    void print_help(std::ostream& os) const;

private:
    void declare(const std::string& key, const std::string& fallback) const;

    std::map<std::string, std::string> values_;
    std::set<std::string> flags_;
    mutable std::set<std::string> known_;
    /// Declaration-ordered (key, fallback) pairs for --help.
    mutable std::vector<std::pair<std::string, std::string>> declared_;
    bool quick_{false};
    bool csv_{false};
    bool help_{false};
};

}  // namespace smn::sim
