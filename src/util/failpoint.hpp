// failpoint.hpp — deterministic fault injection for crash/retry testing.
//
// A fail point is a named site in the code that can be made to fail on
// demand: the crash-safety layer (unit retry in exp::run_points, the
// sweep journal) is only trustworthy if its failure paths are exercised,
// and real crashes are neither portable nor reproducible. Sites are configured through the SMN_FAILPOINTS
// environment variable (or FailPoints::configure in tests):
//
//   SMN_FAILPOINTS="unit_body=0.05@7,journal_append=1@0:abort"
//
// Each entry is name=probability@seed[:action]. The decision for the
// i-th evaluation of a site is a pure function of (seed, i) — NOT of
// wall clock, thread identity, or scheduling — so a failing run replays
// identically, which is what lets the crash-resume tests assert
// byte-identical recovery. Actions: "throw" (default, raises
// util::InjectedFault) and "abort" (std::abort, for kill-style crash
// legs). Sites that want softer semantics (truncate a write, drop a
// record) call the query form failpoint_fires() and act themselves.
//
// An unconfigured site costs one branch on a pointer load.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rng/splitmix64.hpp"

namespace smn::util {

/// The exception an armed "throw" site raises. Deliberately a
/// std::runtime_error subtype: injected faults must travel the same
/// error paths real ones do.
class InjectedFault : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Process-wide fail-point table. Configured once from SMN_FAILPOINTS at
/// first use; tests may reconfigure between runs via configure() (not
/// concurrently with evaluations — the table swap is atomic, but a test
/// that reconfigures mid-run would race its own expectations).
class FailPoints {
public:
    struct Site {
        double probability{0.0};
        std::uint64_t seed{0};
        bool abort_process{false};
        /// Evaluation index, shared by every thread that hits the site.
        std::atomic<std::uint64_t> evaluations{0};
    };

    [[nodiscard]] static FailPoints& instance() {
        static FailPoints fp;
        return fp;
    }

    /// Replaces the configuration with a parsed spec ("" disarms every
    /// site). Throws std::invalid_argument on a malformed spec.
    void configure(const std::string& spec) {
        auto table = parse(spec);
        const std::lock_guard<std::mutex> lock{configure_mutex_};
        table_.store(table.get(), std::memory_order_release);
        if (table != nullptr) tables_.push_back(std::move(table));
    }

    /// True iff `site` is armed and fires on this evaluation. Advances
    /// the site's evaluation counter; the decision is a pure function of
    /// (site seed, evaluation index).
    [[nodiscard]] bool fires(std::string_view site) {
        auto* table = table_.load(std::memory_order_acquire);
        if (table == nullptr) return false;
        const auto it = table->find(site);
        if (it == table->end()) return false;
        auto& s = it->second;
        const std::uint64_t i = s.evaluations.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t u = rng::mix64(rng::mix64(s.seed) ^ rng::mix64(i + 1));
        return static_cast<double>(u >> 11) * 0x1.0p-53 < s.probability;
    }

    /// Acting form: throws InjectedFault (or aborts, per the spec) when
    /// the site fires.
    void evaluate(std::string_view site) {
        auto* table = table_.load(std::memory_order_acquire);
        if (table == nullptr) return;
        const auto it = table->find(site);
        if (it == table->end()) return;
        auto& s = it->second;
        const std::uint64_t i = s.evaluations.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t u = rng::mix64(rng::mix64(s.seed) ^ rng::mix64(i + 1));
        if (static_cast<double>(u >> 11) * 0x1.0p-53 >= s.probability) return;
        if (s.abort_process) std::abort();
        throw InjectedFault{"injected fault at '" + std::string{site} + "' (evaluation " +
                            std::to_string(i) + ")"};
    }

private:
    using Table = std::map<std::string, Site, std::less<>>;

    FailPoints() {
        const char* env = std::getenv("SMN_FAILPOINTS");
        if (env != nullptr && *env != '\0') configure(env);
    }

    /// name=probability@seed[:action], comma-separated.
    static std::unique_ptr<Table> parse(const std::string& spec) {
        if (spec.empty()) return nullptr;
        auto table = std::make_unique<Table>();
        std::size_t start = 0;
        while (start <= spec.size()) {
            const auto comma = spec.find(',', start);
            const auto entry =
                spec.substr(start, comma == std::string::npos ? comma : comma - start);
            if (!entry.empty()) {
                const auto eq = entry.find('=');
                const auto at = entry.find('@', eq == std::string::npos ? 0 : eq);
                if (eq == std::string::npos || eq == 0 || at == std::string::npos) {
                    throw std::invalid_argument(
                        "SMN_FAILPOINTS: want name=prob@seed[:action], got '" + entry + "'");
                }
                Site site;
                std::string action = "throw";
                auto tail = entry.substr(at + 1);
                if (const auto colon = tail.find(':'); colon != std::string::npos) {
                    action = tail.substr(colon + 1);
                    tail = tail.substr(0, colon);
                }
                try {
                    std::size_t used = 0;
                    site.probability = std::stod(entry.substr(eq + 1, at - eq - 1), &used);
                    if (used != at - eq - 1) throw std::invalid_argument(entry);
                    used = 0;
                    site.seed = std::stoull(tail, &used);
                    if (used != tail.size()) throw std::invalid_argument(entry);
                } catch (const std::exception&) {
                    throw std::invalid_argument(
                        "SMN_FAILPOINTS: bad probability or seed in '" + entry + "'");
                }
                if (action == "abort") {
                    site.abort_process = true;
                } else if (action != "throw") {
                    throw std::invalid_argument("SMN_FAILPOINTS: unknown action '" + action +
                                                "' in '" + entry + "'");
                }
                auto [it, inserted] = table->try_emplace(std::string{entry.substr(0, eq)});
                if (!inserted) {
                    throw std::invalid_argument("SMN_FAILPOINTS: duplicate site '" +
                                                std::string{entry.substr(0, eq)} + "'");
                }
                it->second.probability = site.probability;
                it->second.seed = site.seed;
                it->second.abort_process = site.abort_process;
            }
            if (comma == std::string::npos) break;
            start = comma + 1;
        }
        return table->empty() ? nullptr : std::move(table);
    }

    /// Superseded tables stay alive in tables_ rather than being freed on
    /// reconfigure: evaluations may still be reading an old table from
    /// another thread, and test-only reconfiguration keeps the retained
    /// set tiny. Everything is owned by the singleton so LeakSanitizer
    /// sees a clean exit.
    std::atomic<Table*> table_{nullptr};
    std::mutex configure_mutex_;
    std::vector<std::unique_ptr<Table>> tables_;
};

/// Acting fail point: no-op unless `site` is armed and fires, in which
/// case it throws InjectedFault or aborts per the site's action.
inline void failpoint(std::string_view site) { FailPoints::instance().evaluate(site); }

/// Query fail point for sites with custom failure semantics (truncation,
/// dropped records): true when armed and firing, never throws.
[[nodiscard]] inline bool failpoint_fires(std::string_view site) {
    return FailPoints::instance().fires(site);
}

}  // namespace smn::util
