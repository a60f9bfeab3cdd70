// runner.hpp — deterministic multi-threaded replication passes.
//
// Experiments estimate expectations (and tails) over many independent
// replications with heavy-tailed per-replication cost (a near-critical
// replication can run orders of magnitude longer than its siblings).
// run_units farms the unit indices of one pass over workers that pull the
// next index from a shared counter (dynamic scheduling), so a slow
// replication never strands the rest of a static stride. exp::run_sweep
// derives every replication's RNG seed from (point_seed, rep_index) and
// writes it to its own result slot, so the aggregate result is
// bit-identical regardless of thread count or scheduling — a property the
// exp tests assert.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace smn::sim {

/// Upper bound on worker threads, for --threads and SMN_THREADS alike.
inline constexpr int kMaxThreads = 1024;

/// Number of worker threads to use by default: the SMN_THREADS environment
/// variable when set to an integer in [1, kMaxThreads] (lets CI and scripts
/// pin concurrency without touching every invocation), else hardware
/// concurrency clamped to [1, 16].
[[nodiscard]] inline int default_threads() noexcept {
    if (const char* env = std::getenv("SMN_THREADS")) {
        char* end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed >= 1 && parsed <= kMaxThreads) {
            return static_cast<int>(parsed);
        }
    }
    const auto hw = std::thread::hardware_concurrency();
    if (hw == 0) return 1;
    return static_cast<int>(hw > 16 ? 16 : hw);
}

/// Effective replication-level worker count for `threads` requested
/// workers and `reps` replications: clamped to [1, min(reps, kMaxThreads)],
/// so idle workers are never spawned and an unvalidated library request
/// cannot start more threads than --threads accepts.
[[nodiscard]] inline int replication_workers(int threads, int reps) noexcept {
    int workers = std::clamp(threads, 1, kMaxThreads);
    if (reps >= 0) workers = std::min(workers, reps);
    return std::max(workers, 1);
}

/// Record of one unit whose body kept throwing after every retry. The
/// original exception is carried as an exception_ptr so callers that want
/// fail-fast semantics can rethrow it with its concrete type intact.
struct UnitFailure {
    int unit{-1};          ///< unit index the failing body was given
    int attempts{0};       ///< total attempts made (1 + retries)
    std::string message;   ///< what() of the final exception
    std::exception_ptr error;  ///< the final exception itself
};

/// What one run_units pass did.
struct PassResult {
    std::vector<UnitFailure> failures;  ///< sorted by unit; empty when every unit succeeded
    int workers{1};                     ///< workers that ran units, the caller included
    double busy_seconds{0.0};           ///< time the workers spent inside unit bodies
};

namespace detail {
/// Whether this thread is running a unit body (see run_units).
inline thread_local bool in_unit = false;
}  // namespace detail

/// Runs task(unit) for every unit in [0, units) over at most `threads`
/// workers (clamped via replication_workers) and returns once all units
/// are done. The caller is worker 0; the pass starts the other workers
/// and joins them before it returns. A call from inside a unit body runs
/// its units inline on that thread, which is always correct because
/// results never depend on scheduling.
///
/// A throwing body is retried up to `retries` more times; if every
/// attempt throws, the unit is recorded as a UnitFailure and every other
/// unit still runs. Retrying is sound only because unit bodies are pure
/// functions of their index (the determinism contract): a retry re-derives
/// the same seed and recomputes the identical result.
[[nodiscard]] inline PassResult run_units(int units, int threads, int retries,
                                          const std::function<void(int)>& task) {
    PassResult pass;
    std::mutex failures_mutex;
    const int attempts_allowed = 1 + std::max(retries, 0);
    // The one place a unit's exception is caught, so no exception ever
    // leaves a worker thread.
    const auto record = [&](int unit, int attempts, std::string message) {
        const std::lock_guard<std::mutex> lock{failures_mutex};
        pass.failures.push_back({unit, attempts, std::move(message), std::current_exception()});
    };
    const auto guarded = [&](int unit) {
        for (int attempt = 1; attempt <= attempts_allowed; ++attempt) {
            try {
                task(unit);
                return;
            } catch (const std::exception& e) {
                if (attempt == attempts_allowed) record(unit, attempt, e.what());
            } catch (...) {
                if (attempt == attempts_allowed) record(unit, attempt, "unknown exception");
            }
        }
    };

    pass.workers = detail::in_unit ? 1 : replication_workers(threads, units);
    std::atomic<int> next_unit{0};
    // One slot per worker, summed in worker order after the join.
    std::vector<double> busy(static_cast<std::size_t>(pass.workers), 0.0);
    const auto work = [&](int worker) {
        const bool outer = std::exchange(detail::in_unit, true);
        for (int unit = next_unit.fetch_add(1, std::memory_order_relaxed); unit < units;
             unit = next_unit.fetch_add(1, std::memory_order_relaxed)) {
            const auto begin = std::chrono::steady_clock::now();
            guarded(unit);
            const std::chrono::duration<double> spent = std::chrono::steady_clock::now() - begin;
            busy[static_cast<std::size_t>(worker)] += spent.count();
        }
        detail::in_unit = outer;
    };
    {
        std::vector<std::jthread> helpers;
        helpers.reserve(busy.size() - 1);
        for (int worker = 1; worker < pass.workers; ++worker) helpers.emplace_back(work, worker);
        work(0);
    }  // joins the helpers
    for (const double seconds : busy) pass.busy_seconds += seconds;
    std::sort(pass.failures.begin(), pass.failures.end(),
              [](const UnitFailure& a, const UnitFailure& b) { return a.unit < b.unit; });
    return pass;
}

}  // namespace smn::sim
