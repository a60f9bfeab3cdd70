// runner.hpp — deterministic multi-threaded replication pool.
//
// Experiments estimate expectations (and tails) over many independent
// replications with heavy-tailed per-replication cost (a near-critical
// replication can run orders of magnitude longer than its siblings).
// ReplicationPool farms unit indices over a persistent,
// dynamically-scheduled worker pool: workers pull the next index from a
// shared queue, so a slow replication never strands the rest of a static
// stride. exp::run_sweep derives every replication's RNG seed from
// (point_seed, rep_index) and writes it to its own result slot, so the
// aggregate result is bit-identical regardless of thread count or
// scheduling — a property the exp tests assert.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/worker_pool.hpp"

namespace smn::sim {

/// Number of worker threads to use by default: the SMN_THREADS environment
/// variable when set to an integer in [1, 1024] (lets CI and scripts pin
/// concurrency without touching every invocation), else hardware
/// concurrency clamped to [1, 16].
[[nodiscard]] inline int default_threads() noexcept {
    if (const char* env = std::getenv("SMN_THREADS")) {
        char* end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed >= 1 && parsed <= 1024) {
            return static_cast<int>(parsed);
        }
    }
    const auto hw = std::thread::hardware_concurrency();
    if (hw == 0) return 1;
    return static_cast<int>(hw > 16 ? 16 : hw);
}

/// Effective replication-level worker count for `threads` requested
/// workers and `reps` replications: clamped to [1, reps], so idle workers
/// are never spawned.
[[nodiscard]] inline int replication_workers(int threads, int reps) noexcept {
    int workers = threads < 1 ? 1 : threads;
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

/// Process-wide persistent pool for replication-level parallelism.
///
/// Replication bodies are handed out dynamically (each worker pulls the
/// next index from the shared queue), results are written to
/// index-addressed slots, and the pool's workers persist across calls —
/// run_point after run_point reuses the same threads instead of spawning
/// per call. Exceptions thrown by a body cancel the remaining
/// replications and resurface on the caller's thread (see
/// util::WorkerPool).
///
/// Dispatch is serialized: if the pool is already busy — a concurrent
/// run_units() from another thread, or a replication body recursively
/// running replications — the new call falls back to inline serial
/// execution, which is always correct because results never depend on
/// scheduling.
class ReplicationPool {
public:
    /// Pool telemetry snapshot. The unit counters cost one atomic per
    /// run_units call path; worker_busy_seconds comes from the underlying
    /// WorkerPool.
    struct PoolStats {
        std::int64_t runs{0};          ///< run_units dispatches
        std::int64_t units_pooled{0};  ///< units executed via the worker pool
        std::int64_t units_inline{0};  ///< units executed inline (serial/fallback)
        double worker_busy_seconds{0.0};
        int workers{0};                ///< pool threads currently alive
    };

    /// The singleton every runner shares.
    [[nodiscard]] static ReplicationPool& instance() {
        static ReplicationPool pool;
        return pool;
    }

    /// Current telemetry totals. Safe to call between run_units calls
    /// (runner code snapshots around a sweep pass).
    [[nodiscard]] PoolStats stats() {
        PoolStats out;
        out.runs = runs_.load(std::memory_order_relaxed);
        out.units_pooled = units_pooled_.load(std::memory_order_relaxed);
        out.units_inline = units_inline_.load(std::memory_order_relaxed);
        out.worker_busy_seconds = pool_.busy_seconds_total();
        out.workers = pool_.workers();
        return out;
    }

    /// Runs task(unit) for every unit in [0, units) over at most
    /// `threads` workers (clamped via replication_workers). Blocks until
    /// all units are done; the calling thread participates. The first
    /// exception cancels undistributed units and is rethrown here.
    void run_units(int units, int threads, const std::function<void(int)>& task) {
        runs_.fetch_add(1, std::memory_order_relaxed);
        const int workers = replication_workers(threads, units);
        if (workers <= 1 || busy_here()) {
            units_inline_.fetch_add(units, std::memory_order_relaxed);
            for (int unit = 0; unit < units; ++unit) task(unit);
            return;
        }
        std::unique_lock<std::mutex> dispatch{dispatch_mutex_, std::try_to_lock};
        if (!dispatch.owns_lock()) {
            // Another thread is mid-run: don't queue behind it, just run
            // inline — determinism never depended on the pool.
            units_inline_.fetch_add(units, std::memory_order_relaxed);
            for (int unit = 0; unit < units; ++unit) task(unit);
            return;
        }
        units_pooled_.fetch_add(units, std::memory_order_relaxed);
        busy_here() = true;
        pool_.ensure_workers(workers);
        const std::function<void(int, int)> shard = [&task](int unit, int) { task(unit); };
        try {
            pool_.run(units, shard, workers);
        } catch (...) {
            busy_here() = false;
            throw;
        }
        busy_here() = false;
    }

    /// Fault-isolating variant of run_units: a throwing unit body is
    /// retried up to `retries` more times, and if every attempt throws
    /// the unit is recorded as a UnitFailure instead of cancelling the
    /// dispatch — every healthy unit still completes. Retrying is sound
    /// only because unit bodies are pure functions of their index (the
    /// determinism contract): a retry re-derives the same seed and
    /// recomputes the identical result. Returns failures sorted by unit
    /// index (deterministic regardless of thread scheduling); empty means
    /// every unit eventually succeeded.
    [[nodiscard]] std::vector<UnitFailure> run_units_tolerant(
        int units, int threads, int retries, const std::function<void(int)>& task) {
        std::vector<UnitFailure> failures;
        std::mutex failures_mutex;
        const int attempts_allowed = 1 + std::max(retries, 0);
        run_units(units, threads, [&](int unit) {
            for (int attempt = 1;; ++attempt) {
                try {
                    task(unit);
                    return;
                } catch (...) {
                    if (attempt < attempts_allowed) continue;
                    UnitFailure failure;
                    failure.unit = unit;
                    failure.attempts = attempt;
                    failure.error = std::current_exception();
                    try {
                        throw;
                    } catch (const std::exception& e) {
                        failure.message = e.what();
                    } catch (...) {
                        failure.message = "unknown exception";
                    }
                    const std::lock_guard<std::mutex> lock{failures_mutex};
                    failures.push_back(std::move(failure));
                    return;
                }
            }
        });
        std::sort(failures.begin(), failures.end(),
                  [](const UnitFailure& a, const UnitFailure& b) { return a.unit < b.unit; });
        return failures;
    }

private:
    ReplicationPool() : pool_{1} {}

    /// Whether THIS thread is inside a run_units dispatch. Guards the
    /// recursive case (a body running replications itself): try_lock on a
    /// mutex the same thread holds is undefined, so recursion is detected
    /// before touching the lock and runs inline instead.
    [[nodiscard]] static bool& busy_here() noexcept {
        thread_local bool busy = false;
        return busy;
    }

    util::WorkerPool pool_;
    std::mutex dispatch_mutex_;
    // Telemetry (see PoolStats). Atomics: the inline-fallback paths run
    // concurrently with a pooled dispatch by design.
    std::atomic<std::int64_t> runs_{0};
    std::atomic<std::int64_t> units_pooled_{0};
    std::atomic<std::int64_t> units_inline_{0};
};

}  // namespace smn::sim
