// runner.hpp — deterministic multi-threaded replication pool.
//
// Experiments estimate expectations (and tails) over many independent
// replications with heavy-tailed per-replication cost (a near-critical
// replication can run orders of magnitude longer than its siblings).
// ReplicationPool farms unit indices over persistent worker threads that
// pull the next index from a shared queue (dynamic scheduling), so a slow
// replication never strands the rest of a static stride. exp::run_sweep
// derives every replication's RNG seed from (point_seed, rep_index) and
// writes it to its own result slot, so the aggregate result is
// bit-identical regardless of thread count or scheduling — a property the
// exp tests assert.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
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
/// Unit bodies are handed out dynamically (each worker pulls the next
/// index from the shared queue), results are written to index-addressed
/// slots, and the worker threads persist across calls — run_point after
/// run_point reuses the same threads instead of spawning per call. The
/// pool grows its threads lazily to the largest request it has served.
///
/// Dispatch is serialized: if the pool is already busy — a concurrent
/// run_units() from another thread, or a unit body recursively running
/// units — the new call falls back to inline serial execution, which is
/// always correct because results never depend on scheduling.
class ReplicationPool {
public:
    /// Pool telemetry snapshot. The unit counters cost one atomic per
    /// run_units call; worker_busy_seconds is the time pooled workers
    /// (the caller included) spent inside unit bodies.
    struct PoolStats {
        std::int64_t units_pooled{0};  ///< units executed via the worker pool
        std::int64_t units_inline{0};  ///< units executed inline (serial/fallback)
        double worker_busy_seconds{0.0};
        int workers{0};                ///< pool threads alive, counting the caller
    };

    /// The singleton every runner shares.
    [[nodiscard]] static ReplicationPool& instance() {
        static ReplicationPool pool;
        return pool;
    }

    ReplicationPool(const ReplicationPool&) = delete;
    ReplicationPool& operator=(const ReplicationPool&) = delete;

    ~ReplicationPool() {
        {
            const std::lock_guard<std::mutex> lock{mutex_};
            stop_ = true;
        }
        wake_.notify_all();
        for (auto& thread : threads_) thread.join();
    }

    /// Current telemetry totals. Safe to call between run_units calls
    /// (runner code snapshots around a sweep pass).
    [[nodiscard]] PoolStats stats() {
        PoolStats out;
        out.units_pooled = units_pooled_.load(std::memory_order_relaxed);
        out.units_inline = units_inline_.load(std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock{mutex_};
        out.worker_busy_seconds = busy_seconds_;
        out.workers = static_cast<int>(threads_.size()) + 1;
        return out;
    }

    /// Runs task(unit) for every unit in [0, units) over at most `threads`
    /// workers (clamped via replication_workers); blocks until all units
    /// are done, and the calling thread participates. A throwing body is
    /// retried up to `retries` more times; if every attempt throws, the
    /// unit is recorded as a UnitFailure and every other unit still runs.
    /// Retrying is sound only because unit bodies are pure functions of
    /// their index (the determinism contract): a retry re-derives the same
    /// seed and recomputes the identical result. Returns the failures
    /// sorted by unit index (deterministic regardless of scheduling);
    /// empty means every unit eventually succeeded.
    [[nodiscard]] std::vector<UnitFailure> run_units(int units, int threads, int retries,
                                                     const std::function<void(int)>& task) {
        std::vector<UnitFailure> failures;
        std::mutex failures_mutex;
        const int attempts_allowed = 1 + std::max(retries, 0);
        // The one place a unit's exception is caught, so no exception ever
        // leaves a worker thread.
        const auto record = [&](int unit, int attempts, std::string message) {
            const std::lock_guard<std::mutex> lock{failures_mutex};
            failures.push_back({unit, attempts, std::move(message), std::current_exception()});
        };
        const std::function<void(int)> guarded = [&](int unit) {
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

        const int workers = replication_workers(threads, units);
        // Recursion is detected before touching the lock: try_lock on a
        // mutex this thread already holds is undefined. A concurrent
        // dispatch from another thread does not queue behind the running
        // one either — determinism never depended on the pool.
        std::unique_lock<std::mutex> dispatch{dispatch_mutex_, std::defer_lock};
        if (workers > 1 && !busy_here()) (void)dispatch.try_lock();
        if (dispatch.owns_lock()) {
            units_pooled_.fetch_add(units, std::memory_order_relaxed);
            run_pooled(units, workers, guarded);
        } else {
            units_inline_.fetch_add(units, std::memory_order_relaxed);
            for (int unit = 0; unit < units; ++unit) guarded(unit);
        }
        std::sort(failures.begin(), failures.end(),
                  [](const UnitFailure& a, const UnitFailure& b) { return a.unit < b.unit; });
        return failures;
    }

private:
    ReplicationPool() = default;

    /// Whether THIS thread is inside a pooled dispatch (see run_units).
    [[nodiscard]] static bool& busy_here() noexcept {
        thread_local bool busy = false;
        return busy;
    }

    /// Hands units [0, units) to `workers` participants — the caller as
    /// worker 0 plus pool threads 1..workers-1, grown on demand — and
    /// returns once every unit is done. `task` must not throw.
    void run_pooled(int units, int workers, const std::function<void(int)>& task) {
        std::unique_lock<std::mutex> lock{mutex_};
        for (int w = static_cast<int>(threads_.size()) + 1; w < workers; ++w) {
            threads_.emplace_back([this, w] { worker_loop(w); });
        }
        task_ = &task;
        next_unit_ = 0;
        units_ = units;
        active_ = workers;
        wake_.notify_all();
        busy_here() = true;
        drain(0, lock);
        busy_here() = false;
        done_.wait(lock, [this] { return next_unit_ >= units_ && in_flight_ == 0; });
        task_ = nullptr;
        units_ = 0;  // parks the workers until the next dispatch
    }

    /// Pops units until none are left, running each outside the mutex.
    /// `lock` holds mutex_ on entry and on return.
    void drain(int worker, std::unique_lock<std::mutex>& lock) {
        while (worker < active_ && next_unit_ < units_) {
            const int unit = next_unit_++;
            ++in_flight_;
            const auto* task = task_;
            lock.unlock();
            const auto begin = std::chrono::steady_clock::now();
            (*task)(unit);
            const std::chrono::duration<double> busy = std::chrono::steady_clock::now() - begin;
            lock.lock();
            busy_seconds_ += busy.count();
            --in_flight_;
            if (next_unit_ >= units_ && in_flight_ == 0) done_.notify_all();
        }
    }

    void worker_loop(int worker) {
        std::unique_lock<std::mutex> lock{mutex_};
        for (;;) {
            wake_.wait(lock, [this, worker] {
                return stop_ || (worker < active_ && next_unit_ < units_);
            });
            if (stop_) return;
            drain(worker, lock);
        }
    }

    std::mutex dispatch_mutex_;  ///< held by the one pooled dispatch in flight
    // Telemetry (see PoolStats). Atomics: the inline-fallback paths run
    // concurrently with a pooled dispatch by design.
    std::atomic<std::int64_t> units_pooled_{0};
    std::atomic<std::int64_t> units_inline_{0};
    // Dispatch state, guarded by mutex_.
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(int)>* task_{nullptr};
    int next_unit_{0};
    int units_{0};
    int active_{0};
    int in_flight_{0};
    bool stop_{false};
    double busy_seconds_{0.0};
    std::vector<std::thread> threads_;  ///< after everything the workers use
};

}  // namespace smn::sim
