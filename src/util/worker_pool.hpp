// worker_pool.hpp — a persistent in-process worker pool with dynamic
// shard scheduling.
//
// The pool serves replication-level parallelism: sim::ReplicationPool
// (sim/runner.hpp) hands out replication indices as shards, one
// replication per shard. Spawning threads per run would dominate that
// workload, so the pool keeps its workers alive between run() calls and
// hands out shard indices from a shared queue — any worker may take any
// shard (dynamic scheduling), which is safe because shard outputs are
// index-addressed. That, not the scheduling, is what keeps results
// deterministic; a slow shard therefore never strands work behind a
// static stride.
//
// Exceptions thrown by a shard are captured inside the pool: the first
// one cancels the shards not yet handed out (in-flight shards finish) and
// is rethrown on the caller's thread once every worker has drained. A
// throwing task body is thus an ordinary error, not std::terminate.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace smn::util {

/// Persistent pool of `workers` threads (including the caller, which
/// participates in run()). run(shards, task) invokes task(shard, worker)
/// for every shard in [0, shards) — each at most once; an exception
/// cancels the rest — and returns when all handed-out shards are done.
/// `worker` is a stable id in [0, workers) identifying which thread ran
/// the shard — use it to index per-thread scratch.
class WorkerPool {
public:
    /// Per-worker telemetry: shards run and wall-clock spent inside task
    /// bodies, cumulative over the pool's lifetime.
    struct WorkerStats {
        std::int64_t shards{0};
        double busy_seconds{0.0};
    };

    explicit WorkerPool(int workers) : workers_{workers < 1 ? 1 : workers} {
        stats_.resize(static_cast<std::size_t>(workers_));
        threads_.reserve(static_cast<std::size_t>(workers_ - 1));
        for (int w = 1; w < workers_; ++w) {
            threads_.emplace_back([this, w] { worker_loop(w); });
        }
    }

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    ~WorkerPool() {
        {
            std::lock_guard<std::mutex> lock{mutex_};
            stop_ = true;
        }
        wake_.notify_all();
        for (auto& t : threads_) t.join();
    }

    [[nodiscard]] int workers() const noexcept { return workers_; }

    /// Snapshot of the per-worker telemetry. Call between runs (it takes
    /// the pool mutex, which drain() holds around its bookkeeping).
    [[nodiscard]] std::vector<WorkerStats> worker_stats() {
        std::lock_guard<std::mutex> lock{mutex_};
        return stats_;
    }

    /// Sum of busy_seconds over all workers.
    [[nodiscard]] double busy_seconds_total() {
        std::lock_guard<std::mutex> lock{mutex_};
        double total = 0.0;
        for (const auto& s : stats_) total += s.busy_seconds;
        return total;
    }

    /// Grows the pool to at least `workers` threads. Must not overlap a
    /// run() (callers serialize externally — sim::ReplicationPool holds
    /// its dispatch lock across ensure_workers + run).
    void ensure_workers(int workers) {
        if (workers <= workers_) return;
        {
            // Workers park on `wake_` between runs; taking the lock here
            // orders the growth against their predicate reads.
            std::lock_guard<std::mutex> lock{mutex_};
            stats_.resize(static_cast<std::size_t>(workers));
            for (int w = workers_; w < workers; ++w) {
                threads_.emplace_back([this, w] { worker_loop(w); });
            }
            workers_ = workers;
        }
    }

    /// Runs task(shard, worker) for shards [0, shards); blocks until all
    /// handed-out shards are done. The calling thread participates as
    /// worker 0. At most max(1, max_workers) workers take part (0 = all).
    /// The first exception a shard throws cancels the shards not yet
    /// handed out and is rethrown here. Not reentrant.
    void run(int shards, const std::function<void(int, int)>& task, int max_workers = 0) {
        if (shards <= 0) return;
        int active =
            max_workers <= 0 ? workers_ : (max_workers < workers_ ? max_workers : workers_);
        if (active > shards) active = shards;
        if (active <= 1) {
            const auto begin = std::chrono::steady_clock::now();
            for (int s = 0; s < shards; ++s) task(s, 0);  // exceptions propagate directly
            std::lock_guard<std::mutex> lock{mutex_};
            stats_[0].shards += shards;
            stats_[0].busy_seconds +=
                std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
            return;
        }
        {
            std::lock_guard<std::mutex> lock{mutex_};
            task_ = &task;
            next_shard_ = 0;
            shards_ = shards;
            active_ = active;
            error_ = nullptr;
        }
        wake_.notify_all();
        drain(0);
        std::exception_ptr error;
        {
            std::unique_lock<std::mutex> lock{mutex_};
            done_.wait(lock, [this] { return next_shard_ >= shards_ && in_flight_ == 0; });
            task_ = nullptr;
            shards_ = 0;  // parks workers until the next run
            error = error_;
            error_ = nullptr;
        }
        if (error) std::rethrow_exception(error);
    }

private:
    /// Pops shards until none are left (or an exception cancelled the
    /// run); runs each outside the mutex.
    void drain(int worker) {
        std::unique_lock<std::mutex> lock{mutex_};
        while (worker < active_ && next_shard_ < shards_) {
            const int s = next_shard_++;
            ++in_flight_;
            const auto* task = task_;
            lock.unlock();
            const auto begin = std::chrono::steady_clock::now();
            std::exception_ptr error;
            try {
                (*task)(s, worker);
            } catch (...) {
                error = std::current_exception();
            }
            const auto busy =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
            lock.lock();
            auto& ws = stats_[static_cast<std::size_t>(worker)];
            ++ws.shards;
            ws.busy_seconds += busy;
            --in_flight_;
            if (error) {
                if (!error_) error_ = error;
                next_shard_ = shards_;  // cancel shards not yet handed out
            }
            if (next_shard_ >= shards_ && in_flight_ == 0) done_.notify_all();
        }
    }

    void worker_loop(int worker) {
        for (;;) {
            {
                std::unique_lock<std::mutex> lock{mutex_};
                wake_.wait(lock, [this, worker] {
                    return stop_ || (worker < active_ && next_shard_ < shards_);
                });
                if (stop_) return;
            }
            drain(worker);
        }
    }

    int workers_;
    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(int, int)>* task_{nullptr};
    int next_shard_{0};
    int shards_{0};
    int active_{0};
    int in_flight_{0};
    std::exception_ptr error_;
    bool stop_{false};
    std::vector<WorkerStats> stats_;  ///< per-worker telemetry, mutex-guarded
};

}  // namespace smn::util
