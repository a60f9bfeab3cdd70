// bench_replication_pool — replication-engine scheduling benchmark.
//
// Measures the wall-clock of a skewed multi-point sweep under the two
// replication-scheduling strategies this repo has shipped:
//   static  — the pre-PR5 engine: per-point barriers, fresh std::threads
//             per point, replication r pinned to worker r % threads
//             (reimplemented here so the comparison stays runnable);
//   pooled  — the current engine: one persistent ReplicationPool, every
//             (point, rep) unit in a single dynamically-scheduled queue.
// The workload is sleep-based so the skew is controlled and the numbers
// are meaningful even on small machines: every unit costs base-ms except
// one, which costs slow-factor × base-ms — the heavy-tailed near-critical
// replication of Pettarin et al. in miniature. Under static strides that
// unit strands its whole stride and its point's barrier; under dynamic
// scheduling the other workers keep draining the queue.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "sim/args.hpp"
#include "sim/runner.hpp"
#include "stats/table.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

struct Workload {
    int points;
    int reps;
    double base_ms;
    double slow_factor;

    /// Sleep cost of (point, rep): rep 0 of point 0 is the heavy tail.
    [[nodiscard]] std::chrono::microseconds cost(int point, int rep) const {
        const double factor = (point == 0 && rep == 0) ? slow_factor : 1.0;
        return std::chrono::microseconds{
            static_cast<std::int64_t>(base_ms * factor * 1000.0)};
    }
};

/// Pre-PR5 engine: per point, spawn `threads` workers with static strided
/// replication assignment and join them before the next point starts.
double run_static(const Workload& w, int threads) {
    const auto begin = clock_type::now();
    for (int point = 0; point < w.points; ++point) {
        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                for (int rep = t; rep < w.reps; rep += threads) {
                    std::this_thread::sleep_for(w.cost(point, rep));
                }
            });
        }
        for (auto& worker : workers) worker.join();
    }
    return std::chrono::duration<double>(clock_type::now() - begin).count();
}

/// Current engine: all (point, rep) units through one pool pass.
double run_pooled(const Workload& w, int threads) {
    const auto begin = clock_type::now();
    (void)smn::sim::ReplicationPool::instance().run_units(
        w.points * w.reps, threads, 0,
        [&](int unit) { std::this_thread::sleep_for(w.cost(unit / w.reps, unit % w.reps)); });
    return std::chrono::duration<double>(clock_type::now() - begin).count();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace smn;
    sim::Args args{argc, argv};
    Workload w;
    w.points = static_cast<int>(args.get_int("points", args.quick() ? 3 : 6));
    w.reps = static_cast<int>(args.get_int("reps", args.quick() ? 8 : 16));
    w.base_ms = args.get_double("base-ms", args.quick() ? 2.0 : 5.0);
    w.slow_factor = args.get_double("slow-factor", 100.0);
    const int threads = args.threads();
    const int rounds = static_cast<int>(args.get_int("rounds", 3));
    args.reject_unknown();

    std::cout << "replication scheduling: static strides vs pooled pipeline\n"
              << "dynamic scheduling + reproducible results are compatible "
                 "(seed-by-index; cf. Menouer & Le Cun)\n\n";
    const double total_s =
        (static_cast<double>(w.points * w.reps - 1) + w.slow_factor) * w.base_ms / 1000.0;
    std::cout << w.points << " point(s) x " << w.reps << " rep(s), base " << w.base_ms
              << " ms, one unit " << w.slow_factor << "x slower, threads = " << threads
              << "\ntotal serial sleep " << stats::fmt(total_s, 2)
              << " s; ideal parallel floor " << stats::fmt(total_s / threads, 2) << " s ("
              << "slow unit alone: " << stats::fmt(w.slow_factor * w.base_ms / 1000.0, 2)
              << " s)\n\n";

    stats::Table table{{"round", "static_s", "pooled_s", "speedup"}};
    double best_speedup = 0.0;
    for (int round = 0; round < rounds; ++round) {
        const double static_s = run_static(w, threads);
        const double pooled_s = run_pooled(w, threads);
        const double speedup = pooled_s > 0.0 ? static_s / pooled_s : 0.0;
        best_speedup = std::max(best_speedup, speedup);
        table.add_row({std::to_string(round), stats::fmt(static_s, 3),
                       stats::fmt(pooled_s, 3), stats::fmt(speedup, 2)});
    }
    if (args.csv()) {
        table.print_csv(std::cout);
    } else {
        table.print(std::cout);
    }
    const bool ok = best_speedup >= (threads > 1 ? 1.0 : 0.9);
    std::cout << "\nbest speedup " << stats::fmt(best_speedup, 2) << "x: "
              << (ok ? "pooled pipeline keeps up with static strides"
                     : "pooled pipeline lost to static strides")
              << "\n";
    return 0;
}
