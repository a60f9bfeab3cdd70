#include "exp/runner.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "obs/counter_sink.hpp"
#include "obs/process.hpp"
#include "obs/step_trace.hpp"
#include "rng/rng.hpp"
#include "util/failpoint.hpp"

namespace smn::exp {
namespace {

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash) noexcept {
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

/// Executes every (point, replication) unit of `points` through one
/// sim::run_units pass and aggregates per point in index order. The
/// shared implementation of run_point and run_sweep: both produce records
/// through the exact same aggregation walk, so a pipelined sweep is
/// byte-identical to running its points one at a time.
std::vector<PointResult> run_points(const Scenario& scenario,
                                    const std::vector<ParamValues>& points,
                                    const RunOptions& options) {
    if (options.reps < 1) throw std::invalid_argument("run_point: reps must be >= 1");
    const auto reps = static_cast<std::size_t>(options.reps);

    // Bind every point before any replication runs, so a typo'd parameter
    // fails fast instead of after the first points' worth of compute.
    std::vector<ScenarioParams> bound;
    std::vector<std::uint64_t> seeds;
    bound.reserve(points.size());
    seeds.reserve(points.size());
    for (const auto& values : points) {
        bound.emplace_back(scenario.params, values);
        seeds.push_back(point_seed(options.seed, scenario.name, values));
    }

    // One flat unit queue over the whole sweep: unit u is replication
    // u % reps of point u / reps. Dynamic scheduling means a small
    // point's units never wait for a slow neighbour point to finish;
    // per-unit result slots keep the outcome independent of who ran what.
    const std::size_t total = points.size() * reps;
    std::vector<Metrics> unit_metrics(total);
    std::vector<double> unit_seconds(total);
    std::atomic<std::size_t> done{0};
    const int threads = options.threads > 0 ? options.threads : sim::default_threads();

    using clock = std::chrono::steady_clock;

    // Resume: units the journal already holds are replayed on the caller
    // thread (the journal shares the JSONL writer's shortest-round-trip
    // number encoding, so a replayed metric re-serializes to the exact
    // bytes the uninterrupted run would have produced).
    std::vector<std::uint8_t> replayed(total, 0);
    if (options.journal != nullptr) {
        for (std::size_t u = 0; u < total; ++u) {
            const auto* prior = options.journal->find(scenario.name, static_cast<int>(u));
            if (prior == nullptr) continue;
            unit_metrics[u] = prior->metrics;
            unit_seconds[u] = prior->wall_seconds;
            replayed[u] = 1;
            if (options.on_progress) {
                options.on_progress(done.fetch_add(1, std::memory_order_relaxed) + 1, total);
            }
        }
    }

    // The traced unit: the first one this pass computes.
    std::size_t traced = total;
    if (options.trace != nullptr) {
        traced = 0;
        while (traced < total && replayed[traced] != 0) ++traced;
    }

    std::atomic<std::size_t> skipped{0};
    const double journal_before =
        options.journal != nullptr ? options.journal->io_seconds() : 0.0;
    const auto sweep_begin = clock::now();
    const auto pass = sim::run_units(
        static_cast<int>(total), threads, options.retries, [&](int unit) {
            const auto u = static_cast<std::size_t>(unit);
            if (replayed[u] != 0) return;
            if (options.stop != nullptr && options.stop->load(std::memory_order_relaxed)) {
                skipped.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            const auto point = u / reps;
            const auto rep = u % reps;
            util::failpoint("unit_body");
            // Engines destroyed in this attempt flush their counters (and,
            // with --timings, their phases) into `sink`; a throwing
            // attempt's sink dies with it, and the traced unit's next
            // attempt starts its trace afresh.
            obs::CounterSink sink;
            sink.timed = options.timings;
            if (u == traced) {
                options.trace->clear();
                sink.trace = options.trace;
            }
            const auto begin = clock::now();
            {
                const obs::ScopedCounterSink scope{sink};
                unit_metrics[u] =
                    scenario.run_rep(bound[point], rng::replication_seed(seeds[point], rep));
            }
            unit_seconds[u] = std::chrono::duration<double>(clock::now() - begin).count();
            for (const auto& [name, value] : sink.metrics) unit_metrics[u][name] += value;
            if (options.journal != nullptr) {
                io::JournalUnit entry;
                entry.metrics = unit_metrics[u];
                entry.wall_seconds = unit_seconds[u];
                options.journal->record(scenario.name, unit, entry);
            }
            if (options.on_progress) {
                options.on_progress(done.fetch_add(1, std::memory_order_relaxed) + 1, total);
            }
        });
    // The journal is made durable inside the pass's wall clock, so the
    // journal time reported with it covers every append and the fsync. A
    // failed fsync is raised only after aggregation (JournalSyncFailed),
    // so the units computed here are not lost with it.
    std::optional<io::JournalError> sync_error;
    if (options.journal != nullptr) {
        try {
            options.journal->sync();
        } catch (const io::JournalError& err) {
            sync_error = err;
        }
    }
    if (skipped.load(std::memory_order_relaxed) > 0) {
        throw Interrupted("run interrupted with " +
                          std::to_string(skipped.load(std::memory_order_relaxed)) + " of " +
                          std::to_string(total) + " units not run");
    }
    if (!pass.failures.empty() && !options.tolerate_failures) {
        // Fail-fast mode: surface the first failure (by unit index, so
        // the choice is deterministic) with its original type.
        std::rethrow_exception(pass.failures.front().error);
    }
    const double sweep_wall =
        std::chrono::duration<double>(clock::now() - sweep_begin).count();
    std::optional<double> journal_seconds;
    if (options.journal != nullptr) {
        journal_seconds = options.journal->io_seconds() - journal_before;
    }
    // Pass-level pool/process telemetry: units interleave across a
    // pipelined sweep's points, so these figures describe the pass as a
    // whole and are attached identically to each of its points (like
    // sweep_wall_seconds).
    const double peak_rss = static_cast<double>(obs::peak_rss_bytes());

    std::vector<PointResult> results;
    results.reserve(points.size());
    std::size_t next_failure = 0;  // pass.failures is sorted by unit index
    for (std::size_t point = 0; point < points.size(); ++point) {
        PointResult result;
        result.scenario = scenario.name;
        result.params = points[point];
        result.reps = options.reps;
        result.seed = seeds[point];
        result.sweep_wall_seconds = sweep_wall;
        result.journal_seconds = journal_seconds;
        while (next_failure < pass.failures.size() &&
               static_cast<std::size_t>(pass.failures[next_failure].unit) < (point + 1) * reps) {
            const auto& failure = pass.failures[next_failure++];
            result.failures.push_back({static_cast<int>(
                                           static_cast<std::size_t>(failure.unit) % reps),
                                       failure.attempts, failure.message});
        }
        for (std::size_t rep = 0; rep < reps; ++rep) {
            const auto u = point * reps + rep;
            result.wall_seconds += unit_seconds[u];
            for (const auto& [name, value] : unit_metrics[u]) {
                if (name.starts_with("timing.")) {
                    // Reserved prefix: host-dependent phase seconds — keep
                    // out of the deterministic metric block (see
                    // PointResult).
                    result.phase_seconds[name.substr(7)] += value;
                    continue;
                }
                if (name.starts_with("obs.")) {
                    // Reserved prefix: telemetry counters — build- and
                    // host-dependent, diverted like timing.* (see
                    // PointResult::counters).
                    result.counters[name.substr(4)] += value;
                    continue;
                }
                result.metrics[name].add(value);
                if (name == "steps") result.steps += value;
            }
        }
        result.steps_per_second =
            result.wall_seconds > 0.0 ? result.steps / result.wall_seconds : 0.0;
        if (!result.counters.empty()) {
            result.counters["pool.units"] = static_cast<double>(total);
            result.counters["pool.units_inline"] =
                pass.workers == 1 ? static_cast<double>(total) : 0.0;
            result.counters["pool.workers"] = static_cast<double>(pass.workers);
            result.counters["pool.worker_busy_s"] = pass.busy_seconds;
            result.counters["process.peak_rss_bytes"] = peak_rss;
        }
        results.push_back(std::move(result));
    }
    if (sync_error) throw JournalSyncFailed{*sync_error, std::move(results)};
    return results;
}

}  // namespace

const stats::Sample& PointResult::metric(const std::string& name) const {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
        throw std::out_of_range("point '" + scenario + "/" + canonical_point(params) +
                                "' has no metric '" + name + "'");
    }
    return it->second;
}

std::uint64_t point_seed(std::uint64_t base, const std::string& scenario,
                         const ParamValues& values) noexcept {
    std::uint64_t hash = fnv1a(scenario, 0xCBF29CE484222325ULL);
    hash = fnv1a(canonical_point(values), fnv1a("\x1f", hash));  // FNV-1a streams
    return rng::mix64(base ^ rng::mix64(hash));
}

PointResult run_point(const Scenario& scenario, const ParamValues& values,
                      const RunOptions& options) {
    auto results = run_points(scenario, {values}, options);
    return std::move(results.front());
}

std::vector<PointResult> run_sweep(const Scenario& scenario, const SweepSpec& sweep,
                                   const RunOptions& options) {
    return run_points(scenario, sweep.points(), options);
}

}  // namespace smn::exp
