// runner.hpp — executes scenarios over parameter points and replications.
//
// run_point() executes one (scenario, parameter point): `reps`
// replications farmed over the workers of one sim::run_units pass, each
// with a seed derived deterministically from (base seed, scenario name,
// canonical parameter point, replication index). Aggregation walks
// replications in index order, so every statistic — and therefore every
// emitted record — is bit-identical regardless of the thread count.
// run_sweep() pipelines the whole cross-product of a SweepSpec through one
// such pass: every (point, replication) unit enters a single
// dynamically-scheduled queue, so a small point's replications never
// serialize behind a slow neighbour's, while per-point aggregation stays
// ordered (records are byte-identical to a serial run).
//
// Seeds are decoupled from sweep *shape*: a point's seed depends only on
// its own canonical parameters, so adding an axis value to a sweep never
// shifts the seeds (and thus the results) of the points already in it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "io/journal.hpp"
#include "sim/runner.hpp"
#include "stats/running_stats.hpp"

namespace smn::obs {
class StepTrace;
}  // namespace smn::obs

namespace smn::exp {

/// Thrown by run_point/run_sweep when a cooperative stop (RunOptions::
/// stop, set by smn_lab's SIGINT/SIGTERM handler) interrupted the pass
/// before every unit ran. Completed units are already in the journal, so
/// the run can be finished later with --resume.
class Interrupted : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Execution options shared by every point of a run.
struct RunOptions {
    int reps{8};                         ///< replications per parameter point
    std::uint64_t seed{20110601};        ///< base seed of the whole run
    int threads{0};                      ///< 0 → sim::default_threads()
    /// Propagated from --timings: engines time their phases and report
    /// them as "timing." metrics (see obs::CounterSink::timed).
    bool timings{false};
    /// Optional step trace (--trace; non-owning). The runner clears it at
    /// the start of each attempt of the lowest-index unit this pass
    /// computes (unit 0 unless the journal replayed it) and puts it on
    /// that attempt's counter sink, where the first engine built takes it
    /// (see obs::CounterSink::trace). So a trace holds one attempt of one
    /// replication, the same at any thread count.
    obs::StepTrace* trace{nullptr};
    /// Extra attempts for a unit whose body throws (--retries). Retries
    /// are sound because units are pure functions of their index: a retry
    /// recomputes the identical result (see sim::run_units).
    int retries{0};
    /// When true, a unit that still throws after every retry is recorded
    /// in PointResult::failures and the remaining units complete; when
    /// false (default) the first failing unit's exception is rethrown
    /// after the pass with its concrete type intact.
    bool tolerate_failures{false};
    /// Cooperative stop flag (nullptr = never stop). Checked before each
    /// unit starts; once it reads true, unstarted units are skipped and
    /// the pass ends by throwing Interrupted. In-flight units finish —
    /// the journal only ever records complete units.
    const std::atomic<bool>* stop{nullptr};
    /// Optional sweep journal. Completed units found in it are replayed
    /// without re-running (resume); units computed by this pass are
    /// appended to it as they finish.
    io::SweepJournal* journal{nullptr};
    /// Optional progress hook: called as on_progress(done, total) after
    /// each completed replication unit, where `total` counts every
    /// (point, replication) pair of the run. Invoked from worker threads
    /// concurrently — the callback must be thread-safe. Purely
    /// observational; never affects results.
    std::function<void(std::size_t, std::size_t)> on_progress;
};

/// Aggregated result of one (scenario, parameter point).
struct PointResult {
    std::string scenario;                       ///< scenario name
    ParamValues params;                         ///< raw sweep-bound values
    int reps{0};                                ///< replications executed
    std::uint64_t seed{0};                      ///< derived point seed
    std::map<std::string, stats::Sample> metrics;  ///< per-metric samples
    double wall_seconds{0.0};                   ///< summed replication wall clock
    double steps{0.0};                          ///< Σ of the "steps" metric
    double steps_per_second{0.0};               ///< steps / wall_seconds
    /// Wall clock of the whole pipelined run this point belonged to (the
    /// run_point/run_sweep call), identical across a sweep's points. With
    /// replication parallelism this is the end-to-end latency, while
    /// wall_seconds sums per-replication costs (serial-equivalent time).
    double sweep_wall_seconds{0.0};
    /// With a journal attached: the seconds the journal spent in its own
    /// appends and closing fsync during that run, which is inside
    /// sweep_wall_seconds (io::SweepJournal::io_seconds). Unset without a
    /// journal.
    std::optional<double> journal_seconds;

    /// Phase wall-clock attribution, summed across replications. Fed by
    /// metrics whose name carries the reserved "timing." prefix — the
    /// phase seconds every engine destroyed in a replication flushes into
    /// a timed obs::counter_sink() (RunOptions::timings). Those are
    /// host-dependent, so the runner diverts them here (emitted only
    /// under --timings) instead of the deterministic metrics block.
    std::map<std::string, double> phase_seconds;

    /// Telemetry counters, summed across replications. Fed by metrics with
    /// the reserved "obs." prefix — the counters every engine destroyed
    /// in a replication flushes into the runner's obs::counter_sink(),
    /// and any a scenario reports itself — plus the pool/process figures
    /// the runner injects per pass. Host- and
    /// build-dependent — emitted only under --counters, exactly like
    /// phase_seconds under --timings, so default output stays
    /// deterministic.
    std::map<std::string, double> counters;

    /// One replication of this point that kept throwing after every
    /// retry (only populated under RunOptions::tolerate_failures).
    struct UnitFailure {
        int rep{-1};          ///< replication index within the point
        int attempts{0};      ///< total attempts made (1 + retries)
        std::string message;  ///< what() of the final exception
    };
    /// Replications excluded from the samples above because their body
    /// failed every attempt; empty on a fully healthy point.
    std::vector<UnitFailure> failures;

    /// Sample for `name`; throws std::out_of_range when no replication
    /// reported it.
    [[nodiscard]] const stats::Sample& metric(const std::string& name) const;
};

/// Thrown by run_point/run_sweep when every unit completed but the
/// journal's closing fsync failed (io::SweepJournal::sync). The pass's
/// records are complete and travel with the error, so a caller can still
/// write them before reporting that the journal is not durable.
class JournalSyncFailed : public io::JournalError {
public:
    JournalSyncFailed(const io::JournalError& cause, std::vector<PointResult> completed)
        : io::JournalError{cause}, results{std::move(completed)} {}

    std::vector<PointResult> results;  ///< what run_sweep would have returned
};

/// Deterministic seed of a parameter point (exposed for tests).
[[nodiscard]] std::uint64_t point_seed(std::uint64_t base, const std::string& scenario,
                                       const ParamValues& values) noexcept;

/// Runs one parameter point of a scenario.
[[nodiscard]] PointResult run_point(const Scenario& scenario, const ParamValues& values,
                                    const RunOptions& options);

/// Runs every point of the sweep in cross-product order. All points'
/// replications share one dynamically-scheduled pass (results stay
/// byte-identical to running the points one at a time).
[[nodiscard]] std::vector<PointResult> run_sweep(const Scenario& scenario,
                                                 const SweepSpec& sweep,
                                                 const RunOptions& options);

}  // namespace smn::exp
