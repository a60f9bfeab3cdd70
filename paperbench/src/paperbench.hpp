// paperbench.hpp — the paper-regime benchmark of libsmn.
//
// Four workloads run the paper's experiments to completion (T_B, or T_G
// for gossip) below the percolation point. Two passes measure them:
//
//  * End to end (run_sweeps): the path users take — exp::run_sweep on the
//    registered scenario, one thread — timed from outside through the
//    runner's on_progress hook and process clocks, and converted to
//    reference-host time by calibration slices run between replications.
//  * Traced (run_trace): each replication of batch 0 runs once through the
//    engine (every BroadcastProcess/GossipProcess::step() call timed) and
//    once through a shadow loop built only from public layer calls —
//    walk::AgentEnsemble, VisibilityGraphBuilder::on_move (the bucket
//    index), rebuild_components over DisjointSets, and the rumor exchange —
//    with one span per layer per step. The shadow must reproduce the
//    engine's trajectory exactly, so its layer times add up to the engine's
//    step time and its counts are exact.
//
// Everything here only calls into libsmn; nothing in src/ knows about it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"

namespace paperbench {

using smn::core::EngineConfig;
using smn::exp::Metrics;
using smn::exp::Scenario;

/// One benchmark workload: a registered scenario at one parameter point.
struct Workload {
    std::string name;
    std::string scenario;           ///< registry name
    smn::exp::ParamValues params;   ///< the point, as a sweep would bind it
    int batch;                      ///< replications per run_sweep call
    std::uint64_t digest;           ///< digest() of batch 0 at the default seed
};

/// The four workloads, in a fixed order (rationale in README.md).
[[nodiscard]] const std::vector<Workload>& workloads();

/// The named workload; throws std::invalid_argument listing the names.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// Base seed of batch `batch` of a run seeded with `seed`.
[[nodiscard]] std::uint64_t batch_seed(std::uint64_t seed, int batch) noexcept;

/// Seed the runner hands to replication `rep` of batch `batch`.
[[nodiscard]] std::uint64_t rep_seed(const Workload& w, std::uint64_t seed, int batch,
                                     int rep) noexcept;

/// The engine config the registered scenario builds for `seed`.
[[nodiscard]] EngineConfig engine_config(const Workload& w, std::uint64_t seed);

/// True for the gossip workload (GossipProcess), false for broadcast.
[[nodiscard]] bool is_gossip(const Workload& w) noexcept;

// ------------------------------------------------------------- statistics

/// Median (mean of the middle pair for even sizes); 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The highest percentile that still has at least `beyond` samples above
/// it: the (beyond+1)-th largest sample, at percentile 100·(n−beyond)/n.
struct Tail {
    double value{0.0};
    double percentile{0.0};
    std::size_t samples{0};
};
[[nodiscard]] std::optional<Tail> tail(std::vector<double> values, std::size_t beyond = 10);

// ------------------------------------------------------ host calibration

/// Seconds one calibration slice takes on the reference host (README.md,
/// Noise).
inline constexpr double kReferenceSliceS = 0.010;

/// Wall and CPU seconds one calibration slice took.
struct Slice {
    double wall_s{0.0};
    double cpu_s{0.0};
};

/// Reference-host seconds per host second, given a slice took `took_s`
/// (its wall_s or cpu_s): below 1 on a host slower than the reference.
/// Time metrics are multiplied by it. 1 when no slice ran (`took_s` 0).
[[nodiscard]] double host_factor(double took_s) noexcept;

/// Runs one slice of the calibration kernel: a fixed amount of work written
/// here, calling nothing in libsmn, so a change to the library cannot move
/// it; the host's speed does. Its shape follows the workload's step: RNG
/// draws, lazy moves and co-location through an occupancy stamp, then an
/// informed-flag exchange on a 256² grid (broadcast); for gossip, half of
/// that and half the same walk on a 128² grid merging 16 rumor words per
/// agent.
[[nodiscard]] Slice calibration_slice(const Workload& w);

// ------------------------------------------------------------ end to end

/// One replication as the sweep ran it.
struct RepRecord {
    Metrics metrics;      ///< what the scenario returned (empty if it threw)
    double wall_ms{0.0};  ///< on_progress interval less the slice; 0 if the body threw
    double ref_ms{0.0};   ///< wall_ms in reference-host ms
    Slice slice;          ///< calibration slice run just before the body
    double peak_rss_mb{0.0};  ///< resident-set peak while the body ran
    std::string failure;  ///< empty for a healthy replication
};

/// Why a replication's metrics count as failed ("" when healthy): a
/// missing or zero `completed` flag is a step-cap hit.
[[nodiscard]] std::string rep_failure(const Metrics& metrics);

/// High-water resident set of this process image, in MB. Not getrusage's
/// ru_maxrss: Linux carries that across exec, so it reports the launching
/// process's peak when that was larger.
[[nodiscard]] double peak_rss_mb();

/// Lowers the high-water mark to the current resident set, so that
/// peak_rss_mb() reads the peak from here on. False where the kernel
/// refuses (the mark then keeps the whole process's peak).
bool reset_peak_rss();

/// Replications plus the clocks around the sweeps that ran them.
struct SweepRun {
    std::vector<RepRecord> reps;  ///< in run order, batch by batch
    double wall_s{0.0};           ///< Σ wall time of the run_sweep calls, less slices
    double cpu_s{0.0};            ///< Σ process CPU time of the same calls, less slices
    double ref_wall_s{0.0};       ///< wall_s in reference-host seconds
    double ref_cpu_s{0.0};        ///< cpu_s in reference-host seconds
    double slice_s{0.0};          ///< Σ wall time of the calibration slices
    std::vector<double> factors;  ///< wall-time factor of every slice, in run order
    double runner_rep_s{0.0};     ///< Σ PointResult::wall_seconds
    double agent_steps{0.0};      ///< Σ k · steps over healthy replications
    int batches{0};

    [[nodiscard]] int failed() const;
};

/// Called once, on the first replication's entry (the set-up probe).
using FirstRepHook = void (*)();

/// Runs batches of `w.batch` replications through exp::run_sweep with one
/// thread until `seconds` have passed (at least one batch, at most
/// `max_batches` when positive). A calibration slice runs before every
/// replication and after every batch, outside the replication's time, and
/// each replication's time is also given in reference-host time by the
/// slices on either side of it.
[[nodiscard]] SweepRun run_sweeps(const Scenario& scenario, const Workload& w,
                                  std::uint64_t seed, double seconds, int max_batches = 0,
                                  FirstRepHook on_first_rep = nullptr);

/// FNV-1a digest of the deterministic outputs of the first `count` reps.
[[nodiscard]] std::uint64_t digest(const std::vector<RepRecord>& reps, std::size_t count);

// ----------------------------------------------------------------- traced

/// Exact work counts of the shadow loop, summed over replications.
struct LayerCounts {
    std::int64_t walk_moves{0};
    std::int64_t blocks_decoded{0};
    std::int64_t blocks_scalar{0};
    std::int64_t spatial_moves{0};
    std::int64_t relinks{0};
    std::int64_t passes{0};
    std::int64_t bypass_passes{0};
    std::int64_t units_rescanned{0};
    std::int64_t units_replayed{0};
    std::int64_t pairs_tested{0};
    std::int64_t pairs_survived{0};
    std::int64_t edges_replayed{0};
    std::int64_t dsu_unites{0};
    std::int64_t dsu_fast_hits{0};
    std::int64_t occupied_units{0};  ///< Σ over steps of occupied scan units
    std::int64_t steps{0};
    std::int64_t informs{0};      ///< (agent, rumor) pairs learned in exchanges
    std::int64_t merge_words{0};  ///< MultiRumorState::merge_word calls
    std::int64_t merge_gains{0};  ///< … that gained at least one bit
    std::int64_t naive_checks{0};

    LayerCounts& operator+=(const LayerCounts& o);
    bool operator==(const LayerCounts&) const = default;
};

/// Span layers, in step order. kEngineStep spans are engine step() calls;
/// the shadow's four layer spans of a step are children of its kShadowStep.
enum class Layer : std::uint8_t { kEngineStep, kShadowStep, kWalk, kSpatial, kGraph, kExchange };
inline constexpr int kLayerCount = 6;
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

/// One timed interval. Spans of one replication share `rep`; a layer span's
/// parent is the kShadowStep span with the same (rep, step).
struct Span {
    std::int32_t rep;
    std::int32_t step;
    Layer layer;
    std::int64_t begin_ns;
    std::int64_t end_ns;
};

/// Outcome of one engine or shadow run of a replication.
struct EngineRun {
    std::int64_t finish{-1};               ///< T_B / T_G; −1 on a step-cap hit
    std::vector<std::int64_t> rumor_times;  ///< gossip: per-rumor T_B
    std::vector<std::pair<const char*, double>> counters;  ///< broadcast engine only
    double wall_s{0.0};                    ///< construction + stepping
};

/// Runs the engine, timing every step() call into `spans`.
[[nodiscard]] EngineRun run_engine(const EngineConfig& cfg, bool gossip, std::int32_t rep,
                                   std::vector<Span>& spans);

/// Runs the shadow loop. Every `check_every` steps the partition is
/// compared against VisibilityGraphBuilder::build_naive (0 = never);
/// a mismatch is counted in `naive_mismatches`.
struct ShadowRun {
    EngineRun run;
    LayerCounts counts;
    std::int64_t naive_mismatches{0};
};
[[nodiscard]] ShadowRun run_shadow(const EngineConfig& cfg, bool gossip, std::int32_t rep,
                                   std::vector<Span>& spans, std::int64_t check_every);

/// Replays replication `rep` of batch 0 through the shadow loop and lists
/// how its outputs differ from the sweep's record (empty when they agree).
[[nodiscard]] std::vector<std::string> replay_check(const Workload& w, std::uint64_t seed, int rep,
                                                    const RepRecord& record);

/// Result of the traced pass over batch 0.
struct TraceRun {
    SweepRun sweep;        ///< the untraced end-to-end leg of the same reps
    LayerCounts counts;
    std::vector<Span> spans;
    double engine_wall_s{0.0};
    std::vector<std::string> failures;  ///< one line per failed check
    int failed_reps{0};
};
[[nodiscard]] TraceRun run_trace(const Scenario& scenario, const Workload& w,
                                 std::uint64_t seed, std::int64_t check_every);

/// One reported metric.
struct Metric {
    std::string name;
    double value;
    const char* unit;
};

/// Every per-layer metric of a traced pass.
[[nodiscard]] std::vector<Metric> layer_metrics(const TraceRun& trace);

}  // namespace paperbench
