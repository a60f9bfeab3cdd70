// engine.hpp — the dissemination process of the paper.
//
// BroadcastProcess simulates the dynamic communication graph process
// {G_t(r) | t ≥ 0} of Sec. 2 for a single rumor:
//
//   t = 0 : k agents placed uniformly at random; the source knows the
//           rumor; the rumor floods the source's component of G_0(r).
//   step  : every agent makes one lazy-walk move (synchronized), the
//           visibility graph G_t(r) is rebuilt, and every component
//           containing an informed agent becomes fully informed —
//           M_a(t) = ∪_{a'∈C} M_{a'}(t−1), the "radio ≫ motion" rule.
//
// The broadcast time T_B is the first t with all agents informed.
//
// Mobility::kInformedOnly switches to the Frog-model dynamics of Sec. 4
// (only informed agents move; uninformed agents stay frozen until they are
// informed). Everything else (exchange rule, termination) is identical,
// which is exactly how the paper extends its theorems.
//
// The loop itself is DisseminationLoop<Exchange>: GossipProcess
// (core/gossip.hpp) runs the same walks, G_t(r) and telemetry with rumor
// sets in place of the one rumor, so only the Exchange type differs.
//
// The engine records nothing: code that measures the process (with the
// recorders of core/observers.hpp and core/cell_observer.hpp) owns the
// step loop and hands view() to its recorders at the steps it wants.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/rumor.hpp"
#include "graph/dsu.hpp"
#include "graph/visibility.hpp"
#include "grid/grid.hpp"
#include "grid/point.hpp"
#include "obs/step_trace.hpp"
#include "rng/rng.hpp"
#include "walk/ensemble.hpp"
#include "walk/step.hpp"

namespace smn::core {

/// Which agents move each step.
enum class Mobility : std::uint8_t {
    kAllMove,       ///< the paper's main model: all k agents walk
    kInformedOnly,  ///< Frog model (Sec. 4): only informed agents walk
};

[[nodiscard]] constexpr const char* mobility_name(Mobility m) noexcept {
    switch (m) {
        case Mobility::kAllMove: return "all-move";
        case Mobility::kInformedOnly: return "frog";
    }
    return "?";
}

/// Full parameterization of a dissemination run.
struct EngineConfig {
    grid::Coord side{64};                            ///< grid side; n = side²
    std::int32_t k{16};                              ///< number of agents
    std::int64_t radius{0};                          ///< transmission radius r
    grid::Metric metric{grid::Metric::kManhattan};   ///< paper: Manhattan
    walk::WalkKind walk{walk::WalkKind::kLazyPaper}; ///< paper: lazy 1/5
    Mobility mobility{Mobility::kAllMove};
    std::int32_t source{0};                          ///< source agent id
    std::uint64_t seed{1};

    /// Number of grid nodes n.
    [[nodiscard]] std::int64_t n() const noexcept { return std::int64_t{side} * side; }
};

/// Returns `config` unchanged if it describes a runnable process; throws
/// std::invalid_argument ("EngineConfig: ...") on side < 1, k < 1,
/// radius < 0, or source outside [0, k). Both engines validate through it
/// before building anything.
[[nodiscard]] EngineConfig validate(EngineConfig config);

/// Cumulative wall-clock attribution of the step loop's phases, captured
/// when phase timing is on (the engine was built under a timed counter
/// sink or one carrying a step trace; see obs/counter_sink.hpp).
/// walk_s is the walk kernel; index_s is the r >= 1 pass's index.* motion
/// tally plus its co-location pass, which fills the node table and the
/// occupancy bitmap; components_s is the remainder of the pass (window
/// reads + unions; all of it at r = 0); exchange_s is the rumor exchange.
struct StepPhaseTimings {
    double walk_s{0.0};
    double index_s{0.0};
    double components_s{0.0};
    double exchange_s{0.0};
};

/// Broadcast state after an exchange, as the recorders read it.
struct StepView {
    std::int64_t time;                          ///< current t (0 = initial)
    std::span<const grid::Point> positions;     ///< agent positions at t
    const SingleRumor& rumor;                   ///< knowledge state at t
};

/// Broadcast's knowledge state and exchange: one rumor (SingleRumor),
/// flooded through every component of G_t(r) that holds an informed and an
/// uninformed member.
class BroadcastExchange {
public:
    explicit BroadcastExchange(const EngineConfig& config)
        : rumor_{config.k, config.source}, root_state_(static_cast<std::size_t>(config.k), 0) {}

    /// Every agent knows the rumor.
    [[nodiscard]] bool complete() const noexcept { return rumor_.all_informed(); }
    /// Agents that know every rumor: the informed agents.
    [[nodiscard]] std::int32_t done_agents() const noexcept { return rumor_.informed_count(); }
    [[nodiscard]] const SingleRumor& rumor() const noexcept { return rumor_; }

protected:
    /// Floods the rumor through the components of `dsu`; `linked` lists the
    /// members of its non-singleton components (the only agents that can
    /// learn or teach).
    void run(std::span<const std::int32_t> linked, graph::DisjointSets& dsu, std::int64_t t);

private:
    SingleRumor rumor_;
    std::vector<std::uint8_t> root_state_;  ///< scratch, size k; all 0 between exchanges
    std::vector<std::int32_t> labels_;      ///< scratch: roots of the linked agents
};

/// The walk → G_t(r) → exchange loop of Sec. 2, shared by broadcast and
/// gossip. `Exchange` is the knowledge state and its exchange rule
/// (BroadcastExchange or GossipExchange); its public accessors — rumor(),
/// rumors(), known_pairs(), … — are the engine's. Everything else —
/// construction, stepping, the post-saturation skip, phase timing,
/// counters, the step trace and the counter-sink flush — exists once, here.
/// The two engines are its instances: BroadcastProcess below,
/// GossipProcess in gossip.hpp.
template <typename Exchange>
class DisseminationLoop : public Exchange {
    /// Frog mobility and view() read the single per-agent informed flag,
    /// so only broadcast has them.
    static constexpr bool kSingleRumor = std::is_same_v<Exchange, BroadcastExchange>;

public:
    /// Validates the config (see validate(); gossip also rejects
    /// Mobility::kInformedOnly), places agents, performs the t = 0
    /// exchange, then reads this thread's counter sink once: a timed sink
    /// turns the phase timers on, and a sink carrying a step trace hands
    /// it to this engine (which also times its phases). Defined in
    /// engine.cpp, like step() and the destructor, so the sink-reading
    /// code stays out of includers' inlining.
    explicit DisseminationLoop(const EngineConfig& config);

    // Non-copyable: the destructor flushes the cumulative counters and
    // phases into the thread's counter sink, and a copy would flush them
    // twice (it would also share the step trace). Moves are fine:
    // a moved-from shell flushes nothing.
    DisseminationLoop(const DisseminationLoop&) = delete;
    DisseminationLoop& operator=(const DisseminationLoop&) = delete;
    DisseminationLoop(DisseminationLoop&&) = default;
    DisseminationLoop& operator=(DisseminationLoop&&) = default;

    /// Adds counters() and the agent count k as "obs." metrics, and for a
    /// timed sink phase_timings() as "timing.*_s", to this thread's
    /// obs::counter_sink() when one is set (the runner sets one around
    /// each replication). Defined in engine.cpp: inlined into includers,
    /// it changed gcc's inlining of paperbench's copy of the walk kernel
    /// (AgentEnsemble::step_all), and bcast_r0 ran about 5% slower.
    ~DisseminationLoop();

    /// Advances the process one time step: move, rebuild G_t(r), exchange.
    /// Defined in engine.cpp and instantiated there for both exchanges:
    /// inlined into a caller's own loop instead (paperbench's timing
    /// loop), the gossip step measured about 7% slower.
    void step();

    /// Steps until complete() or `max_steps` is reached. Returns the
    /// completion time (T_B or T_G, possibly 0) or nullopt on timeout.
    std::optional<std::int64_t> run_until_complete(std::int64_t max_steps) {
        while (!this->complete()) {
            if (t_ >= max_steps) return std::nullopt;
            step();
        }
        return t_;
    }

    [[nodiscard]] std::int64_t time() const noexcept { return t_; }
    [[nodiscard]] const walk::AgentEnsemble& agents() const noexcept { return agents_; }
    [[nodiscard]] const grid::Grid2D& grid() const noexcept { return agents_.grid(); }
    [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

    /// Broadcast only: the state at the current time, for a recorder's
    /// on_step().
    [[nodiscard]] StepView view() const requires kSingleRumor {
        return StepView{.time = t_, .positions = agents_.positions(), .rumor = this->rumor()};
    }

    /// Phase totals accumulated since construction (zeros unless the
    /// phase timers are on; see the constructor).
    [[nodiscard]] StepPhaseTimings phase_timings() const noexcept {
        StepPhaseTimings timings;
        timings.walk_s = walk_seconds_;
        timings.index_s = builder_.index_seconds();
        // Clamp: clock granularity can make the index total nominally
        // exceed the enclosing rebuild total.
        timings.components_s = std::max(0.0, rebuild_seconds_ - builder_.index_seconds());
        timings.exchange_s = exchange_seconds_;
        return timings;
    }

    /// Name → value of every engine counter, cumulative since
    /// construction (scan.*, index.*, dsu.*, walk.*, exchange.*). Values
    /// are int64 tallies widened to double for the metric pipeline. The
    /// one list of counter names: the counter sink, the step trace and
    /// paperbench all report these.
    [[nodiscard]] obs::Counters counters() const {
        const auto& scan = builder_.scan_stats();
        const auto& index = builder_.index_stats();
        const auto& dsu = dsu_.stats();
        const auto& walk = agents_.decode_stats();
        const auto d = [](std::int64_t v) { return static_cast<double>(v); };
        return {
            {"scan.passes", d(scan.passes)},
            {"scan.bypass_passes", d(scan.bypass_passes)},
            {"scan.units_rescanned", d(scan.rescanned_units)},
            {"scan.units_replayed", d(scan.replayed_units)},
            {"scan.pairs_tested", d(scan.pairs_tested)},
            {"scan.pairs_survived", d(scan.pairs_survived)},
            {"scan.edges_replayed", d(scan.edges_replayed)},
            {"index.moves", d(index.moves)},
            {"index.relinks", d(index.relinks)},
            {"dsu.unites", d(dsu.unites)},
            {"dsu.fast_path_hits", d(dsu.fast_path_hits)},
            {"walk.blocks_decoded", d(walk.blocks_decoded)},
            {"walk.blocks_scalar", d(walk.blocks_scalar)},
            {"exchange.linked", d(exchange_linked_)},
        };
    }

private:
    void walk() {
        if constexpr (kSingleRumor) {
            if (config_.mobility == Mobility::kInformedOnly) {
                // Frog model: agents informed *before* this step's motion
                // walk; agents informed during this step's exchange start
                // moving next step.
                agents_.step_subset(rng_, this->rumor().flags());
                return;
            }
        }
        agents_.step_all(rng_);
    }

    void exchange() {
        // Saturated: no component can learn anything new.
        if (this->complete()) return;
        // Only linked agents (members of components of size >= 2) can
        // learn or teach, so the exchange runs over builder_.linked(), not
        // all k agents.
        const auto linked = builder_.linked();
        exchange_linked_ += static_cast<std::int64_t>(linked.size());
        this->run(linked, dsu_, t_);
    }

    /// Pushes one StepRecord: the deltas of phase_timings() and of every
    /// counters() entry since the previous traced step, plus instantaneous
    /// gauges (`informed` counts the agents that know every rumor).
    void trace_step() {
        if (trace_ == nullptr) return;
        const auto phases = phase_timings();
        auto totals = counters();
        obs::StepRecord rec;
        rec.step = t_;
        rec.walk_s = phases.walk_s - trace_phases_.walk_s;
        rec.index_s = phases.index_s - trace_phases_.index_s;
        rec.components_s = phases.components_s - trace_phases_.components_s;
        rec.exchange_s = phases.exchange_s - trace_phases_.exchange_s;
        rec.counters = totals;
        for (std::size_t i = 0; i < totals.size(); ++i) {
            rec.counters[i].second -= trace_counters_[i].second;
        }
        rec.units = builder_.occupied_units();
        rec.informed = this->done_agents();
        rec.components = static_cast<std::int64_t>(dsu_.set_count());
        trace_->push(std::move(rec));
        trace_phases_ = phases;
        trace_counters_ = std::move(totals);
    }

    EngineConfig config_;
    rng::Rng rng_;
    walk::AgentEnsemble agents_;
    graph::VisibilityGraphBuilder builder_;
    graph::DisjointSets dsu_;
    std::int64_t t_{0};
    std::int64_t exchange_linked_{0};      ///< Σ |linked()| over exchanges that ran
    bool timing_{false};
    double walk_seconds_{0.0};
    double rebuild_seconds_{0.0};
    double exchange_seconds_{0.0};
    obs::StepTrace* trace_{nullptr};  ///< step trace taken from the sink (non-owning)
    StepPhaseTimings trace_phases_;   ///< phase totals at the last traced step
    obs::Counters trace_counters_;    ///< counters() at the last traced step
};

/// Single-rumor dissemination process (broadcast; Frog model via config).
using BroadcastProcess = DisseminationLoop<BroadcastExchange>;

}  // namespace smn::core
