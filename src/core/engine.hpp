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
#include <chrono>
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
#include "obs/registry.hpp"
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
/// when phase timing is enabled (see DisseminationLoop::set_phase_timing).
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
/// counters, the step trace and the registry flush — exists once, here.
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
    /// exchange. The Exchange base is built first, from the validated
    /// config.
    explicit DisseminationLoop(const EngineConfig& config)
        : Exchange{validate(config)},
          config_{config},
          rng_{config_.seed},
          agents_{grid::Grid2D::square(config_.side), config_.k, rng_, config_.walk},
          builder_{agents_.grid(), config_.radius, config_.metric},
          dsu_{static_cast<std::size_t>(config_.k)} {
        // Initial exchange at t = 0: knowledge floods the components of
        // G_0(r) before anyone moves.
        builder_.build(agents_.positions(), dsu_);
        exchange();
        // One-shot trace arming (smn_lab --trace): the first engine built
        // after obs::arm_trace claims the sink. Purely observational — the
        // only engine-side effect is phase timing, which touches no state
        // the trajectories depend on.
        set_trace(obs::claim_trace());
    }

    // Non-copyable: the destructor flushes the cumulative counters into
    // the process-wide registry, and a copy would flush them twice (it
    // would also share the claimed trace sink). Moves are fine: a
    // moved-from shell flushes nothing.
    DisseminationLoop(const DisseminationLoop&) = delete;
    DisseminationLoop& operator=(const DisseminationLoop&) = delete;
    DisseminationLoop(DisseminationLoop&&) = default;
    DisseminationLoop& operator=(DisseminationLoop&&) = default;

    /// Flushes the engine's counters into the process-wide obs::Registry
    /// under the "engine." prefix.
    ~DisseminationLoop() {
        // Moved-from shells keep their (trivially copyable) tally totals;
        // flushing them too would double-count. A move empties the
        // ensemble's vectors, so count() == 0 identifies a shell.
        if (agents_.count() == 0) return;
        auto& registry = obs::Registry::instance();
        for (const auto& [name, value] : counters()) {
            registry.counter(std::string{"engine."} + name).add(static_cast<std::int64_t>(value));
        }
    }

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

    /// The component partition of G_t(r) at the current time step. Once
    /// the knowledge has saturated, step() skips the (unobservable)
    /// component pass; this accessor recomputes it on demand, so callers
    /// always see the partition of the current positions.
    [[nodiscard]] graph::DisjointSets& components() {
        refresh_components();
        return dsu_;
    }

    /// Broadcast only: the state at the current time, for a recorder's
    /// on_step().
    [[nodiscard]] StepView view() const requires kSingleRumor {
        return StepView{.time = t_, .positions = agents_.positions(), .rumor = this->rumor()};
    }

    /// Enables cumulative per-phase wall-clock attribution of step().
    void set_phase_timing(bool on) noexcept {
        timing_ = on;
        builder_.set_timing(on);
    }

    /// Phase totals accumulated since construction (zeros unless
    /// set_phase_timing(true) was called before stepping).
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
    /// are int64 tallies widened to double for the metric pipeline.
    [[nodiscard]] std::vector<std::pair<const char*, double>> counters() const {
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

    /// Attaches a per-step trace sink (non-owning; nullptr detaches).
    /// Tracing implies phase timing; it is purely observational and never
    /// affects trajectories. The constructor also claims the process-wide
    /// armed trace (obs::arm_trace) automatically.
    void set_trace(obs::StepTrace* trace) noexcept {
        trace_ = trace;
        if (trace_ != nullptr) {
            set_phase_timing(true);
            // Baseline at attach time, so the first traced step's deltas
            // cover that step only — not the construction-time build pass.
            trace_prev_ = trace_totals();
        }
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

    void refresh_components() {
        if (!stale_) return;  // partition is current as of the last full step
        // Deferred steps skipped the component pass: recompute it.
        // Accounted under the rebuild phase so phase_timings() subtraction
        // stays consistent.
        // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
        using clock = std::chrono::steady_clock;
        const auto t0 = timing_ ? clock::now() : clock::time_point{};
        builder_.build(agents_.positions(), dsu_);
        if (timing_) rebuild_seconds_ += std::chrono::duration<double>(clock::now() - t0).count();
        stale_ = false;
    }

    /// Current cumulative totals of every traced engine counter and phase.
    [[nodiscard]] obs::StepRecord trace_totals() const noexcept {
        obs::StepRecord cur{};
        const auto ph = phase_timings();
        cur.walk_s = ph.walk_s;
        cur.index_s = ph.index_s;
        cur.components_s = ph.components_s;
        cur.exchange_s = ph.exchange_s;
        const auto& scan = builder_.scan_stats();
        cur.rescanned = scan.rescanned_units;
        cur.pairs_tested = scan.pairs_tested;
        cur.pairs_survived = scan.pairs_survived;
        cur.index_moves = builder_.index_stats().moves;
        const auto& dsu = dsu_.stats();
        cur.dsu_unites = dsu.unites;
        cur.dsu_fast_hits = dsu.fast_path_hits;
        const auto& walk = agents_.decode_stats();
        cur.blocks_decoded = walk.blocks_decoded;
        cur.blocks_scalar = walk.blocks_scalar;
        return cur;
    }

    /// Pushes one StepRecord: deltas of every cumulative engine counter
    /// and phase total since the previous traced step, plus instantaneous
    /// gauges (`informed` counts the agents that know every rumor).
    void trace_step() {
        if (trace_ == nullptr) return;
        const obs::StepRecord cur = trace_totals();
        obs::StepRecord rec{};
        rec.step = t_;
        rec.walk_s = cur.walk_s - trace_prev_.walk_s;
        rec.index_s = cur.index_s - trace_prev_.index_s;
        rec.components_s = cur.components_s - trace_prev_.components_s;
        rec.exchange_s = cur.exchange_s - trace_prev_.exchange_s;
        rec.rescanned = cur.rescanned - trace_prev_.rescanned;
        rec.pairs_tested = cur.pairs_tested - trace_prev_.pairs_tested;
        rec.pairs_survived = cur.pairs_survived - trace_prev_.pairs_survived;
        rec.index_moves = cur.index_moves - trace_prev_.index_moves;
        rec.dsu_unites = cur.dsu_unites - trace_prev_.dsu_unites;
        rec.dsu_fast_hits = cur.dsu_fast_hits - trace_prev_.dsu_fast_hits;
        rec.blocks_decoded = cur.blocks_decoded - trace_prev_.blocks_decoded;
        rec.blocks_scalar = cur.blocks_scalar - trace_prev_.blocks_scalar;
        rec.units = builder_.occupied_units();
        rec.informed = this->done_agents();
        rec.components = static_cast<std::int64_t>(dsu_.set_count());
        trace_->push(rec);
        trace_prev_ = cur;
    }

    EngineConfig config_;
    rng::Rng rng_;
    walk::AgentEnsemble agents_;
    graph::VisibilityGraphBuilder builder_;
    graph::DisjointSets dsu_;
    std::int64_t t_{0};
    std::int64_t exchange_linked_{0};      ///< Σ |linked()| over exchanges that ran
    bool stale_{false};  ///< component pass deferred (post-completion)
    bool timing_{false};
    double walk_seconds_{0.0};
    double rebuild_seconds_{0.0};
    double exchange_seconds_{0.0};
    obs::StepTrace* trace_{nullptr};  ///< per-step trace sink (non-owning)
    obs::StepRecord trace_prev_{};    ///< cumulative totals at the last traced step
};

/// Single-rumor dissemination process (broadcast; Frog model via config).
using BroadcastProcess = DisseminationLoop<BroadcastExchange>;

}  // namespace smn::core
