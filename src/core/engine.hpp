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
// informed). Everything else (exchange rule, observers, termination) is
// identical, which is exactly how the paper extends its theorems.
//
// Observers attach to the loop and see the state after each exchange,
// including the initial one at t = 0.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
/// when phase timing is enabled (see BroadcastProcess::set_phase_timing).
/// walk_s is the walk kernel; index_s is the component pass's counting
/// sort of the agents into the cell list plus its index.* motion tally;
/// components_s is the remainder of the pass (pair scan + unions);
/// exchange_s is the rumor exchange.
struct StepPhaseTimings {
    double walk_s{0.0};
    double index_s{0.0};
    double components_s{0.0};
    double exchange_s{0.0};
};

/// State snapshot passed to observers after each exchange.
struct StepView {
    std::int64_t time;                          ///< current t (0 = initial)
    std::span<const grid::Point> positions;     ///< agent positions at t
    graph::DisjointSets& components;            ///< partition of G_t(r)
    const SingleRumor& rumor;                   ///< knowledge state at t
};

/// Hook into the simulation loop. Observers are non-owning and must
/// outlive the process they are attached to.
class Observer {
public:
    virtual ~Observer() = default;
    virtual void on_step(const StepView& view) = 0;
};

/// Single-rumor dissemination process (broadcast; Frog model via config).
class BroadcastProcess {
public:
    /// Validates the config (see validate()), places agents, performs the
    /// t = 0 exchange.
    explicit BroadcastProcess(const EngineConfig& config);

    // Non-copyable: the destructor flushes the cumulative counters into
    // the process-wide registry, and a copy would flush them twice (it
    // would also share the claimed trace sink). Moves are fine: a
    // moved-from shell flushes nothing.
    BroadcastProcess(const BroadcastProcess&) = delete;
    BroadcastProcess& operator=(const BroadcastProcess&) = delete;
    BroadcastProcess(BroadcastProcess&&) = default;
    BroadcastProcess& operator=(BroadcastProcess&&) = default;

    /// Flushes the engine's counters into the process-wide obs::Registry
    /// under the "engine." prefix (no-op for moved-from shells).
    ~BroadcastProcess();

    /// Attaches an observer (non-owning). It immediately misses the t = 0
    /// callback if attached after construction; attach before stepping for
    /// full series. (run_broadcast handles this for the common cases.)
    void attach(Observer& observer) { observers_.push_back(&observer); }

    /// Advances the process one time step: move, rebuild G_t(r), exchange.
    void step();

    /// Steps until all agents are informed or `max_steps` is reached.
    /// Returns T_B (which may be 0) or nullopt on timeout.
    std::optional<std::int64_t> run_until_complete(std::int64_t max_steps);

    [[nodiscard]] std::int64_t time() const noexcept { return t_; }
    [[nodiscard]] bool complete() const noexcept { return rumor_.all_informed(); }
    [[nodiscard]] const SingleRumor& rumor() const noexcept { return rumor_; }
    [[nodiscard]] const walk::AgentEnsemble& agents() const noexcept { return agents_; }
    [[nodiscard]] const grid::Grid2D& grid() const noexcept { return agents_.grid(); }
    [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

    /// The component partition of G_t(r) at the current time step. Once
    /// the rumor has saturated and no observers are attached, step() skips
    /// the (unobservable) component pass; this accessor recomputes it on
    /// demand, so callers always see the partition of the current
    /// positions.
    [[nodiscard]] graph::DisjointSets& components() {
        refresh_components();
        return dsu_;
    }

    /// Enables cumulative per-phase wall-clock attribution of step().
    void set_phase_timing(bool on) noexcept;

    /// Phase totals accumulated since construction (zeros unless
    /// set_phase_timing(true) was called before stepping).
    [[nodiscard]] StepPhaseTimings phase_timings() const noexcept;

    /// Name → value of every engine counter, cumulative since
    /// construction (scan.*, index.*, dsu.*, walk.*, exchange.*). Values
    /// are int64 tallies widened to double for the metric pipeline.
    [[nodiscard]] std::vector<std::pair<const char*, double>> counters() const;

    /// Attaches a per-step trace sink (non-owning; nullptr detaches).
    /// Tracing implies phase timing; it is purely observational and never
    /// affects trajectories. The engine constructor also claims the
    /// process-wide armed trace (obs::arm_trace) automatically.
    void set_trace(obs::StepTrace* trace) noexcept;

private:
    void exchange();
    void notify();
    void refresh_components();
    [[nodiscard]] obs::StepRecord trace_totals() const noexcept;
    void trace_step();

    EngineConfig config_;
    rng::Rng rng_;
    walk::AgentEnsemble agents_;
    graph::VisibilityGraphBuilder builder_;
    graph::DisjointSets dsu_;
    SingleRumor rumor_;
    std::int64_t t_{0};
    std::vector<Observer*> observers_;
    std::vector<std::uint8_t> root_informed_;  ///< scratch, size k; all 0 between exchanges
    std::vector<std::uint8_t> move_mask_;      ///< scratch for frog mobility
    std::vector<std::int32_t> labels_;         ///< scratch: roots of the linked agents
    std::int64_t exchange_linked_{0};          ///< Σ |linked()| over exchanges that ran
    bool stale_{false};  ///< component pass deferred (post-completion)
    bool timing_{false};
    double walk_seconds_{0.0};
    double rebuild_seconds_{0.0};
    double exchange_seconds_{0.0};
    obs::StepTrace* trace_{nullptr};  ///< per-step trace sink (non-owning)
    obs::StepRecord trace_prev_{};    ///< cumulative totals at the last traced step
};

}  // namespace smn::core
