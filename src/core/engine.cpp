#include "core/engine.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/gossip.hpp"
#include "obs/counter_sink.hpp"

namespace smn::core {

EngineConfig validate(EngineConfig config) {
    if (config.side < 1) {
        throw std::invalid_argument("EngineConfig: side must be >= 1");
    }
    if (config.k < 1) {
        throw std::invalid_argument("EngineConfig: k must be >= 1");
    }
    if (config.radius < 0) {
        throw std::invalid_argument("EngineConfig: radius must be >= 0");
    }
    if (config.source < 0 || config.source >= config.k) {
        throw std::invalid_argument("EngineConfig: source " + std::to_string(config.source) +
                                    " out of range [0," + std::to_string(config.k) + ")");
    }
    return config;
}

void BroadcastExchange::run(std::span<const std::int32_t> linked, graph::DisjointSets& dsu,
                            std::int64_t t) {
    // Pass 1: one find per linked agent (labels_ remembers it for pass 2),
    // classifying each component — bit 0: has an informed member, bit 1:
    // has an uninformed member.
    labels_.resize(linked.size());
    bool any_mixed = false;
    for (std::size_t i = 0; i < linked.size(); ++i) {
        const auto a = linked[i];
        const auto root = dsu.find(a);
        labels_[i] = root;
        auto& state = root_state_[static_cast<std::size_t>(root)];
        state |= rumor_.is_informed(a) ? std::uint8_t{1} : std::uint8_t{2};
        any_mixed |= state == 3;
    }
    // Pass 2: flood only mixed components (fully informed ones — the
    // common case late in a run — need no work).
    if (any_mixed) {
        for (std::size_t i = 0; i < linked.size(); ++i) {
            const auto a = linked[i];
            if (root_state_[static_cast<std::size_t>(labels_[i])] == 3 &&
                !rumor_.is_informed(a)) {
                rumor_.inform(a, t);
            }
        }
    }
    // Clear only the roots this exchange touched.
    for (const auto root : labels_) root_state_[static_cast<std::size_t>(root)] = 0;
}

template <typename Exchange>
DisseminationLoop<Exchange>::DisseminationLoop(const EngineConfig& config)
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
    // The timers, a few clock reads per step that show at small k, run
    // only under a timed sink (smn_lab --timings) or for a trace; the
    // first engine built under a sink carrying one takes it. Neither
    // touches state the trajectories depend on.
    auto* sink = obs::counter_sink();
    if (sink == nullptr) return;
    trace_ = std::exchange(sink->trace, nullptr);
    timing_ = sink->timed || trace_ != nullptr;
    builder_.set_timing(timing_);
    // Baseline, so the first traced step's deltas cover that step only,
    // not the t = 0 pass. The phase totals start at zero with the timers.
    if (trace_ != nullptr) trace_counters_ = counters();
}

template <typename Exchange>
void DisseminationLoop<Exchange>::step() {
    ++t_;
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto stamp = [this] { return timing_ ? clock::now() : clock::time_point{}; };
    const auto t0 = stamp();
    // Once the knowledge has saturated, neither the component pass nor
    // the exchange can affect observable state. The step degenerates to
    // the walk.
    const bool lazy = this->complete();
    walk();
    const auto t1 = stamp();
    if (timing_) walk_seconds_ += std::chrono::duration<double>(t1 - t0).count();
    if (lazy) {
        trace_step();
        return;
    }
    builder_.build(agents_.positions(), dsu_);
    const auto t2 = stamp();
    exchange();
    if (timing_) {
        const auto t3 = clock::now();
        rebuild_seconds_ += std::chrono::duration<double>(t2 - t1).count();
        exchange_seconds_ += std::chrono::duration<double>(t3 - t2).count();
    }
    trace_step();
}

template <typename Exchange>
DisseminationLoop<Exchange>::~DisseminationLoop() {
    auto* sink = obs::counter_sink();
    // Moved-from shells keep their (trivially copyable) tally totals;
    // flushing them too would double-count. A move empties the ensemble's
    // vectors, so count() == 0 identifies a shell.
    if (sink == nullptr || agents_.count() == 0) return;
    auto& metrics = sink->metrics;
    for (const auto& [name, value] : counters()) metrics[std::string{"obs."} + name] += value;
    metrics["obs.agents"] += static_cast<double>(config_.k);
    if (!sink->timed) return;
    const auto phases = phase_timings();
    metrics["timing.walk_s"] += phases.walk_s;
    metrics["timing.index_s"] += phases.index_s;
    metrics["timing.components_s"] += phases.components_s;
    metrics["timing.exchange_s"] += phases.exchange_s;
}

template class DisseminationLoop<BroadcastExchange>;
template class DisseminationLoop<GossipExchange>;

}  // namespace smn::core
