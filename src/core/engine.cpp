#include "core/engine.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "core/gossip.hpp"

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
void DisseminationLoop<Exchange>::step() {
    ++t_;
    // smn-lint: allow(wall-clock) timing-only telemetry, gated behind timing_
    using clock = std::chrono::steady_clock;
    const auto stamp = [this] { return timing_ ? clock::now() : clock::time_point{}; };
    const auto t0 = stamp();
    // Once the knowledge has saturated and nothing observes the
    // partition, neither the component pass nor the exchange can
    // affect observable state. The step degenerates to the walk;
    // components() recomputes the partition on demand.
    const bool lazy = observers_.empty() && this->complete();
    walk();
    const auto t1 = stamp();
    if (timing_) walk_seconds_ += std::chrono::duration<double>(t1 - t0).count();
    if (lazy) {
        stale_ = true;
        trace_step();
        return;
    }
    builder_.build(agents_.positions(), dsu_);
    stale_ = false;
    const auto t2 = stamp();
    exchange();
    if (timing_) {
        const auto t3 = clock::now();
        rebuild_seconds_ += std::chrono::duration<double>(t2 - t1).count();
        exchange_seconds_ += std::chrono::duration<double>(t3 - t2).count();
    }
    trace_step();
    notify();
}

template class DisseminationLoop<BroadcastExchange>;
template class DisseminationLoop<GossipExchange>;

}  // namespace smn::core
